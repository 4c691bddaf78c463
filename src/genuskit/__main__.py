"""``python -m genuskit``: the ``genuskit`` command."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
