"""Every genuskit name the benchmark tracer wraps must still exist.

``bench/spans.py`` replaces functions by their path inside a layer module;
a rename or deletion there would only show up as an ``AttributeError`` when
a traced benchmark run installs its wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "layer, path",
    list(spans.TARGETS) + [spans.LEVEL_PROBE],
    ids=lambda x: x,
)
def test_traced_name_resolves(layer, path):
    owner = importlib.import_module(f"genuskit.{layer}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if outer:
        # methods are wrapped on the class that defines them
        assert attr in vars(owner), f"{layer}.{path} is not defined on its class"
    assert callable(getattr(owner, attr))


def test_tracer_installs_and_uninstalls():
    import genuskit  # noqa: F401  (install looks every layer up in sys.modules)
    from genuskit import abmod

    original = abmod.FGModule.element_is_zero
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert abmod.FGModule.element_is_zero is not original
    finally:
        tracer.uninstall()
    assert abmod.FGModule.element_is_zero is original
