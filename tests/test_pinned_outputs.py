"""Byte-identical JSON and text output for fixed inputs.

Refactors of the arithmetic layers must not change any answer or
certificate.  Each case runs the CLI in process with ``--format json`` (or
``--format text``) and compares the exit code and the sha256 of stdout with
a digest recorded before the layers below were rewritten.  A deliberate
change of output has to update the digest here and say why.
"""

import contextlib
import hashlib
import io

import pytest

import genuskit.cli as cli


# The six README one-shots, then the eight verify suites at seed 0.
PINNED = [
    (
        ["bounded", "aut(singletons(all, {}); tail=id; 2 -> 3/2, 5 -> 5)"],
        0,
        "e98e2d3571c432c19ade224027d90405681f88202337706562cf801385445882",
    ),
    (
        ["pullback", "aut(singletons(all, {}); tail=p^-1)"],
        0,
        "ae7427d4198f4179656628094a7a05c3b3354ebc0c017da808451f23e020217d",
    ),
    (
        [
            "pullback",
            "modpull(module(T={2,3}; rel=[[4,0]]); blocks({2,3}, {}; {2}, {3}); "
            "[[1/2,0],[0,1]], [[3,0],[0,1]])",
        ],
        0,
        "421cb1d858114e5811444f18f9e650b13231626bbf9cd815aa7a2a5bfbd07a87",
    ),
    (
        ["genus", "module(T={2,3}; rel=[[4,0]]), module(T={2,3}; rel=[[0,4]]), {}"],
        0,
        "cabd139ef717f8bdd8b9edbd2ac7207db065432d5b75a9ed6624b2595faddf0d",
    ),
    (
        ["extgenus", "aut(singletons(all, {}); tail=p^-1)"],
        0,
        "9dee4af3dfdc6b520b5b61fd077af5efa7563a07e9ddf74a307b09bd10e5a43c",
    ),
    (
        ["counterexample"],
        0,
        "3eb0f9376741337513fed83c6a9b6b310fb41ed5f6cf9f0e68168572d9d1cda3",
    ),
    (
        ["verify", "111", "--seed", "0"],
        0,
        "010dafff64803cdc462bbe5f3549a8da4d8da853128365124964f8397512baeb",
    ),
    (
        ["verify", "112", "--seed", "0"],
        0,
        "dd58146b44a0abe0b576a8f25e16bbbfe10cadff50d9a7c2a36ead9bc0483691",
    ),
    (
        ["verify", "124", "--seed", "0"],
        0,
        "e208b8be347db2ac4847d6c3f0d117514ee50775d25ad3c65a778fc59e1b4b0b",
    ),
    (
        ["verify", "142", "--seed", "0"],
        0,
        "bf77d338194f89c4d4f8d23a59c4dd0c00d406e8694e3f7dad5367ff3d9a3399",
    ),
    (
        ["verify", "143", "--seed", "0"],
        0,
        "061ce4a69417be6dc67cba98af9c134f75dbbd5ee163068b06c3bd46e2374a21",
    ),
    (
        ["verify", "144", "--seed", "0"],
        0,
        "8dae4151d6d720a0e04505eeea08821eecd86943a78f2d0607d3b35a5b809df6",
    ),
    (
        ["verify", "145", "--seed", "0"],
        0,
        "e62ab7ac859249987b7291358d94fd579756d0e614cd2726c0074366749f09a8",
    ),
    (
        ["verify", "pi-mono", "--seed", "0"],
        0,
        "d692a64579355f9022d4a99ede9559fe7f18443b35feba3db1cfc306f02d09c6",
    ),
]


# The text rendering of the six README one-shots, in the order above.
PINNED_TEXT = [
    "17029054fd0f0682063e2673a3671c8705eb10e7a483cb4abaa85c0dcf617e25",
    "f342e5807c4c570f0196dcc4e83b6736d0cba17814455a5692e3dea001e219bf",
    "9f62e8ae30be184be2c33d59946c19a20233989e8e8c7022dc19f0a0bfe06ee9",
    "43ebd3dda569213ab53f234a7c91f94815b0b32d757013fda0282aba97e316e9",
    "2331efcd210158b4850e6c2bdbed149e843839e1914832dd5e980e7a504a7ecf",
    "029f373a2b44e109a540ca6dd4cc57aa56daf4c83a7195d5489cf6ff23f06846",
]
PINNED_ONE_SHOTS = [
    (argv, code, digest) for (argv, code, _), digest in zip(PINNED, PINNED_TEXT)
]


@pytest.mark.parametrize(
    "argv, code, digest", PINNED, ids=[" ".join(argv[:2]) for argv, _, _ in PINNED]
)
def test_json_output_is_pinned(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv + ["--format", "json"])
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, code, digest",
    PINNED_ONE_SHOTS,
    ids=[" ".join(argv[:2]) for argv, _, _ in PINNED_ONE_SHOTS],
)
def test_text_output_is_pinned(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv + ["--format", "text"])
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
