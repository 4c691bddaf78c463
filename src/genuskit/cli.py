"""Command line front end.

Subcommands take their object in the bracket language of :mod:`.dsl`,
either inline, from ``--input FILE``, or from stdin with ``--input -``:

  bounded         boundedness of a rank-one automorphism family
  pullback        the limit group of an ``aut(...)`` or ``modpull(...)``
  genus           common refinement of two modules over a shared core
  extgenus        coarse class of a rank-one pullback
  verify SUITE    randomized property suites with fixed seeds
  counterexample  the standard twisted-line demonstrations

Seeds and sample budgets come from flags, falling back to the optional
``genus-kit.toml`` in the working directory (keys ``seed``, ``samples``,
``prime_max``).  Output is deterministic for a fixed input, seed, and
budget; ``--format json`` emits one sorted JSON object and no timestamps.

Exit codes: 0 success, 2 malformed input, 3 out-of-scope request, 4 a
verification that should have passed did not.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .abmod import (
    FGModule,
    build_fracture,
    genus_witness,
    is_bounded_above_matrix,
    is_localization,
    pullback,
    torsion_check,
)
from .dsl import ModPull, parse_values, print_value, read_value
from .errors import DomainError, VerificationError
from .heis import HeisElement, HeisSubgroup, power_closure_check
from .primeset import (
    ALL_PRIMES,
    EMPTY_SET,
    PartitionFamily,
    PrimeSet,
    make_family,
    next_prime,
    valuation,
)
from .rank1 import (
    AutFamily1,
    ConstantRational,
    Identity,
    IndexPrimePower,
    double_coset_class,
    is_bounded,
    is_bounded_above,
    is_finitely_generated,
    make_aut,
    pullback_rank1,
    rank1_iso,
    verify_localization_properties,
)

SUITES = ("111", "112", "124", "142", "143", "144", "145", "pi-mono")

_CONFIG_KEYS = ("seed", "samples", "prime_max")


def _load_config(path_arg: str | None) -> dict:
    path = path_arg or "genus-kit.toml"
    if path_arg and not os.path.exists(path_arg):
        raise ValueError(f"config file {path_arg} does not exist")
    if not os.path.exists(path):
        return {}
    out = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = int(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} takes an integer, got {value!r}")
    return out


def _settings(args, config: dict, default_samples: int = 200):
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    samples = args.samples if args.samples is not None else config.get("samples", default_samples)
    if samples < 1:
        raise ValueError("the sample budget must be positive")
    return seed, samples, config.get("prime_max", 100)


def _read_source(args) -> str:
    inline = getattr(args, "text", None)
    from_file = getattr(args, "input", None)
    if inline is not None and from_file:
        raise ValueError("give the input inline or with --input, not both")
    if inline is not None:
        return inline
    if not from_file:
        raise ValueError("no input: pass it inline or with --input FILE (- for stdin)")
    if from_file == "-":
        return sys.stdin.read()
    if not os.path.exists(from_file):
        raise ValueError(f"input file {from_file} does not exist")
    with open(from_file, encoding="utf-8") as handle:
        return handle.read()


def _decision_dict(decision) -> dict:
    return {
        "holds": decision.bounded,
        "witness": None if decision.witness is None else str(decision.witness),
        "violation": None if decision.violation is None else str(decision.violation),
    }


def _checks_list(checks) -> list:
    return [{"name": c.name, "passed": c.passed, "witness": c.witness} for c in checks]


def _iso_class_dict(module: FGModule) -> dict:
    free, torsion = module.iso_class()
    return {"free_rank": free, "torsion": [[p, e] for p, e in torsion]}


# ---------------------------------------------------------------- commands


def _cmd_bounded(args, config):
    value = read_value(_read_source(args))
    if not isinstance(value, AutFamily1):
        raise ValueError("bounded expects an aut(...) value")
    above = is_bounded_above(value)
    both = is_bounded(value)
    payload = {
        "command": "bounded",
        "input": print_value(value),
        "bounded_above": _decision_dict(above),
        "bounded": _decision_dict(both),
    }
    lines = [f"input: {payload['input']}"]
    for label, dec in (("bounded above", above), ("bounded", both)):
        if dec.bounded:
            lines.append(f"{label}: yes, witness {dec.witness}")
        else:
            lines.append(f"{label}: no, heights stay wild on {dec.violation}")
    return payload, lines


def _pullback_rank1(value: AutFamily1):
    heights = pullback_rank1(value)
    payload = {
        "command": "pullback",
        "kind": "rank-one",
        "input": print_value(value),
        "heights": str(heights),
        "trivial": heights.trivial,
    }
    lines = [f"input: {payload['input']}", f"heights: {heights}"]
    if heights.trivial:
        lines.append("the limit is the zero group")
    else:
        fg = is_finitely_generated(heights)
        payload["finitely_generated"] = fg
        payload["class"] = str(double_coset_class(value))
        lines.append(f"finitely generated: {'yes' if fg else 'no'}")
        lines.append(f"class: {payload['class']}")
    return payload, lines


def _pullback_module(cmd: ModPull):
    square = build_fracture(cmd.module, cmd.family)
    data = pullback(square, [[list(row) for row in m] for m in cmd.twists])
    certificate = is_localization(data.to_core, cmd.family.S)
    payload = {
        "command": "pullback",
        "kind": "module",
        "input": print_value(cmd),
        "module": str(data.module),
        "iso_class": _iso_class_dict(data.module),
        "level": data.level,
        "core_map_rows": [[str(x) for x in row] for row in data.to_core.rows],
        "core_certificate": _checks_list(certificate.checks),
        "failures": [] if certificate.passed else ["the core map failed certification"],
    }
    lines = [
        f"input: {payload['input']}",
        f"pullback: {data.module}",
        f"iso class: free rank {payload['iso_class']['free_rank']}, "
        f"torsion {payload['iso_class']['torsion']}",
        f"presented at level {data.level}",
    ]
    lines += [str(c) for c in certificate.checks]
    return payload, lines


def _cmd_pullback(args, config):
    value = read_value(_read_source(args))
    if isinstance(value, AutFamily1):
        return _pullback_rank1(value)
    if isinstance(value, ModPull):
        return _pullback_module(value)
    raise ValueError("pullback expects an aut(...) or modpull(...) value")


def _cmd_genus(args, config):
    values = parse_values(_read_source(args))
    if len(values) != 3 or not (
        isinstance(values[0], FGModule)
        and isinstance(values[1], FGModule)
        and isinstance(values[2], PrimeSet)
    ):
        raise ValueError("genus expects: module, module, core prime set")
    first, second, core = values
    witness = genus_witness(first, second, core)
    certified = witness.first_certificate.passed and witness.second_certificate.passed
    payload = {
        "command": "genus",
        "core": str(core),
        "witness_module": str(witness.module),
        "witness_iso_class": _iso_class_dict(witness.module),
        "first_certificate": _checks_list(witness.first_certificate.checks),
        "second_certificate": _checks_list(witness.second_certificate.checks),
        "failures": [] if certified else ["a projection failed its core certification"],
    }
    lines = [
        f"same genus over the core {core}",
        f"witness: {witness.module}",
        f"iso class: free rank {payload['witness_iso_class']['free_rank']}, "
        f"torsion {payload['witness_iso_class']['torsion']}",
        f"projections certified: {'yes' if certified else 'NO'}",
    ]
    return payload, lines


def _cmd_extgenus(args, config):
    value = read_value(_read_source(args))
    if not isinstance(value, AutFamily1):
        raise ValueError("extgenus expects an aut(...) value")
    cls = double_coset_class(value)
    payload = {
        "command": "extgenus",
        "input": print_value(value),
        "class": str(cls),
        "tail_exponent": cls.tail_exponent,
    }
    return payload, [f"input: {payload['input']}", f"class: {cls}"]


# ---------------------------------------------------------------- suites


def _prime_pool(prime_max: int) -> list:
    pool, p = [], 2
    while p < prime_max:
        pool.append(p)
        p = next_prime(p)
    if len(pool) < 5:
        raise ValueError(f"prime_max = {prime_max} leaves too few primes to sample")
    return pool


def _random_square(rng: random.Random, pool, with_torsion: bool):
    t = sorted(rng.sample(pool[:12], rng.randint(2, 4)))
    s = sorted(rng.sample(t, rng.randint(0, 1))) if len(t) > 2 else []
    residual = [p for p in t if p not in s]
    rng.shuffle(residual)
    k = rng.randint(1, min(3, len(residual)))
    chunks = [sorted(residual[i::k]) for i in range(k)]
    family = make_family(
        PrimeSet.finite(t), PrimeSet.finite(s), [PrimeSet.finite(s + c) for c in chunks]
    )
    ngens = rng.randint(1, 2)
    rows = []
    if with_torsion:
        row = [0] * ngens
        row[rng.randrange(ngens)] = rng.choice(residual) ** rng.randint(1, 2)
        rows.append(row)
    if rng.random() < 0.4:
        rows.append([rng.randint(-6, 6) for _ in range(ngens)])
    group = FGModule(PrimeSet.finite(t), rows, ngens)
    return build_fracture(group, family)


def _suite_111(seed, samples, prime_max):
    rng = random.Random(seed)
    pool = _prime_pool(prime_max)
    failures, torsion_blocks = [], 0
    for i in range(samples):
        square = _random_square(rng, pool, with_torsion=(i % 2 == 0))
        report = torsion_check(square)
        torsion_blocks += sum(1 for parts in report.per_block.values() if parts)
        if not report.product_kernel_trivial:
            failures.append(f"sample {i}: G has a nonzero kernel into its block localizations")
        for b, parts in report.per_block.items():
            if report.injective_blocks[b] != (not parts):
                failures.append(f"sample {i}: block {b} torsion bookkeeping disagrees")
    return {
        "samples": samples,
        "blocks_with_residual_torsion": torsion_blocks,
        "failures": failures,
    }, [
        f"{samples} random squares, {torsion_blocks} blocks carried residual torsion",
        "every kernel of G into its block localizations was zero"
        if not failures
        else f"{len(failures)} failures",
    ]


def _suite_pi_mono(seed, samples, prime_max):
    rng = random.Random(seed)
    pool = _prime_pool(prime_max)
    failures = []
    for i in range(samples):
        square = _random_square(rng, pool, with_torsion=True)
        if not torsion_check(square).product_kernel_trivial:
            failures.append(f"sample {i}: nonzero kernel")
    return {"samples": samples, "failures": failures}, [
        f"{samples} torsion-bearing squares checked",
        "the product comparison stayed injective" if not failures else "FAILURES",
    ]


def _suite_112(seed, samples, prime_max):
    zero = Fraction(0)
    anchor = HeisSubgroup(
        ALL_PRIMES,
        [
            HeisElement(ALL_PRIMES, Fraction(2), zero, zero),
            HeisElement(ALL_PRIMES, zero, Fraction(2), zero),
        ],
    )
    probes = [
        HeisElement(ALL_PRIMES, Fraction(1), zero, zero),
        HeisElement(ALL_PRIMES, zero, Fraction(1), zero),
    ]
    report = power_closure_check(probes, anchor, 2, samples=samples, seed=seed)
    flat = HeisSubgroup(ALL_PRIMES, [HeisElement(ALL_PRIMES, Fraction(9), zero, zero)])
    flat_report = power_closure_check(
        [HeisElement(ALL_PRIMES, Fraction(3), zero, zero)],
        flat,
        3,
        samples=max(10, samples // 5),
        seed=seed + 1,
    )
    failures = list(report.violations) + list(flat_report.violations)
    if report.exponent_bound != 3:
        failures.append("the doubled subgroup should sit at nilpotency class 2")
    if flat_report.exponent_bound != 1:
        failures.append("the abelian subgroup should sit at class 1")
    payload = {
        "samples": report.samples + flat_report.samples,
        "histogram": {str(e): n for e, n in sorted(report.tightness.items())},
        "abelian_histogram": {str(e): n for e, n in sorted(flat_report.tightness.items())},
        "failures": failures,
    }
    return payload, [str(report), str(flat_report)]


def _suite_124(seed, samples, prime_max):
    rng = random.Random(seed)
    family = make_family(ALL_PRIMES, EMPTY_SET)
    failures = []
    for i in range(samples):
        beta = Fraction(rng.choice([-1, 1]) * rng.randint(1, 999), rng.randint(1, 999))
        decision = is_bounded(make_aut(family, ConstantRational(beta)))
        predicted = abs(beta.numerator) * beta.denominator
        if not decision.bounded:
            failures.append(f"sample {i}: {beta} reported unbounded")
        elif int(decision.witness) != predicted:
            failures.append(
                f"sample {i}: witness {decision.witness} for {beta}, expected {predicted}"
            )
    return {"samples": samples, "failures": failures}, [
        f"{samples} constant twists matched the predicted minimal witness"
        if not failures
        else f"{len(failures)} witness mismatches"
    ]


def _suite_142(seed, samples, prime_max):
    rng = random.Random(seed)
    family = make_family(ALL_PRIMES, EMPTY_SET)
    failures = []
    for i in range(samples):
        indices = family.sample_indices(4)
        exceptions = {}
        for p in rng.sample(indices, rng.randint(0, 2)):
            exceptions[p] = Fraction(1, p) if rng.random() < 0.5 else Fraction(1)
        aut = make_aut(family, IndexPrimePower(rng.randint(1, 2)), exceptions)
        decision = is_bounded_above(aut)
        if decision.bounded:
            failures.append(f"sample {i}: a deepening tail was reported bounded above")
            continue
        quiet = set(exceptions)
        probe = [p for p in decision.violation.first(5)]
        if not probe:
            failures.append(f"sample {i}: empty violation set")
            continue
        for q in probe:
            value = aut.value_at(q)
            height = valuation(value.numerator, q) - valuation(value.denominator, q)
            if height <= 0:
                failures.append(f"sample {i}: block {q} is in the violation set at height 0")
        for q in quiet:
            if q in decision.violation:
                failures.append(f"sample {i}: flattened block {q} still listed")
    return {"samples": samples, "failures": failures}, [
        f"{samples} deepening tails each produced a concrete failing block"
        if not failures
        else f"{len(failures)} failures"
    ]


def _identityish_twists(rng, square):
    n = square.core.ngens
    twists = []
    for i in square.block_indices:
        residual = square.family.block_residual(i).first(1)
        scale = Fraction(residual[0]) ** rng.choice([-1, 0, 1]) if residual else Fraction(1)
        twists.append([[scale if r == c else Fraction(0) for c in range(n)] for r in range(n)])
    return twists


def _suite_143(seed, samples, prime_max):
    rng = random.Random(seed)
    pool = _prime_pool(prime_max)
    failures = []
    for i in range(samples):
        square = _random_square(rng, pool, with_torsion=(i % 3 == 0))
        data = pullback(square, _identityish_twists(rng, square))
        certificate = is_localization(data.to_core, square.family.S)
        kernel_check = certificate.checks[0]
        if not kernel_check.passed:
            failures.append(f"sample {i}: {kernel_check.witness}")
    return {"samples": samples, "failures": failures}, [
        f"{samples} pullback core maps had invertible-torsion kernels"
        if not failures
        else f"{len(failures)} kernel failures"
    ]


def _suite_144(seed, samples, prime_max):
    rng = random.Random(seed)
    pool = _prime_pool(prime_max)
    failures = []
    for i in range(samples):
        t = sorted(rng.sample(pool[:10], rng.randint(2, 4)))
        s = sorted(rng.sample(t, rng.randint(0, 1))) if len(t) > 2 else []
        family = make_family(PrimeSet.finite(t), PrimeSet.finite(s))
        square = build_fracture(FGModule.free(PrimeSet.finite(t), 1), family)
        exponents = {}
        twists = []
        for b in square.block_indices:
            exponents[b] = rng.randint(-2, 2)
            twists.append([[Fraction(b) ** exponents[b]]])
        bound = is_bounded_above_matrix(square, twists)
        predicted = 1
        for b, c in exponents.items():
            predicted *= b ** max(0, c)
        if int(bound) != predicted:
            failures.append(f"sample {i}: witness {bound}, expected {predicted}")
        data = pullback(square, twists)
        certificate = is_localization(data.to_core, family.S)
        if not certificate.passed:
            bad = [c.witness for c in certificate.checks if not c.passed]
            failures.append(f"sample {i}: core map not a localization: {bad}")
    return {"samples": samples, "failures": failures}, [
        f"{samples} bounded-above twists pushed the core map onto the core"
        if not failures
        else f"{len(failures)} failures"
    ]


def _suite_145(seed, samples, prime_max):
    rng = random.Random(seed)
    pool = _prime_pool(prime_max)
    failures = []
    for i in range(samples):
        if rng.random() < 0.5:
            family = make_family(ALL_PRIMES, EMPTY_SET)
        else:
            t = sorted(rng.sample(pool[:10], rng.randint(2, 3)))
            family = make_family(PrimeSet.finite(t), EMPTY_SET)
        roll = rng.random()
        if roll < 0.34:
            tail = Identity()
        elif roll < 0.67:
            tail = ConstantRational(Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.choice([1, 2])))
        else:
            tail = IndexPrimePower(rng.choice([-2, -1, 0]))
        indices = family.sample_indices(3)
        exceptions = {
            b: Fraction(rng.choice([1, 2, 3]), rng.choice([1, 5]))
            for b in rng.sample(indices, rng.randint(0, 2))
        }
        aut = make_aut(family, tail, exceptions)
        if not is_bounded_above(aut).bounded:
            failures.append(f"sample {i}: construction was not bounded above")
            continue
        block = rng.choice(indices)
        report = verify_localization_properties(aut, block)
        if not report.all_passed():
            bad = [c.name for c in report.checks if not c.passed]
            failures.append(f"sample {i}: block {block} failed {bad}")
    return {"samples": samples, "failures": failures}, [
        f"{samples} bounded-above families restricted to their blocks as localizations"
        if not failures
        else f"{len(failures)} failures"
    ]


_SUITE_RUNNERS = {
    "111": _suite_111,
    "112": _suite_112,
    "124": _suite_124,
    "142": _suite_142,
    "143": _suite_143,
    "144": _suite_144,
    "145": _suite_145,
    "pi-mono": _suite_pi_mono,
}


def _cmd_verify(args, config):
    default = 500 if args.suite == "112" else 200
    seed, samples, prime_max = _settings(args, config, default)
    payload, lines = _SUITE_RUNNERS[args.suite](seed, samples, prime_max)
    payload.update({"command": "verify", "suite": args.suite, "seed": seed})
    header = f"suite {args.suite} (seed {seed})"
    status = "passed" if not payload["failures"] else "FAILED"
    return payload, [f"{header}: {status}", *lines]


# ------------------------------------------------------- counterexample


def _cmd_counterexample(args, config):
    if args.family:
        family = read_value(args.family)
        if not isinstance(family, PartitionFamily):
            raise ValueError("--family expects a singletons(...) or blocks(...) value")
    else:
        family = make_family(ALL_PRIMES, EMPTY_SET)
    finite = family.residual_is_finite()
    cases = []
    lines = [f"family: {family}"]

    sample = family.sample_indices(2)
    probe_block = sample[0]

    if not finite:
        aut = make_aut(family, IndexPrimePower(1))
        heights = pullback_rank1(aut)
        report = verify_localization_properties(aut, probe_block)
        cases.append(
            {
                "name": "all-blocks-deepen",
                "aut": print_value(aut),
                "heights": str(heights),
                "trivial": heights.trivial,
                "localization_checks": _checks_list(report.checks),
            }
        )
        lines += [
            "",
            f"[all-blocks-deepen] {print_value(aut)}",
            f"  heights: {heights}",
            "  the limit collapses to the zero group, and the comparison with"
            f" block {probe_block} stops being a localization:",
        ]
        lines += [f"  {c}" for c in report.checks]

    if args.family:
        q0 = family.block_residual(sample[0]).first(1)[0]
        q1 = family.block_residual(sample[-1]).first(1)[0]
        exceptions = {sample[0]: Fraction(q0)}
        if sample[-1] != sample[0]:
            exceptions[sample[-1]] = Fraction(1, q1)
    else:
        exceptions = {2: Fraction(3, 2), 5: Fraction(5)}
    twisted = make_aut(family, Identity(), exceptions)
    decision = is_bounded(twisted)
    iso = rank1_iso(pullback_rank1(twisted), pullback_rank1(make_aut(family, Identity())))
    cases.append(
        {
            "name": "finitely-many-twists",
            "aut": print_value(twisted),
            "bounded": _decision_dict(decision),
            "isomorphic_to_untwisted": iso.isomorphic,
            "multiplier": None if iso.multiplier is None else str(iso.multiplier),
        }
    )
    lines += [
        "",
        f"[finitely-many-twists] {print_value(twisted)}",
        f"  bounded with witness {decision.witness}",
        f"  isomorphic to the untwisted line by multiplication with {iso.multiplier}",
    ]

    if not finite:
        spread = make_aut(family, IndexPrimePower(-1))
        heights = pullback_rank1(spread)
        fg = is_finitely_generated(heights)
        cls = double_coset_class(spread)
        report = verify_localization_properties(spread, probe_block)
        cases.append(
            {
                "name": "all-blocks-spread",
                "aut": print_value(spread),
                "finitely_generated": fg,
                "class": str(cls),
                "localization_checks": _checks_list(report.checks),
            }
        )
        lines += [
            "",
            f"[all-blocks-spread] {print_value(spread)}",
            f"  finitely generated: {'yes' if fg else 'no'}",
            f"  class: {cls}",
            "  yet every block comparison is a genuine localization:",
        ]
        lines += [f"  {c}" for c in report.checks]
    elif not args.family:
        raise AssertionError("the default family is infinite")
    else:
        lines += ["", "finite family: only the bounded demonstration applies"]

    payload = {"command": "counterexample", "family": str(family), "cases": cases}
    return payload, lines


# ---------------------------------------------------------------- driver


def _add_source_arguments(parser):
    parser.add_argument("text", nargs="?", default=None, help="inline input value")
    parser.add_argument("--input", default=None, metavar="FILE", help="read input from FILE (- for stdin)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: ``parse_args`` returns a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--config", default=None, metavar="FILE")

    parser = argparse.ArgumentParser(
        prog="genuskit", description="localization and genus calculations at desk scale"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounded", parents=[common], help="boundedness of an aut(...)")
    _add_source_arguments(p)
    p.set_defaults(handler=_cmd_bounded)

    p = sub.add_parser("pullback", parents=[common], help="limit of an aut(...) or modpull(...)")
    _add_source_arguments(p)
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("genus", parents=[common], help="refine: module, module, core set")
    _add_source_arguments(p)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("extgenus", parents=[common], help="coarse class of an aut(...)")
    _add_source_arguments(p)
    p.set_defaults(handler=_cmd_extgenus)

    p = sub.add_parser("verify", parents=[common], help="run a randomized property suite")
    p.add_argument("suite", choices=SUITES)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "counterexample", parents=[common], help="twisted-line demonstrations"
    )
    p.add_argument("--family", default=None, help="override the default singletons(all,{})")
    p.set_defaults(handler=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        payload, lines = args.handler(args, config)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 4 if payload.get("failures") else 0


if __name__ == "__main__":
    raise SystemExit(main())
