"""Workload generators, operations and correctness gates.

Every input reaches genuskit as text in its own language, generated here
from the run's seed.  Round ``r`` of a workload is a fixed list of
operations derived from ``(seed, r)`` alone, and every round holds the same
mix of rungs.  A run's inputs are the first ``SET_ROUNDS`` rounds; the
runner repeats them in passes.

An operation returns its raw output; ``check`` runs afterwards, outside
the timed region, and returns (ok, reason, digest line, size).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd, lcm, log

from spans import word_nodes


class Workload:
    """A seeded sequence of rounds of operations."""

    SET_ROUNDS = 1

    def round(self, r: int) -> list:
        raise NotImplementedError

    def inputs(self) -> list:
        """The run's operations: rounds 0 .. SET_ROUNDS - 1."""
        return [op for r in range(self.SET_ROUNDS) for op in self.round(r)]


class Op:
    __slots__ = ("rung", "text", "data")

    def __init__(self, rung: str, text: str, data=None):
        self.rung = rung
        self.text = text
        self.data = data


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli(code: int, text: str):
    """Exit 0, empty failures and every certificate check passed."""
    if code != 0:
        return None, f"exit code {code}"
    try:
        payload = json.loads(text)
    except ValueError:
        return None, "output is not JSON"
    if payload.get("failures"):
        return None, f"failures: {payload['failures'][:3]}"
    for key, value in payload.items():
        if key.endswith("certificate") and not all(c["passed"] for c in value):
            return None, f"{key} has a failed check"
    return payload, ""


# ------------------------------------------------------------ modpull-ladder

_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _matrix_text(m) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in m) + "]"


def _unipotent(n: int, relation):
    """I + x^T r with r a relation row and x.r = 0.

    The image of every row moves by a multiple of r, so the relation span
    is preserved at every localization, and (x^T r)^2 = 0 keeps it
    unipotent.  x is the smallest such vector supported on two positions.
    """
    best = None
    for i in range(n):
        for j in range(n):
            if i != j and (relation[i] or relation[j]):
                g = gcd(relation[i], relation[j])
                xi, xj = relation[j] // g, -relation[i] // g
                cand = (abs(xi) + abs(xj), i, j, xi, xj)
                if best is None or cand < best:
                    best = cand
    u = [[int(a == b) for b in range(n)] for a in range(n)]
    if best is None:
        return u
    _, i, j, xi, xj = best
    for b in range(n):
        u[i][b] += xi * relation[b]
        u[j][b] += xj * relation[b]
    return u


class ModpullLadder(Workload):
    """Fracture square plus pullback of generated ``modpull`` values.

    One round holds one instance per cell: generators x blocks, relation
    count.  The core alternates between empty and one prime.  Block b's
    twist is diag(p^e) with e cycling through {-1, 0, 1}; on modules with a
    free part, every other instance also multiplies one twist by a
    unipotent factor.  Primes and relation entries are drawn from the seed.

    The relation count runs from half rank to full rank up to four
    generators, to one below full rank at 5x4 and to two below at 6x5.
    Beyond that the tail dominates a run: at 6x5, five relations take 1.4
    to 17 s (Smith-form coefficient growth) and six reach the 2**64
    primality limit (exit 2) in about one instance in twelve, as full rank
    does at 5x4 now and then.
    """

    name = "modpull-ladder"
    SET_ROUNDS = 4
    CELLS = (
        (3, 3, 2), (3, 3, 3),
        (4, 4, 2), (4, 4, 3), (4, 4, 4),
        (5, 4, 3), (5, 4, 4),
        (6, 5, 3), (6, 5, 4),
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.cli = None

    def bind(self, modules) -> None:
        self.cli = modules["cli"]

    def _instance(self, r: int, cell: int) -> Op:
        n, k, nrel = self.CELLS[cell]
        rng = _rng("modpull", self.seed, r, cell)
        with_core = (r + cell) % 2 == 1
        primes = rng.sample(_PRIME_POOL, k + int(with_core))
        core = sorted(primes[:1]) if with_core else []
        blocks = sorted(primes[int(with_core):])
        everything = sorted(primes)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(nrel)]
        while any(not any(row) for row in rows):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(nrel)]
        uni_block = r % k if nrel < n and (r + cell * (cell - 1) // 2) % 2 == 0 else -1
        twists = []
        for b, p in enumerate(blocks):
            scale = Fraction(p) ** ((b + r + cell) % 3 - 1)
            if b == uni_block:
                base = _unipotent(n, rows[rng.randrange(nrel)])
            else:
                base = [[int(a == c) for c in range(n)] for a in range(n)]
            twists.append(_matrix_text([[scale * x for x in row] for row in base]))

        def pset(ps):
            return "{" + ",".join(map(str, ps)) + "}"

        text = (
            f"modpull(module(T={pset(everything)}; gens={n}; rel={_matrix_text(rows)}); "
            f"singletons({pset(everything)}, {pset(core)}); " + ", ".join(twists) + ")"
        )
        return Op(f"{n}x{k}", text)

    def round(self, r: int):
        return [self._instance(r, cell) for cell in range(len(self.CELLS))]

    def run(self, op: Op):
        return _run_cli(self.cli, ["pullback", op.text, "--format", "json"])

    def check(self, op: Op, out):
        code, text = out
        payload, reason = _check_cli(code, text)
        if payload is None:
            return False, reason, text, 0
        if payload.get("kind") != "module":
            return False, "not a module pullback", text, 0
        return True, "", text, int(payload["level"]).bit_length()


# ------------------------------------------------------------ heis-ladder

# Heisenberg arithmetic on (a, b, c) triples, independent of the package.
def _hmul(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])


def _hinv(x):
    return (-x[0], -x[1], -x[2] + x[0] * x[1])


def _hpow(x, n: int):
    return (n * x[0], n * x[1], n * x[2] + (n * (n - 1) // 2) * x[0] * x[1])


def _ext_gcd(a: int, b: int):
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# Word shapes: (top-level length, tree nodes, is one plain leaf).
_EMPTY = (0, 0, False)
_LEAF = (1, 1, True)


def _shape_pow(w, n: int):
    if n == 0 or w[0] == 0:
        return _EMPTY
    if n == 1 or w[2]:
        return w
    return (1, 1 + w[1], False)


def _shape_cat(*ws):
    length = sum(w[0] for w in ws)
    return (length, sum(w[1] for w in ws), length == 1 and any(w[2] for w in ws))


def certificate_size(gens) -> int:
    """Tree size of the words a staircase reduction of ``gens`` produces.

    Runs the Euclidean reduction of the projection lattice, with each
    row operation applied as a group multiplication, and tracks only the
    shape of each word.  Returns the nodes of the central generator's word
    plus those of the projection basis words: the part of a membership
    certificate that grows with the number of Euclid steps.  The count is
    a property of the input, used to stratify the sample.
    """
    denom = 1
    for g in gens:
        denom = lcm(denom, g[0].denominator, g[1].denominator)
    rows = [[int(g[0] * denom), int(g[1] * denom)] for g in gens]
    lifts = [(g, _LEAF) for g in gens]
    r = 0
    for col in (0, 1):
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(rows[i][col]))
            rows[r], rows[best] = rows[best], rows[r]
            lifts[r], lifts[best] = lifts[best], lifts[r]
            clean = True
            for i in range(r + 1, len(rows)):
                if rows[i][col] == 0:
                    continue
                q = rows[i][col] // rows[r][col]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                (e, w), (oe, ow) = lifts[i], lifts[r]
                lifts[i] = (_hmul(e, _hpow(oe, -q)), _shape_cat(w, _shape_pow(ow, -q)))
                if rows[i][col] != 0:
                    clean = False
            if clean:
                break
        if r < len(rows) and rows[r][col] != 0:
            if rows[r][col] < 0:
                rows[r] = [-x for x in rows[r]]
                lifts[r] = (_hinv(lifts[r][0]), _shape_pow(lifts[r][1], -1))
            r += 1
    basis, central = lifts[:r], lifts[r:]
    center = [(e[2], w) for e, w in central if e[2] != 0]
    if r == 2:
        (u, uw), (v, vw) = basis
        comm = _hmul(_hmul(_hmul(_hinv(u), _hinv(v)), u), v)
        if comm[2] != 0:
            center.append((comm[2], _shape_cat(_shape_pow(uw, -1), _shape_pow(vw, -1), uw, vw)))
    value, word = Fraction(0), _EMPTY
    for c, w in center:
        if value == 0:
            value, word = abs(c), (w if c > 0 else _shape_pow(w, -1))
            continue
        q = lcm(value.denominator, c.denominator)
        g, x, y = _ext_gcd(int(value * q), int(c * q))
        value, word = Fraction(g, q), _shape_cat(_shape_pow(word, x), _shape_pow(w, y))
    return word[1] + sum(w[1] for _, w in basis)


class HeisLadder(Workload):
    """Construct a three-generator Heisenberg subgroup, then query it.

    Five rungs of entry magnitude, 10^1.5 .. 10^3 evenly in log.  All
    entries are multiples of k in {2, 3}, so every element of the subgroup
    has coordinates in k times the coordinate ring; that makes (a+1, b, c)
    a certain non-member off the projection lattice and (a, b, c+1) one
    off the central lattice.  One instance in four per rung and round
    lives over T = {2,3} with denominators 5 and 7; which one is fixed,
    not drawn, because those instances run slower for their size.

    Certificate size has a heavy tail (the blow-up): at 10^3 the median
    instance builds about 2.6k word nodes in a quarter second, the 95th
    percentile 33k nodes in four seconds.  A plain random sample of a few
    dozen instances per run would swing with every seed, so each round
    takes four instances per rung at fixed percentiles of that
    distribution: for each, ``CANDIDATES`` instances are drawn (four times
    as many above the 80th percentile, where sizes are sparse) and the one
    whose ``certificate_size`` is nearest the size at that percentile is
    kept.  The percentiles move every round along a golden-ratio sequence
    and together cover the 2nd to the 94th percentile of every rung.
    """

    name = "heis-ladder"
    SET_ROUNDS = 2
    RUNGS = (("1e1.5", 32), ("1e1.875", 75), ("1e2.25", 178), ("1e2.625", 422), ("1e3", 1000))
    # certificate_size at the percentiles PERCENTILES of 6000 draws of
    # ``_draw`` per rung, one in four of them local.
    PERCENTILES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98)
    SIZES = {
        "1e1.5": (5, 19, 28, 37, 47, 61, 74, 92, 121, 180, 317, 554, 1042),
        "1e1.875": (6, 38, 49, 74, 101, 134, 170, 227, 312, 448, 882, 1466, 2836),
        "1e2.25": (12, 74, 107, 165, 233, 319, 423, 601, 882, 1348, 2619, 4664, 8873),
        "1e2.625": (21, 142, 209, 351, 500, 707, 1010, 1437, 2063, 3231, 6568, 12056, 23206),
        "1e3": (23, 296, 455, 788, 1235, 1793, 2618, 3754, 5509, 9246, 18694, 33181, 66685),
    }
    PER_RUNG = 4
    CANDIDATES = 24
    SPAN = (0.02, 0.94)
    _GOLDEN = 0.6180339887498949

    def __init__(self, seed: int):
        self.seed = seed
        self.dsl = None
        self.evaluate_word = None

    @classmethod
    def target_size(cls, label: str, u: float) -> float:
        """Size at percentile u, interpolated log-linearly in the table."""
        sizes, us = cls.SIZES[label], cls.PERCENTILES
        i = max(j for j in range(len(us) - 1) if us[j] <= u)
        t = (u - us[i]) / (us[i + 1] - us[i])
        return sizes[i] * (sizes[i + 1] / sizes[i]) ** t

    def _instance(self, r: int, rung: int, j: int):
        label, magnitude = self.RUNGS[rung]
        lo, hi = self.SPAN
        shift = ((r + 1) * self._GOLDEN + (j + rung) / self.PER_RUNG) % 1.0
        u = lo + (hi - lo) * (j + shift) / self.PER_RUNG
        target = self.target_size(label, u)
        rng = _rng("heis", self.seed, label, r, j)
        local = (r + rung + j) % self.PER_RUNG == 0
        best = None
        for _ in range(self.CANDIDATES * (4 if u > 0.8 else 1)):
            gens, primes = self._draw(rng, magnitude, local)
            miss = abs(log(max(certificate_size(gens), 1) / target))
            if best is None or miss < best[0]:
                best = (miss, gens, primes)
        return best[1], best[2], rng

    @staticmethod
    def _draw(rng, magnitude: int, local: bool):
        k = rng.choice((2, 3))

        def coord():
            x = k * rng.randint(-magnitude // k, magnitude // k)
            return Fraction(x, rng.choice((1, 5, 7))) if local else x

        gens = [(coord(), coord(), coord()) for _ in range(3)]
        return gens, ("{2,3}" if local else "all")

    def bind(self, modules) -> None:
        self.dsl = modules["dsl"]
        self.evaluate_word = modules["heis"].evaluate_word

    @staticmethod
    def _element_text(primes: str, x) -> str:
        return f"heis(T={primes}; {x[0]},{x[1]},{x[2]})"

    def round(self, r: int):
        ops = []
        for rung, (label, _) in enumerate(self.RUNGS):
            for j in range(self.PER_RUNG):
                gens, primes, rng = self._instance(r, rung, j)
                member = (0, 0, 0)
                for _ in range(rng.randint(3, 5)):
                    member = _hmul(member, _hpow(rng.choice(gens), rng.choice((-2, -1, 1, 2))))
                queries = (
                    member,
                    (member[0] + 1, member[1], member[2]),
                    (member[0], member[1], member[2] + 1),
                )
                text = "subgroup(" + ", ".join(self._element_text(primes, g) for g in gens) + ")"
                ops.append(Op(label, text, tuple(self._element_text(primes, q) for q in queries)))
        return ops

    def run(self, op: Op):
        read = self.dsl.read_value
        sub = read(op.text)
        elements = [read(t) for t in op.data]
        return sub, elements, [sub.membership(g) for g in elements]

    def check(self, op: Op, out):
        sub, elements, answers = out
        member, off_projection, off_center = answers
        if not member.member:
            return False, "a product of generators was reported a non-member", "", 0
        replay = self.evaluate_word(sub.generators, member.word, sub.primes)
        if replay != elements[0]:
            return False, "the member certificate does not replay to the element", "", 0
        if off_projection.member or off_center.member:
            return False, "a non-member was reported a member", "", 0
        nodes = word_nodes(member.word, {})
        line = "|".join(
            str(x)
            for x in (
                sub, sub.rank, sub.center_generator, member.exponents, member.central_exponent,
                nodes, off_projection.reason, off_center.reason,
            )
        )
        return True, "", line, nodes


# ------------------------------------------------------------ cli-mix

SUITES = ("111", "112", "124", "142", "143", "144", "145", "pi-mono")

# The README examples, with the fields that pin their documented answers.
ONE_SHOTS = (
    (
        "bounded",
        "aut(singletons(all, {}); tail=id; 2 -> 3/2, 5 -> 5)",
        lambda p: p["bounded"]["witness"] == "10" and p["bounded_above"]["witness"] == "5",
    ),
    (
        "pullback-aut",
        "aut(singletons(all, {}); tail=p^-1)",
        lambda p: p["finitely_generated"] is False and p["heights"] == "heights(default -1)",
    ),
    (
        "pullback-modpull",
        "modpull(module(T={2,3}; rel=[[4,0]]); blocks({2,3}, {}; {2}, {3}); "
        "[[1/2,0],[0,1]], [[3,0],[0,1]])",
        lambda p: p["iso_class"] == {"free_rank": 1, "torsion": [[2, 2]]} and p["level"] == 442368,
    ),
    (
        "genus",
        "module(T={2,3}; rel=[[4,0]]), module(T={2,3}; rel=[[0,4]]), {}",
        lambda p: p["witness_iso_class"] == {"free_rank": 1, "torsion": [[2, 2], [2, 2]]},
    ),
    (
        "extgenus",
        "aut(singletons(all, {}); tail=p^-1)",
        lambda p: p["tail_exponent"] == -1,
    ),
    (
        "counterexample",
        None,
        lambda p: [c["name"] for c in p["cases"]]
        == ["all-blocks-deepen", "finitely-many-twists", "all-blocks-spread"]
        and p["cases"][1]["isomorphic_to_untwisted"] is True
        and p["cases"][1]["multiplier"] == "5/2",
    ),
)


class CliMix(Workload):
    """One round: the eight verify suites and the README one-shots.

    Suites run at their default sample counts with seed = run seed + round.
    The one-shots run three times per round, between the suites, so that
    they are most of the operations and weigh most in the geometric mean,
    while the slow suites set throughput and the 90th percentile.
    """

    name = "cli-mix"
    SET_ROUNDS = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.cli = None
        self.expect = {name: pin for name, _, pin in ONE_SHOTS}

    def bind(self, modules) -> None:
        self.cli = modules["cli"]

    def round(self, r: int):
        shots = []
        for name, text, _ in ONE_SHOTS:
            command = name.split("-")[0]
            argv = [command] + ([text] if text is not None else []) + ["--format", "json"]
            shots.append(Op(name, " ".join(argv), argv))
        suites = [
            Op(f"verify-{s}", f"verify {s} --seed {self.seed + r}",
               ["verify", s, "--seed", str(self.seed + r), "--format", "json"])
            for s in SUITES
        ]
        return shots + suites[:4] + shots + suites[4:] + shots

    def run(self, op: Op):
        return _run_cli(self.cli, op.data)

    def check(self, op: Op, out):
        code, text = out
        payload, reason = _check_cli(code, text)
        if payload is None:
            return False, reason, text, 0
        pin = self.expect.get(op.rung)
        if pin is not None and not pin(payload):
            return False, "answer differs from the documented one", text, 0
        return True, "", text, 0


WORKLOADS = {w.name: w for w in (ModpullLadder, HeisLadder, CliMix)}
