"""Integral Heisenberg groups with localized coordinates.

Elements are upper unitriangular 3x3 matrices, read as coordinate
triples (a, b, c) over the integers localized at a prime set T, with the
multiplication (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab').  The group is
nilpotent of class 2: commutators land in the center {(0,0,c)} and the
cross product of the two projections measures them exactly.

An element is stored as integer exponent coordinates (A, B, C) over one
scale d with no prime factor in T, so that (a, b, c) = (A/d, B/d, C/d^2).
The map (a, b, c) -> (d a, d b, d^2 c) is a homomorphism into the integer
Heisenberg group, so products, inverses and powers are integer formulas
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 8).

Finitely generated subgroups are reduced through the Hermite transform of
their projection lattice.  With U P = [H; 0] for the projection rows P,
row i of U lists the exponent of each generator in a lift of row i, so
every lift is a flat word in the original generators.  The lifts past the
rank are central; together with the commutator of the two basis lifts
they span the cyclic central lattice, whose generator and Bezout word come
from the Hermite transform of their central values.  Membership then
splits into back substitution down H for the projection and a
divisibility test against the central generator, and positive answers
carry a word certificate that re-multiplies to the queried element.

A certificate is a power of each basis lift followed by a power of the
central generator's word, so its size does not grow with the entries.
Power nodes hold their sub-words by reference, and ``evaluate_word``
replays each distinct sub-word once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import Check, VerificationError
from .intlinalg import hnf_with_transform, row_span_solve
from .primeset import PrimeSet, factorize, is_x_number


def _check_coordinate(value: Fraction, primes: PrimeSet) -> Fraction:
    value = Fraction(value)
    if not is_x_number(value.denominator, primes):
        raise ValueError(f"coordinate {value} has a denominator visible at {primes}")
    return value


class HeisElement:
    """An element (A/d, B/d, C/d^2) of the Heisenberg group over T.

    Two elements at one scale multiply as (A+A', B+B', C+C'+AB'); at
    different scales both are first brought to the lcm of the two.  Every
    construction certifies the scale with ``is_x_number``, and the public
    constructor checks each coordinate.  ``a``, ``b`` and ``c`` read the
    coordinates as ``Fraction``s; equality and hashing follow them, whatever
    the scales.
    """

    __slots__ = ("_primes", "_d", "_A", "_B", "_C")

    def __init__(self, primes: PrimeSet, a, b, c):
        a, b, c = (_check_coordinate(x, primes) for x in (a, b, c))
        d = lcm(a.denominator, b.denominator, c.denominator)
        self._set(primes, d, a.numerator * (d // a.denominator),
                  b.numerator * (d // b.denominator), c.numerator * (d * d // c.denominator))

    def _set(self, primes: PrimeSet, d: int, A: int, B: int, C: int) -> None:
        if not is_x_number(d, primes):
            raise VerificationError(f"scale {d} is visible at {primes}")
        self._primes, self._d, self._A, self._B, self._C = primes, d, A, B, C

    @classmethod
    def _scaled(cls, primes: PrimeSet, d: int, A: int, B: int, C: int) -> "HeisElement":
        g = object.__new__(cls)
        g._set(primes, d, A, B, C)
        return g

    @classmethod
    def identity(cls, primes: PrimeSet) -> "HeisElement":
        return cls._scaled(primes, 1, 0, 0, 0)

    primes = property(lambda self: self._primes)
    a = property(lambda self: Fraction(self._A, self._d))
    b = property(lambda self: Fraction(self._B, self._d))
    c = property(lambda self: Fraction(self._C, self._d**2))

    def __mul__(self, other: "HeisElement") -> "HeisElement":
        if self._primes != other._primes:
            raise ValueError("elements live over different prime sets")
        d, A, B, C = self._d, self._A, self._B, self._C
        e, A2, B2, C2 = other._d, other._A, other._B, other._C
        if d != e:
            m = lcm(d, e)
            s, t = m // d, m // e
            d, A, B, C, A2, B2, C2 = m, s * A, s * B, s * s * C, t * A2, t * B2, t * t * C2
        return HeisElement._scaled(self._primes, d, A + A2, B + B2, C + C2 + A * B2)

    def inverse(self) -> "HeisElement":
        A, B = self._A, self._B
        return HeisElement._scaled(self._primes, self._d, -A, -B, A * B - self._C)

    def __pow__(self, n: int) -> "HeisElement":
        n = int(n)
        A, B = self._A, self._B
        return HeisElement._scaled(
            self._primes, self._d, n * A, n * B, n * self._C + (n * (n - 1) // 2) * A * B
        )

    @property
    def is_central(self) -> bool:
        return self._A == 0 and self._B == 0

    def is_identity(self) -> bool:
        return self._A == 0 and self._B == 0 and self._C == 0

    def localize(self, sub: PrimeSet) -> "HeisElement":
        if not sub.issubset(self._primes):
            raise ValueError(f"{sub} is not contained in {self._primes}")
        return HeisElement._scaled(sub, self._d, self._A, self._B, self._C)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeisElement):
            return NotImplemented
        d, e = self._d, other._d
        return (self._primes == other._primes and self._A * e == other._A * d
                and self._B * e == other._B * d and self._C * e * e == other._C * d * d)

    def __hash__(self):
        return hash((self._primes, self.a, self.b, self.c))

    def __str__(self) -> str:
        return f"heis(T={self.primes}; {self.a},{self.b},{self.c})"

    __repr__ = __str__


def commutator(x: HeisElement, y: HeisElement) -> HeisElement:
    return x.inverse() * y.inverse() * x * y


# A word is a tuple of (generator index, exponent) leaves and ("pow", word, n)
# nodes.  The lifts of a subgroup are flat words, one leaf per generator with
# a nonzero exponent in a row of the Hermite transform; certificates wrap
# those lifts in power nodes.  Power nodes hold their sub-word by reference,
# so words share sub-tuples and form a DAG rather than a tree.
Word = tuple


def _word_pow(word: Word, n: int) -> Word:
    if n == 0 or not word:
        return ()
    if n == 1:
        return word
    if len(word) == 1 and word[0][0] != "pow":
        idx, exp = word[0]
        return ((idx, exp * n),)
    return (("pow", word, n),)


def evaluate_word(generators, word: Word, primes: PrimeSet) -> HeisElement:
    """Multiply a word out, evaluating each distinct sub-word once.

    Every tuple reachable from ``word`` stays alive during the call, so
    ``id`` identifies sub-words uniquely.  Keying by the tuple itself would
    hash it, and tuple hashes are not cached, so each lookup would walk the
    expanded tree again.
    """
    memo: dict[int, HeisElement] = {}

    def walk(w: Word) -> HeisElement:
        done = memo.get(id(w))
        if done is not None:
            return done
        out = HeisElement.identity(primes)
        for item in w:
            if item[0] == "pow":
                _, sub, n = item
                out = out * (walk(sub) ** n)
            else:
                idx, exp = item
                out = out * (generators[idx] ** exp)
        memo[id(w)] = out
        return out

    return walk(word)


@dataclass
class Membership:
    member: bool
    exponents: tuple | None
    offset: Fraction | None
    central_exponent: int | None
    word: Word | None
    reason: str

    def __bool__(self) -> bool:
        return self.member


class HeisSubgroup:
    """Subgroup generated by finitely many elements, with certificates.

    The Hermite form H of the projection rows (scaled to integers) is the
    projection basis, and each row of its transform lifts to a flat
    exponent word: the first rank rows lift the basis, the rest lift to
    central elements.  The intersection with the center is the cyclic
    lattice spanned by those central lifts and the commutator of the two
    basis lifts.
    """

    def __init__(self, primes: PrimeSet, generators):
        self.primes = primes
        self.generators = tuple(generators)
        for g in self.generators:
            if g.primes != primes:
                raise ValueError("generator lives over the wrong prime set")
        self._reduce()
        for idx, g in enumerate(self.generators):
            cert = self.membership(g)
            if not cert or evaluate_word(self.generators, cert.word, primes) != g:
                raise VerificationError(f"generator {idx} failed its own membership round trip")

    def _reduce(self):
        gens, primes = self.generators, self.primes
        self._denom = lcm(1, *(lcm(g.a.denominator, g.b.denominator) for g in gens))
        rows = [[int(g.a * self._denom), int(g.b * self._denom)] for g in gens]
        self._rows, transform = hnf_with_transform(rows)
        r = len(self._rows)
        # row i of the transform holds the exponents of the lift of row i
        words = [tuple((k, e) for k, e in enumerate(row) if e) for row in transform]
        lifts = [(evaluate_word(gens, word, primes), word) for word in words]
        self._basis = lifts[:r]
        for i, (element, _) in enumerate(lifts[r:], start=r):
            if not element.is_central:
                raise VerificationError(
                    f"lift {i} ({element}) left the Hermite transform with a nonzero projection"
                )

        center_gens = [(element.c, word) for element, word in lifts[r:] if element.c != 0]
        if r == 2:
            (u, uw), (v, vw) = self._basis
            comm = commutator(u, v)
            if comm.c != 0:
                center_gens.append((comm.c, _word_pow(uw, -1) + _word_pow(vw, -1) + uw + vw))

        # the central lattice is cyclic: its Hermite form is one generator,
        # and the transform's first row is the Bezout word for it
        q = lcm(1, *(value.denominator for value, _ in center_gens))
        column, bezout = hnf_with_transform([[int(value * q)] for value, _ in center_gens])
        self._center_value, self._center_word = Fraction(0), ()
        if column:
            self._center_value = Fraction(column[0][0], q)
            for (_, word), n in zip(center_gens, bezout[0]):
                self._center_word += _word_pow(word, n)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def center_generator(self) -> Fraction:
        """Nonnegative generator of the subgroup's central lattice."""
        return self._center_value

    def basis_elements(self):
        return tuple(element for element, _ in self._basis)

    def _solve_projection(self, a: Fraction, b: Fraction):
        target = (a * self._denom, b * self._denom)
        if any(t.denominator != 1 for t in target):
            return None
        exps = row_span_solve(self._rows, [int(t) for t in target])
        return None if exps is None else exps + [0] * (2 - self.rank)

    def membership(self, g: HeisElement) -> Membership:
        if g.primes != self.primes:
            raise ValueError("element lives over the wrong prime set")
        solved = self._solve_projection(g.a, g.b)
        if solved is None:
            return Membership(False, None, None, None, None,
                              "projection is outside the generator lattice")
        exps = tuple(solved)
        base, word = HeisElement.identity(self.primes), ()
        for (element, lift), n in zip(self._basis, exps):
            base = base * element**n
            word += _word_pow(lift, n)
        offset = g.c - base.c

        if offset == 0:
            k = 0
        elif self._center_value == 0:
            return Membership(False, exps, offset, None, None,
                              "central offset in a trivial central lattice")
        else:
            ratio = offset / self._center_value
            if ratio.denominator != 1:
                return Membership(False, exps, offset, None, None,
                                  f"central offset {offset} is not a multiple of "
                                  f"{self._center_value}")
            k = int(ratio)
        word = word + _word_pow(self._center_word, k)
        return Membership(True, exps, offset, k, word, "member")

    def __contains__(self, g: HeisElement) -> bool:
        return self.membership(g).member

    def localize(self, sub: PrimeSet) -> "HeisSubgroup":
        return HeisSubgroup(sub, [g.localize(sub) for g in self.generators])

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeisSubgroup):
            return NotImplemented
        return self.primes == other.primes and self.generators == other.generators

    def __hash__(self):
        return hash((self.primes, self.generators))

    def __str__(self) -> str:
        return "subgroup(" + ", ".join(str(g) for g in self.generators) + ")"

    __repr__ = __str__


def lower_central_series(h: HeisSubgroup):
    """[H, [H,H], ...] down to the trivial subgroup; class 2 caps the length."""
    series = [h]
    gens = list(h.generators)
    comms = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = commutator(gens[i], gens[j])
            if not c.is_identity():
                comms.append(c)
    if comms:
        gamma = HeisSubgroup(h.primes, comms)
        series.append(gamma)
        # every commutator is central, so the next step collapses
        for i, g in enumerate(gamma.generators):
            if not g.is_central:
                raise VerificationError(f"commutator generator {i} ({g}) is not central")
    series.append(HeisSubgroup(h.primes, ()))
    if len(series) > 3:
        raise VerificationError(
            f"lower central series of {h} has {len(series)} terms, class 2 allows 3"
        )
    return series


@dataclass
class PowerClosureReport:
    s: int
    nilpotency_class: int
    exponent_bound: int
    samples: int
    tightness: dict
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [
            f"s = {self.s}, class {self.nilpotency_class}, "
            f"exponent bound {self.exponent_bound}, {self.samples} samples"
        ]
        for e in sorted(self.tightness):
            lines.append(f"  power s^{e}: {self.tightness[e]} words")
        if self.violations:
            lines.append(f"  VIOLATIONS: {len(self.violations)}")
            lines.extend(f"    {v}" for v in self.violations[:5])
        else:
            lines.append("  no violations")
        return "\n".join(lines)


def power_closure_check(
    probes,
    subgroup: HeisSubgroup,
    s: int,
    samples: int = 500,
    max_len: int = 8,
    seed: int = 0,
) -> PowerClosureReport:
    """Push words through s-th powers until they fall into the subgroup.

    Checks the hypothesis that every probe's s-th power is a member, then
    samples words in the probes and records the least e with word^(s^e)
    inside; nilpotency class c promises e <= c(c+1)/2, so any word needing
    more is a violation.  The histogram exposes how tight the bound runs.
    """
    probes = list(probes)
    if s < 1:
        raise ValueError("the power must be a positive integer")
    if not probes:
        raise ValueError("need at least one probe element")
    for a in probes:
        if not subgroup.membership(a**s):
            raise VerificationError(f"hypothesis fails: {a}^{s} is outside the subgroup")

    pool = probes + list(subgroup.generators)
    abelian = all(
        commutator(x, y).is_identity() for i, x in enumerate(pool) for y in pool[i + 1 :]
    )
    c = 1 if abelian else 2
    d = c * (c + 1) // 2

    words = list(probes)
    for i, x in enumerate(probes):
        for y in probes[i + 1 :]:
            words.extend([x * y, y * x, commutator(x, y)])
    rng = random.Random(seed)
    while len(words) < samples:
        g = HeisElement.identity(subgroup.primes)
        for _ in range(rng.randint(1, max_len)):
            g = g * (rng.choice(probes) ** rng.choice([-1, 1]))
        words.append(g)
    words = words[:samples]

    tightness: dict[int, int] = {}
    violations = []
    for g in words:
        found = None
        for e in range(1, d + 1):
            if subgroup.membership(g ** (s**e)):
                found = e
                break
        if found is None:
            violations.append(f"{g} escapes through s^{d}")
        else:
            tightness[found] = tightness.get(found, 0) + 1
    return PowerClosureReport(s, c, d, len(words), tightness, tuple(violations))


def _divisors(n: int):
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def minimal_power_into(subgroup: HeisSubgroup, y: HeisElement, through: int) -> int:
    """Least divisor t of ``through`` with y^t in the subgroup.

    Any exponent landing y inside shares its gcd with ``through`` as a
    witness, so divisors are the only candidates.  The projection lattice
    gives a lower bound; the twisted center coordinate (tc plus the
    binomial cross term) can push past it, so candidates are verified in
    order and bumped until one sticks.
    """
    if through < 1:
        raise ValueError("the probe exponent must be positive")
    cands = _divisors(through)
    start = 0
    for i, t in enumerate(cands):
        if subgroup._solve_projection(t * y.a, t * y.b) is not None:
            start = i
            break
    for t in cands[start:]:
        if subgroup.membership(y**t):
            return t
    raise VerificationError(f"{y}^{through} never entered the subgroup")


@dataclass
class LocalizeHeisReport:
    checks: tuple

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def localize_subgroup(
    h: HeisSubgroup, sub: PrimeSet, samples: int = 6, seed: int = 0
) -> tuple[HeisSubgroup, LocalizeHeisReport]:
    """Re-tag a subgroup over a smaller prime set and certify the move.

    Coordinates are unchanged, so the comparison map is injective on the
    nose.  For the other direction the report manufactures elements one
    level deeper (exact roots at newly invertible primes) and exhibits the
    minimal power pulling each back into the image.
    """
    local = h.localize(sub)
    checks = [
        Check(
            "kernel-trivial",
            True,
            "coordinates are preserved, so the re-tagging map is injective",
        )
    ]
    fresh = [p for p in h.primes.first(6) if not sub._contains_known_prime(p)]
    if not fresh or not h.generators:
        return local, LocalizeHeisReport(tuple(checks))

    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < samples and attempts < samples * 20:
        attempts += 1
        g = HeisElement.identity(sub)
        for _ in range(rng.randint(1, 4)):
            idx = rng.randrange(len(h.generators))
            g = g * (local.generators[idx] ** rng.choice([-1, 1]))
        u = rng.choice(fresh) ** rng.randint(1, 2)
        a, b = g.a / u, g.b / u
        c = (g.c - Fraction(u * (u - 1), 2) * a * b) / u
        try:
            root = HeisElement(sub, a, b, c)
        except ValueError:
            continue  # the exact root needs a denominator the core still sees
        if root**u != g:
            raise VerificationError(f"sampled root {root} does not raise to {g} at the power {u}")
        t = minimal_power_into(local, root, u)
        checks.append(
            Check(
                "surjective-up-to-core-units",
                True,
                f"t = {t} raises the sampled {u}-th root {root} into the image",
            )
        )
        produced += 1
    return local, LocalizeHeisReport(tuple(checks))
