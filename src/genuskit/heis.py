"""Integral Heisenberg groups with localized coordinates.

Elements are upper unitriangular 3x3 matrices stored as coordinate
triples (a, b, c) over the integers localized at a prime set T, with the
multiplication (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab').  The group is
nilpotent of class 2: commutators land in the center {(0,0,c)} and the
cross product of the two projections measures them exactly.

Finitely generated subgroups are tamed by a staircase reduction of the
projection lattice that performs every row operation as an honest group
multiplication, so each reduced row arrives with a word in the original
generators.  Membership then splits into an integer lattice solve for the
projection and a divisibility test against the cyclic central lattice,
and positive answers carry a word certificate that re-multiplies to the
queried element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import Check, VerificationError
from .primeset import PrimeSet, factorize, is_x_number


def _check_coordinate(value: Fraction, primes: PrimeSet) -> Fraction:
    value = Fraction(value)
    if not is_x_number(value.denominator, primes):
        raise ValueError(f"coordinate {value} has a denominator visible at {primes}")
    return value


@dataclass(frozen=True)
class HeisElement:
    primes: PrimeSet
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _check_coordinate(self.a, self.primes))
        object.__setattr__(self, "b", _check_coordinate(self.b, self.primes))
        object.__setattr__(self, "c", _check_coordinate(self.c, self.primes))

    @classmethod
    def identity(cls, primes: PrimeSet) -> "HeisElement":
        return cls(primes, Fraction(0), Fraction(0), Fraction(0))

    def __mul__(self, other: "HeisElement") -> "HeisElement":
        if self.primes != other.primes:
            raise ValueError("elements live over different prime sets")
        return HeisElement(
            self.primes,
            self.a + other.a,
            self.b + other.b,
            self.c + other.c + self.a * other.b,
        )

    def inverse(self) -> "HeisElement":
        return HeisElement(self.primes, -self.a, -self.b, -self.c + self.a * self.b)

    def __pow__(self, n: int) -> "HeisElement":
        n = int(n)
        half = n * (n - 1) // 2
        return HeisElement(self.primes, n * self.a, n * self.b, n * self.c + half * self.a * self.b)

    @property
    def is_central(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def localize(self, sub: PrimeSet) -> "HeisElement":
        if not sub.issubset(self.primes):
            raise ValueError(f"{sub} is not contained in {self.primes}")
        return HeisElement(sub, self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"heis(T={self.primes}; {self.a},{self.b},{self.c})"

    __repr__ = __str__


def commutator(x: HeisElement, y: HeisElement) -> HeisElement:
    return x.inverse() * y.inverse() * x * y


Word = tuple  # of (generator index, exponent) leaves and ("pow", word, n) nodes


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
    out = HeisElement.identity(primes)
    for item in word:
        if item[0] == "pow":
            _, sub, n = item
            out = out * (evaluate_word(generators, sub, primes) ** n)
        else:
            idx, exp = item
            out = out * (generators[idx] ** exp)
    return out


@dataclass(frozen=True)
class _Lift:
    element: HeisElement
    word: Word

    def times(self, other: "_Lift", exp: int) -> "_Lift":
        return _Lift(self.element * (other.element**exp), self.word + _word_pow(other.word, exp))

    def inverse(self) -> "_Lift":
        return _Lift(self.element.inverse(), _word_pow(self.word, -1))


def _ext_gcd(a: int, b: int):
    """(g, x, y) with a*x + b*y == g and g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


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

    The projection lattice keeps lifted generators U (and V) whose words
    are tracked through the reduction; the intersection with the center is
    the cyclic lattice spanned by the leftover central lifts together with
    the commutator of U and V.
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
        denom = 1
        for g in self.generators:
            denom = lcm(denom, lcm(g.a.denominator, g.b.denominator))
        self._denom = denom
        rows = [[int(g.a * denom), int(g.b * denom)] for g in self.generators]
        lifts = [_Lift(g, ((i, 1),)) for i, g in enumerate(self.generators)]

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
                    lifts[i] = lifts[i].times(lifts[r], -q)
                    if rows[i][col] != 0:
                        clean = False
                if clean:
                    break
            if r < len(rows) and rows[r][col] != 0:
                if rows[r][col] < 0:
                    rows[r] = [-x for x in rows[r]]
                    lifts[r] = lifts[r].inverse()
                r += 1

        self._rank = r
        self._rows = [rows[i] for i in range(r)]
        self._basis = [lifts[i] for i in range(r)]
        central = [lifts[i] for i in range(r, len(rows))]
        for lift in central:
            assert lift.element.is_central

        center_gens = [(lift.element.c, lift.word) for lift in central if lift.element.c != 0]
        if r == 2:
            u, v = self._basis
            comm = commutator(u.element, v.element)
            if comm.c != 0:
                word = (
                    _word_pow(u.word, -1)
                    + _word_pow(v.word, -1)
                    + u.word
                    + v.word
                )
                center_gens.append((comm.c, word))

        gen_value = Fraction(0)
        gen_word: Word = ()
        for value, word in center_gens:
            if gen_value == 0:
                gen_value, gen_word = abs(value), word if value > 0 else _word_pow(word, -1)
                continue
            q = lcm(gen_value.denominator, value.denominator)
            g, x, y = _ext_gcd(int(gen_value * q), int(value * q))
            combined = _word_pow(gen_word, x) + _word_pow(word, y)
            gen_value, gen_word = Fraction(g, q), combined
        self._center_value = gen_value
        self._center_word = gen_word

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def center_generator(self) -> Fraction:
        """Nonnegative generator of the subgroup's central lattice."""
        return self._center_value

    def basis_elements(self):
        return tuple(lift.element for lift in self._basis)

    def _solve_projection(self, a: Fraction, b: Fraction):
        target = [a * self._denom, b * self._denom]
        exps = []
        for i in range(self._rank):
            col = 0 if self._rows[i][0] != 0 else 1
            # rows form a staircase, so earlier pivots sit in earlier columns
            coeff = Fraction(target[col], self._rows[i][col])
            if coeff.denominator != 1:
                return None
            exps.append(int(coeff))
            target = [t - int(coeff) * x for t, x in zip(target, self._rows[i])]
        if any(target):
            return None
        return exps + [0] * (2 - self._rank)

    def membership(self, g: HeisElement) -> Membership:
        if g.primes != self.primes:
            raise ValueError("element lives over the wrong prime set")
        solved = self._solve_projection(g.a, g.b)
        if solved is None:
            return Membership(False, None, None, None, None,
                              "projection is outside the generator lattice")
        alpha, beta = solved
        base = HeisElement.identity(self.primes)
        word: Word = ()
        if self._rank >= 1:
            base = self._basis[0].element ** alpha
            word = _word_pow(self._basis[0].word, alpha)
        if self._rank == 2:
            base = base * (self._basis[1].element ** beta)
            word = word + _word_pow(self._basis[1].word, beta)
        offset = g.c - base.c

        if offset == 0:
            k = 0
        elif self._center_value == 0:
            return Membership(False, (alpha, beta), offset, None, None,
                              "central offset in a trivial central lattice")
        else:
            ratio = offset / self._center_value
            if ratio.denominator != 1:
                return Membership(False, (alpha, beta), offset, None, None,
                                  f"central offset {offset} is not a multiple of "
                                  f"{self._center_value}")
            k = int(ratio)
        word = word + _word_pow(self._center_word, k)
        return Membership(True, (alpha, beta), offset, k, word, "member")

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
        for g in gamma.generators:
            assert g.is_central
    series.append(HeisSubgroup(h.primes, ()))
    assert len(series) <= 3
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
        return "\n".join(
            f"[{'ok' if c.passed else 'FAIL'}] {c.name}: {c.witness}" for c in self.checks
        )


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
        assert root**u == g
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
