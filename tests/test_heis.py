import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

from genuskit.dsl import print_value, read_value
from genuskit.errors import VerificationError
from genuskit.heis import (
    HeisElement,
    HeisSubgroup,
    _word_pow,
    commutator,
    evaluate_word,
    localize_subgroup,
    lower_central_series,
    minimal_power_into,
    power_closure_check,
)
from genuskit.primeset import ALL_PRIMES, PrimeSet

T23 = PrimeSet.finite([2, 3])
T3 = PrimeSet.finite([3])


def el(a, b, c, primes=ALL_PRIMES):
    return HeisElement(primes, Fraction(a), Fraction(b), Fraction(c))


def random_element(rng, primes=T23):
    def coord():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 5, 7]))

    return HeisElement(primes, coord(), coord(), coord())


class TestElement:
    def test_identity_and_inverse(self):
        rng = random.Random(11)
        e = HeisElement.identity(T23)
        for _ in range(30):
            g = random_element(rng)
            assert g * e == g and e * g == g
            assert g * g.inverse() == e
            assert g.inverse() * g == e

    def test_associativity(self):
        rng = random.Random(12)
        for _ in range(40):
            x, y, z = (random_element(rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_pow_matches_repeated_product(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_element(rng)
            acc = HeisElement.identity(T23)
            for n in range(6):
                assert g**n == acc
                assert g**-n == acc.inverse()
                acc = acc * g

    def test_commutator_is_central_cross_product(self):
        rng = random.Random(14)
        for _ in range(30):
            x, y = random_element(rng), random_element(rng)
            c = commutator(x, y)
            assert c.is_central
            assert c.c == x.a * y.b - y.a * x.b

    def test_central_detection(self):
        assert el(0, 0, 7).is_central
        assert not el(1, 0, 0).is_central

    def test_denominator_must_avoid_the_prime_set(self):
        with pytest.raises(ValueError):
            HeisElement(T23, Fraction(1, 2), Fraction(0), Fraction(0))
        HeisElement(T23, Fraction(1, 5), Fraction(0), Fraction(0))

    def test_mixed_prime_sets_refuse_to_multiply(self):
        with pytest.raises(ValueError):
            el(1, 0, 0, T23) * el(0, 1, 0, ALL_PRIMES)

    def test_localize_retags(self):
        g = el(1, 2, 3, T23)
        assert g.localize(T3).primes == T3
        with pytest.raises(ValueError):
            g.localize(PrimeSet.finite([7]))

    def test_str_is_canonical(self):
        assert str(el(1, 0, Fraction(-1, 5), T23)) == "heis(T={2,3}; 1,0,-1/5)"


class FractionTriple:
    """Reference element: three ``Fraction`` coordinates and the textbook product."""

    def __init__(self, a, b, c):
        self.coords = (Fraction(a), Fraction(b), Fraction(c))

    def __mul__(self, other):
        (a, b, c), (x, y, z) = self.coords, other.coords
        return FractionTriple(a + x, b + y, c + z + a * y)

    def inverse(self):
        a, b, c = self.coords
        return FractionTriple(-a, -b, -c + a * b)

    def __pow__(self, n):
        # square and multiply, independent of the closed form under test
        base = self if n >= 0 else self.inverse()
        out = FractionTriple(0, 0, 0)
        for bit in bin(abs(n))[2:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out


def matches(g, ref):
    return (g.a, g.b, g.c) == ref.coords


class TestAgainstFractionTriples:
    """The integer-triple element against the ``Fraction`` reference."""

    @staticmethod
    def instance(rng):
        if rng.random() < 0.5:
            primes, dens = T23, (1, 5, 7, 35)
        else:
            primes, dens = ALL_PRIMES, (1,)

        def coord():
            return Fraction(rng.randint(-40, 40), rng.choice(dens))

        coords = [(coord(), coord(), coord()) for _ in range(2)]
        return primes, [HeisElement(primes, *c) for c in coords], [FractionTriple(*c) for c in coords]

    def test_seeded_elements_agree(self):
        rng = random.Random(909)
        scales = set()
        for _ in range(300):
            primes, (x, y), (rx, ry) = self.instance(rng)
            scales.add((x._d, y._d))
            assert matches(x * y, rx * ry)
            assert matches(y * x, ry * rx)
            assert matches(x.inverse(), rx.inverse())
            for n in range(-5, 6):
                assert matches(x**n, rx**n)
            big = rng.choice([-1, 1]) * rng.randint(10**6 + 1, 10**7)
            assert matches(x**big, rx**big)
            assert matches((x * y) ** -3 * y, (rx * ry) ** -3 * ry)
            local = x.localize(T3 if primes == T23 else T23)
            assert matches(local, rx) and local.primes != primes
        # the lcm path: operands at unequal scales, T = all included
        assert any(d != e for d, e in scales)
        assert (1, 1) in scales

    def test_equal_elements_at_different_scales(self):
        x = el(Fraction(1, 5), Fraction(2, 7), Fraction(3, 35), T23)
        y = el(Fraction(4, 5), Fraction(5, 7), Fraction(-3, 35), T23)
        product = x * y
        plain = el(1, 1, Fraction(1, 5) * Fraction(5, 7), T23)
        assert product._d != plain._d
        assert product == plain and hash(product) == hash(plain)
        assert x * x.inverse() == HeisElement.identity(T23)
        assert hash(x * x.inverse()) == hash(HeisElement.identity(T23))
        assert len({product, plain, x * y}) == 1
        assert product != plain.localize(T3)

    def test_visible_denominator_message_is_unchanged(self):
        with pytest.raises(ValueError, match=r"^coordinate 1/6 has a denominator visible at \{2,3\}$"):
            HeisElement(T23, Fraction(0), Fraction(1, 6), Fraction(0))
        with pytest.raises(ValueError, match=r"^coordinate -3/7 has a denominator visible at all$"):
            HeisElement(ALL_PRIMES, Fraction(1), Fraction(0), Fraction(-3, 7))

    def test_dsl_round_trip(self):
        x = el(Fraction(1, 5), Fraction(-2, 7), Fraction(3, 35), T23)
        y = el(Fraction(4, 5), Fraction(9, 7), Fraction(1, 7), T23)
        for g in (x, y, x * y, (x * y) ** -4, x.inverse() * y):
            text = print_value(g)
            again = read_value(text)
            assert again == g and print_value(again) == text
            assert (again.a, again.b, again.c) == (g.a, g.b, g.c)
        assert print_value(x * y) == "heis(T={2,3}; 1,1,17/35)"


def doubled():
    return HeisSubgroup(ALL_PRIMES, [el(2, 0, 0), el(0, 2, 0)])


class TestEvaluateWord:
    def test_shared_subwords_are_replayed_once(self, monkeypatch):
        g = el(1, 2, 3)
        k = 12
        word = ((0, 1),)
        for _ in range(k):
            word = (("pow", word, 2), ("pow", word, -1))
        calls = 0
        multiply = HeisElement.__mul__

        def counting(self, other):
            nonlocal calls
            calls += 1
            return multiply(self, other)

        monkeypatch.setattr(HeisElement, "__mul__", counting)
        assert evaluate_word([g], word, ALL_PRIMES) == g
        assert calls <= 3 * (k + 1)

    def test_mixed_leaves_and_powers(self):
        gens = [el(1, 0, 2), el(0, 1, -1)]
        inner = ((0, 2), (1, -1))
        word = (("pow", inner, 3), (1, 2), ("pow", inner, -1))
        x, y = gens
        expected = (x**2 * y.inverse()) ** 3 * y**2 * (x**2 * y.inverse()).inverse()
        assert evaluate_word(gens, word, ALL_PRIMES) == expected
        assert evaluate_word(gens, (), ALL_PRIMES) == HeisElement.identity(ALL_PRIMES)


class TestSubgroup:
    def test_center_of_the_doubled_subgroup(self):
        h = doubled()
        assert h.rank == 2
        assert h.center_generator == 4

    def test_pinned_nonmember(self):
        cert = doubled().membership(el(2, 2, 3))
        assert not cert
        assert cert.offset == -1

    def test_pinned_member_with_certificate(self):
        h = doubled()
        g = el(8, 8, 36)
        assert el(1, 1, 1) ** 8 == g
        cert = h.membership(g)
        assert cert
        assert cert.offset == -28
        assert evaluate_word(h.generators, cert.word, ALL_PRIMES) == g

    def test_power_tightness_sequence(self):
        h = doubled()
        g = el(1, 1, 1)
        assert not h.membership(g**2)
        assert h.membership(g**4).offset == -6
        assert not h.membership(g**4)
        assert h.membership(g**8)

    def test_central_leftovers_feed_the_center(self):
        h = HeisSubgroup(ALL_PRIMES, [el(1, 0, 0), el(2, 0, 5), el(0, 0, 3)])
        assert h.rank == 1
        assert h.center_generator == 1
        cert = h.membership(el(0, 0, 1))
        assert cert
        assert evaluate_word(h.generators, cert.word, ALL_PRIMES) == el(0, 0, 1)

    def test_fraction_coordinates(self):
        fifth = Fraction(1, 5)
        h = HeisSubgroup(T23, [el(fifth, 0, 0, T23), el(0, fifth, 0, T23)])
        assert h.center_generator == Fraction(1, 25)
        assert h.membership(el(0, 0, Fraction(1, 25), T23))
        assert not h.membership(el(0, 0, Fraction(1, 175), T23))

    def test_empty_subgroup_is_identity_only(self):
        h = HeisSubgroup(T23, [])
        assert h.membership(HeisElement.identity(T23))
        assert not h.membership(el(0, 0, 1, T23))

    def test_random_words_are_members_with_replaying_certificates(self):
        rng = random.Random(21)
        for _ in range(15):
            gens = [random_element(rng) for _ in range(rng.randint(1, 4))]
            h = HeisSubgroup(T23, gens)
            g = HeisElement.identity(T23)
            for _ in range(rng.randint(1, 6)):
                g = g * (gens[rng.randrange(len(gens))] ** rng.choice([-1, 1]))
            cert = h.membership(g)
            assert cert
            assert evaluate_word(gens, cert.word, T23) == g

    def test_large_entries_construct_and_replay(self):
        rng = random.Random(41)

        def near_million():
            return Fraction(rng.choice([-1, 1]) * rng.randint(5 * 10**5, 2 * 10**6))

        for primes in (ALL_PRIMES, T23):
            gens = [HeisElement(primes, near_million(), near_million(), near_million())
                    for _ in range(3)]
            h = HeisSubgroup(primes, gens)
            g = gens[0] * gens[1] * gens[2]
            cert = h.membership(g)
            assert cert
            assert evaluate_word(gens, cert.word, primes) == g

    def test_constructed_central_escapees_are_rejected(self):
        rng = random.Random(22)
        found = 0
        for _ in range(30):
            gens = [random_element(rng) for _ in range(2)]
            h = HeisSubgroup(T23, gens)
            if h.center_generator == 0 or h.rank == 0:
                continue
            base = h.basis_elements()[0]
            bad = base * HeisElement(T23, Fraction(0), Fraction(0), h.center_generator / 7)
            assert not h.membership(bad)
            found += 1
        assert found > 10


# The Euclidean staircase that reduced subgroups before the Hermite
# transform did, kept as the reference the reduction is tested against.
# Every row operation is a group multiplication, so each reduced row carries
# a word in the generators.


@dataclass(frozen=True)
class _Lift:
    element: HeisElement
    word: tuple

    def times(self, other, exp):
        return _Lift(self.element * (other.element**exp), self.word + _word_pow(other.word, exp))

    def inverse(self):
        return _Lift(self.element.inverse(), _word_pow(self.word, -1))


def _ext_gcd(a, b):
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class StaircaseSubgroup:
    def __init__(self, primes, generators):
        self.primes = primes
        self.generators = tuple(generators)
        denom = 1
        for g in self.generators:
            denom = lcm(denom, g.a.denominator, g.b.denominator)
        self.denom = denom
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
        self.rank, self.rows, self.basis = r, rows[:r], lifts[:r]
        center = [(lift.element.c, lift.word) for lift in lifts[r:] if lift.element.c != 0]
        if r == 2:
            u, v = self.basis
            comm = commutator(u.element, v.element)
            if comm.c != 0:
                word = _word_pow(u.word, -1) + _word_pow(v.word, -1) + u.word + v.word
                center.append((comm.c, word))
        value, word = Fraction(0), ()
        for c, w in center:
            if value == 0:
                value, word = abs(c), w if c > 0 else _word_pow(w, -1)
                continue
            q = lcm(value.denominator, c.denominator)
            g, x, y = _ext_gcd(int(value * q), int(c * q))
            value, word = Fraction(g, q), _word_pow(word, x) + _word_pow(w, y)
        self.center_generator, self.center_word = value, word

    def membership(self, g):
        """(member, alpha, word); alpha is None off the projection lattice."""
        target = [g.a * self.denom, g.b * self.denom]
        exps = []
        for row in self.rows:
            col = 0 if row[0] != 0 else 1
            coeff = Fraction(target[col], row[col])
            if coeff.denominator != 1:
                return False, None, None
            exps.append(int(coeff))
            target = [t - int(coeff) * x for t, x in zip(target, row)]
        if any(target):
            return False, None, None
        exps += [0] * (2 - self.rank)
        base, word = HeisElement.identity(self.primes), ()
        for lift, n in zip(self.basis, exps):
            base = base * lift.element**n
            word = word + _word_pow(lift.word, n)
        offset = g.c - base.c
        if offset == 0:
            return True, exps[0], word
        if self.center_generator == 0 or (offset / self.center_generator).denominator != 1:
            return False, exps[0], None
        k = int(offset / self.center_generator)
        return True, exps[0], word + _word_pow(self.center_word, k)


def expanded_nodes(word, memo):
    """One node per leaf and per power node of the expanded word tree."""
    if id(word) not in memo:
        total = sum(1 + (expanded_nodes(item[1], memo) if item[0] == "pow" else 0)
                    for item in word)
        memo[id(word)] = (total, word)  # keeps the tuple alive, so its id stays unique
    return memo[id(word)][0]


def reference_instance(rng):
    """Generators over T = all or over {2,3} with denominators 5 and 7,
    and the sampler of their coordinates.

    The shapes cover every rank: generic projections, collinear ones, and
    central ones, with zero generators mixed in.
    """
    primes = rng.choice([ALL_PRIMES, T23])
    dens = [1] if primes == ALL_PRIMES else [1, 5, 7]

    def q():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    shape = rng.choice(["generic", "collinear", "central"])
    direction = (q(), q())
    gens = []
    for _ in range(rng.randint(0, 4)):
        if shape == "generic":
            a, b = q(), q()
        elif shape == "collinear":
            t = rng.randint(-4, 4)
            a, b = t * direction[0], t * direction[1]
        else:
            a, b = Fraction(0), Fraction(0)
        gens.append(HeisElement(primes, a, b, q()))
    if rng.random() < 0.3:
        gens.insert(rng.randint(0, len(gens)), HeisElement.identity(primes))
    return primes, gens, q


class TestAgainstStaircase:
    def test_seeded_subgroups_agree(self):
        rng = random.Random(808)
        ranks, local, answers = set(), 0, 0
        for _ in range(300):
            primes, gens, q = reference_instance(rng)
            h = HeisSubgroup(primes, gens)
            ref = StaircaseSubgroup(primes, gens)
            assert h.rank == ref.rank
            assert h.center_generator == ref.center_generator
            ranks.add(h.rank)
            local += primes == T23
            queries = []
            for _ in range(2):
                g = HeisElement.identity(primes)
                for _ in range(rng.randint(0, 5)):
                    if gens:
                        g = g * gens[rng.randrange(len(gens))] ** rng.choice([-2, -1, 1, 2])
                queries.append(g)
                shift = h.center_generator * rng.randint(-2, 2) + q()
                queries.append(g * HeisElement(primes, Fraction(0), Fraction(0), shift))
                queries.append(g * HeisElement(primes, Fraction(1), Fraction(0), Fraction(0)))
                queries.append(HeisElement(primes, q(), q(), q()))
            for g in queries:
                cert = h.membership(g)
                member, alpha, ref_word = ref.membership(g)
                assert cert.member == member
                assert (cert.exponents is None) == (alpha is None)
                if alpha is not None:
                    assert cert.exponents[0] == alpha
                if member:
                    answers += 1
                    assert evaluate_word(gens, cert.word, primes) == g
                    assert evaluate_word(gens, ref_word, primes) == g
        assert ranks == {0, 1, 2}
        assert 50 < local < 250
        assert answers > 300

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certificates_stay_small_near_a_googol(self, seed):
        rng = random.Random(seed)

        def near_googol():
            return Fraction(rng.choice([-1, 1]) * rng.randint(5 * 10**99, 2 * 10**100))

        gens = [HeisElement(ALL_PRIMES, near_googol(), near_googol(), near_googol())
                for _ in range(3)]
        h = HeisSubgroup(ALL_PRIMES, gens)
        g = gens[0] * gens[1] * gens[2]
        cert = h.membership(g)
        assert cert
        assert evaluate_word(gens, cert.word, ALL_PRIMES) == g
        # counted outside the assert, whose failure report would print the word
        nodes = expanded_nodes(cert.word, {})
        assert nodes <= 64


class TestLowerCentralSeries:
    def test_doubled_series(self):
        series = lower_central_series(doubled())
        assert len(series) == 3
        gamma = series[1]
        assert gamma.rank == 0
        assert gamma.center_generator == 4
        assert series[2].membership(HeisElement.identity(ALL_PRIMES))
        assert not series[2].membership(el(0, 0, 4))

    def test_abelian_series_is_short(self):
        series = lower_central_series(HeisSubgroup(ALL_PRIMES, [el(2, 0, 0)]))
        assert len(series) == 2


class TestPowerClosure:
    def test_canonical_instance_is_tight_at_three(self):
        h = doubled()
        report = power_closure_check([el(1, 0, 0), el(0, 1, 0)], h, 2, samples=60, seed=3)
        assert report.passed
        assert report.nilpotency_class == 2
        assert report.exponent_bound == 3
        assert report.tightness.get(3, 0) >= 1
        assert sum(report.tightness.values()) == 60

    def test_abelian_instance_needs_one_power(self):
        h = HeisSubgroup(ALL_PRIMES, [el(9, 0, 0)])
        report = power_closure_check([el(3, 0, 0)], h, 3, samples=25, seed=4)
        assert report.passed
        assert report.exponent_bound == 1
        assert set(report.tightness) == {1}

    def test_hypothesis_violation_is_an_error(self):
        h = HeisSubgroup(ALL_PRIMES, [el(2, 0, 0)])
        with pytest.raises(VerificationError):
            power_closure_check([el(0, 0, 1)], h, 2, samples=10)


class TestLocalize:
    def test_minimal_power_along_the_projection(self):
        local = doubled().localize(T3)
        y = el(1, 0, 0, T3)
        assert minimal_power_into(local, y, 2) == 2

    def test_center_coupling_bumps_past_the_projection_bound(self):
        local = HeisSubgroup(T23, [el(2, 0, 0, T23), el(0, 2, 0, T23)]).localize(T3)
        y = el(2, 2, 6, T3)
        # the projection already fits at t = 1, but the offset 6 - 4 escapes 4Z
        assert not local.membership(y)
        assert local.membership(y**2)
        assert minimal_power_into(local, y, 2) == 2

    def test_localized_subgroup_report(self):
        h = HeisSubgroup(T23, [el(2, 0, 0, T23), el(0, 2, 0, T23)])
        local, report = localize_subgroup(h, T3, samples=5, seed=9)
        assert local.primes == T3
        assert report.all_passed()
        names = {c.name for c in report.checks}
        assert names == {"kernel-trivial", "surjective-up-to-core-units"}
        assert sum(c.name == "surjective-up-to-core-units" for c in report.checks) == 5

    def test_roots_verify_against_their_powers(self):
        # every epi witness in the report was built as an exact u-th root;
        # replay one by hand: (2,0,0) has the square root (1,0,0) over {3}
        local = doubled().localize(T3)
        root = el(1, 0, 0, T3)
        assert root**2 == el(2, 0, 0, T3)
        assert minimal_power_into(local, root, 2) == 2
