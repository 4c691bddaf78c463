import random
from fractions import Fraction

import pytest

from genuskit.errors import VerificationError
from genuskit.heis import (
    HeisElement,
    HeisSubgroup,
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
