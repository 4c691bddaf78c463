import random

import pytest

from genuskit.errors import DomainError, FamilyError
from genuskit.primeset import (
    ALL_PRIMES,
    EMPTY_SET,
    PRIMALITY_LIMIT,
    PartitionFamily,
    PrimeSet,
    XNumber,
    factorize,
    is_prime,
    is_x_number,
    make_family,
    next_prime,
    set_algebra,
    xpart,
)

from conftest import PRIMES_BELOW_100, random_prime_set


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745):
            assert not is_prime(n)

    def test_known_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(67280421310721)  # factor of 2**128 + 1
        assert not is_prime((2**31 - 1) * (2**19 - 1))

    def test_limit_enforced(self):
        assert is_prime(PRIMALITY_LIMIT - 59)  # largest prime below 2**64
        with pytest.raises(ValueError):
            is_prime(PRIMALITY_LIMIT)

    def test_agrees_with_sieve(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 45):
            if sieve[i]:
                for j in range(i * i, 2000, i):
                    sieve[j] = False
        for n in range(2000):
            assert is_prime(n) == sieve[n]

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            is_prime(7.0)
        with pytest.raises(TypeError):
            is_prime(True)


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == {}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(2**61 - 1) == {2**61 - 1: 1}

    def test_semiprime_beyond_trial_division(self):
        p, q = 1000003, 1000033
        assert factorize(p * q) == {p: 1, q: 1}

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 10**9)
            f = factorize(n)
            prod = 1
            for p, e in f.items():
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_cofactor_past_the_primality_limit_is_out_of_scope(self):
        p = 2**127 - 1
        with pytest.raises(DomainError, match=f"got {p}$"):
            factorize(12 * p)

    def test_rejects_nonpositive(self):
        for bad in (0, -6):
            with pytest.raises(ValueError):
                factorize(bad)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(13) == 17
    assert next_prime(89) == 97


class TestPrimeSet:
    def test_canonical_construction(self):
        s = PrimeSet.finite([5, 2, 5])
        assert s.members == (2, 5)
        with pytest.raises(ValueError):
            PrimeSet.finite([4])

    def test_membership(self):
        s = PrimeSet.all_except([2, 3])
        assert not s.contains(2)
        assert s.contains(5)
        with pytest.raises(ValueError):
            s.contains(6)

    def test_fixed_algebra_cases(self):
        # the three shapes that exercise every branch of the case tables
        assert PrimeSet.all_except([2]) & PrimeSet.finite([2, 3]) == PrimeSet.finite([3])
        assert PrimeSet.finite([2]) | PrimeSet.all_except([2, 3]) == PrimeSet.all_except([3])
        assert ALL_PRIMES - PrimeSet.finite([2]) == PrimeSet.all_except([2])
        assert PrimeSet.all_except([2]) - PrimeSet.all_except([3]) == PrimeSet.finite([3])
        assert PrimeSet.finite([2, 5]) - PrimeSet.all_except([5]) == PrimeSet.finite([5])

    def test_de_morgan_randomized(self):
        rng = random.Random(23)
        for _ in range(400):
            a = random_prime_set(rng)
            b = random_prime_set(rng)
            assert (a | b).complement() == a.complement() & b.complement()
            assert (a & b).complement() == a.complement() | b.complement()
            assert a - b == a & b.complement()

    def test_operations_agree_with_pointwise_membership(self):
        rng = random.Random(5)
        probes = PRIMES_BELOW_100 + [101, 103, 107]
        for _ in range(300):
            a = random_prime_set(rng)
            b = random_prime_set(rng)
            for p in probes:
                assert (a | b).contains(p) == (a.contains(p) or b.contains(p))
                assert (a & b).contains(p) == (a.contains(p) and b.contains(p))
                assert (a - b).contains(p) == (a.contains(p) and not b.contains(p))

    def test_issubset(self):
        assert PrimeSet.finite([3]) <= PrimeSet.all_except([2])
        assert not PrimeSet.finite([2]) <= PrimeSet.all_except([2])
        assert not (ALL_PRIMES <= PrimeSet.finite(PRIMES_BELOW_100))
        assert PrimeSet.all_except([2, 3]) <= PrimeSet.all_except([2])
        assert not PrimeSet.all_except([2]) <= PrimeSet.all_except([2, 3])

    def test_issubset_matches_difference(self):
        rng = random.Random(31)
        for _ in range(300):
            a = random_prime_set(rng)
            b = random_prime_set(rng)
            assert a.issubset(b) == (a - b).is_empty

    def test_size_and_iteration(self):
        assert EMPTY_SET.size() == 0
        assert PrimeSet.finite([2, 7]).size() == 2
        assert ALL_PRIMES.size() is None
        assert PrimeSet.all_except([3]).first(4) == (2, 5, 7, 11)

    def test_str_forms(self):
        assert str(EMPTY_SET) == "{}"
        assert str(PrimeSet.finite([2, 3])) == "{2,3}"
        assert str(ALL_PRIMES) == "all"
        assert str(PrimeSet.all_except([2])) == "all\\{2}"

    def test_set_algebra_dispatch(self):
        a, b = PrimeSet.finite([2]), PrimeSet.finite([3])
        assert set_algebra("union", a, b) == PrimeSet.finite([2, 3])
        with pytest.raises(ValueError):
            set_algebra("xor", a, b)


class TestXNumbers:
    def test_examples(self):
        assert is_x_number(35, PrimeSet.all_except([5, 7]))
        assert not is_x_number(10, PrimeSet.all_except([5, 7]))
        assert is_x_number(1, ALL_PRIMES)
        with pytest.raises(ValueError):
            is_x_number(0, EMPTY_SET)

    def test_multiplicative(self):
        rng = random.Random(17)
        for _ in range(200):
            x = random_prime_set(rng)
            a, b = rng.randint(1, 5000), rng.randint(1, 5000)
            assert is_x_number(a * b, x) == (is_x_number(a, x) and is_x_number(b, x))

    def test_matches_the_factorize_definition(self):
        def is_x_oracle(n, x):
            return all(not x._contains_known_prime(p) for p in factorize(n))

        def xpart_oracle(n, x):
            out = 1
            for p, e in factorize(abs(n)).items():
                if x._contains_known_prime(p):
                    out *= p**e
            return out

        rng = random.Random(23)
        fixed = [EMPTY_SET, ALL_PRIMES, PrimeSet.finite([2]), PrimeSet.all_except([2])]
        for i in range(3000):
            x = fixed[i % 4] if i < 400 else random_prime_set(rng, max_size=6)
            n = rng.randint(1, 10**6)
            for _ in range(rng.randint(0, 4)):
                n *= rng.choice(PRIMES_BELOW_100) ** rng.randint(1, 5)
            assert is_x_number(n, x) == is_x_oracle(n, x), (n, x)
            assert xpart(n, x) == xpart_oracle(n, x), (n, x)
            assert xpart(-n, x) == xpart_oracle(n, x), (-n, x)

    def test_inputs_beyond_the_primality_limit(self):
        p, q = 2**61 - 1, 2**89 - 1
        assert is_x_number(p * q, PrimeSet.finite([2, 3]))
        assert not is_x_number(6 * q, PrimeSet.finite([2, 3]))
        assert is_x_number(p**3, PrimeSet.all_except([p]))
        assert not is_x_number(p * q, PrimeSet.all_except([p]))
        assert xpart(-12 * q, PrimeSet.finite([2, 3])) == 12
        assert xpart(12 * q, PrimeSet.all_except([2, 3])) == q

    def test_certificate_type(self):
        n = XNumber(9, PrimeSet.finite([2, 5]))
        assert int(n) == 9
        with pytest.raises(ValueError):
            XNumber(10, PrimeSet.finite([2, 5]))


class TestPartitionFamily:
    def test_singleton_shape(self):
        fam = make_family(ALL_PRIMES, PrimeSet.finite([2]))
        assert fam.is_singleton_shape
        assert fam.block(3) == PrimeSet.finite([2, 3])
        assert fam.block_residual(3) == PrimeSet.finite([3])
        assert fam.block_of_prime(7) == 7
        assert fam.block_count() is None
        assert str(fam) == "singletons(all,{2})"
        with pytest.raises(FamilyError):
            fam.block(2)  # 2 is in the core, not residual

    def test_explicit_shape(self):
        T = PrimeSet.finite([2, 3, 5, 7])
        S = PrimeSet.finite([2])
        fam = make_family(T, S, [PrimeSet.finite([2, 3, 5]), PrimeSet.finite([2, 7])])
        assert not fam.is_singleton_shape
        assert fam.block_count() == 2
        assert fam.block_of_prime(5) == 0
        assert fam.block_of_prime(7) == 1
        assert fam.block_residual(0) == PrimeSet.finite([3, 5])
        assert str(fam) == "blocks({2,3,5,7},{2}; {2,3,5},{2,7})"

    def test_rejects_core_not_inside(self):
        with pytest.raises(FamilyError, match="not contained"):
            make_family(PrimeSet.finite([2, 3]), PrimeSet.finite([5]))

    def test_rejects_empty_residual(self):
        with pytest.raises(FamilyError, match="residual"):
            make_family(PrimeSet.finite([2]), PrimeSet.finite([2]))

    def test_rejects_block_equal_to_core(self):
        T = PrimeSet.finite([2, 3])
        with pytest.raises(FamilyError, match="block 1"):
            make_family(T, PrimeSet.finite([2]), [PrimeSet.finite([2, 3]), PrimeSet.finite([2])])

    def test_rejects_block_escaping_t(self):
        T = PrimeSet.finite([2, 3])
        with pytest.raises(FamilyError, match="leaves T"):
            make_family(T, PrimeSet.finite([2]), [PrimeSet.finite([2, 3, 5])])

    def test_rejects_overlapping_blocks(self):
        T = PrimeSet.finite([2, 3, 5])
        with pytest.raises(FamilyError, match="blocks 0 and 1 intersect"):
            make_family(
                T,
                PrimeSet.finite([2]),
                [PrimeSet.finite([2, 3, 5]), PrimeSet.finite([2, 5])],
            )

    def test_rejects_uncovered_prime(self):
        T = PrimeSet.finite([2, 3, 5])
        with pytest.raises(FamilyError, match="miss"):
            make_family(T, PrimeSet.finite([2]), [PrimeSet.finite([2, 3])])

    def test_fuzz_never_accepts_invalid(self):
        # random block candidates: whenever make_family accepts, the family
        # axioms must actually hold; whenever they hold, it must accept.
        rng = random.Random(47)
        pool = [2, 3, 5, 7, 11, 13]
        for _ in range(500):
            S = set(rng.sample(pool, rng.randint(0, 2)))
            nblocks = rng.randint(1, 3)
            blocks = [
                S | set(rng.sample(pool, rng.randint(0, 3))) for _ in range(nblocks)
            ]
            T = set().union(S, *blocks)
            valid = (
                T != S
                and all(S < b for b in blocks)
                and all(
                    blocks[i] & blocks[j] == S
                    for i in range(nblocks)
                    for j in range(i + 1, nblocks)
                )
            )
            try:
                fam = make_family(
                    PrimeSet.finite(T),
                    PrimeSet.finite(S),
                    [PrimeSet.finite(b) for b in blocks],
                )
            except FamilyError:
                assert not valid
            else:
                assert valid
                for p in sorted(T - S):
                    i = fam.block_of_prime(p)
                    assert fam.block(i).contains(p)
