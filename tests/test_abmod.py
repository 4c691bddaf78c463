"""Module presentations, mixed kernels, fracture squares, pullbacks, genus."""

import dataclasses
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from conftest import PRIMES_BELOW_100, lattice_contains
import genuskit.abmod as abmod
import genuskit.cli as cli
from genuskit.abmod import (
    FGModule,
    ModuleMap,
    build_fracture,
    genus_witness,
    identity_map,
    is_bounded_above_matrix,
    is_bounded_matrix,
    is_localization,
    mediate,
    mixed_kernel,
    pullback,
    torsion_check,
    xpart,
)
from genuskit.errors import Check, DomainError, VerificationError
from genuskit.intlinalg import (
    hnf_rows,
    identity_matrix,
    invert_rational,
    invert_unimodular,
    mat_det,
    mat_mul,
    rational_row_solve,
    row_vec_mul,
)
from genuskit.primeset import PrimeSet, XNumber, factorize, is_x_number, make_family
from genuskit.rank1 import is_bounded, is_bounded_above, make_aut

T23 = PrimeSet.finite([2, 3])
T235 = PrimeSet.finite([2, 3, 5])
EMPTY = PrimeSet.finite([])


def apply_row(f, v):
    """The image under f of the source element with coefficient row v."""
    return row_vec_mul(v, f.rows)


def is_zero_map(f):
    """Does f send every generator to zero, read from its integer form?"""
    return all(f.target._scaled_is_zero(row, f.den) for row in f.num)


def random_subset(rng, primes, pool=(2, 3, 5, 7)):
    """A random prime set inside ``primes``: its meet with a random finite or cofinite set."""
    picked = rng.sample(pool, rng.randint(0, len(pool)))
    return primes & (PrimeSet.all_except(picked) if rng.random() < 0.5 else PrimeSet.finite(picked))


def kernel_path_checks(f, at):
    """The checks of ``is_localization(f, at)`` computed for any map, from
    the mixed kernel of f and the Smith form of its cokernel."""
    km = mixed_kernel([f.source], [f.target], {(0, 0): f}).module
    bad = [d for d in km.invariants if xpart(d, at) != 1]
    if km.free_rank or bad:
        reason = f"kernel has free rank {km.free_rank}" if km.free_rank else f"kernel carries orders {bad}"
        kernel = Check("kernel-invertible-torsion", False, reason)
    else:
        killer = XNumber(lcm(*km.invariants), at)
        kernel = Check("kernel-invertible-torsion", True, f"kernel killed by {killer}")
    return (kernel, Check("cokernel-killed", *abmod._cokernel_killed(f, at)))


def two_block_square(group):
    fam = make_family(T23, EMPTY, blocks=[PrimeSet.finite([2]), PrimeSet.finite([3])])
    return build_fracture(group, fam)


class TestXpart:
    def test_picks_out_supported_primes(self):
        assert xpart(12, PrimeSet.finite([2])) == 4
        assert xpart(12, PrimeSet.finite([3])) == 3
        assert xpart(12, PrimeSet.finite([5])) == 1
        assert xpart(-12, T23) == 12

    def test_cofinite_support(self):
        assert xpart(12, PrimeSet.all_except([2])) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            xpart(0, T23)


class TestFGModule:
    def test_unit_stripping_z12_at_2(self):
        m = FGModule(PrimeSet.finite([2]), [[12]], 1)
        assert m.invariants == (4,)
        assert m.free_rank == 0
        assert m.iso_class() == (0, ((2, 2),))

    def test_unit_stripping_kills_foreign_torsion(self):
        m = FGModule(PrimeSet.finite([2]), [[0, 3]], 2)
        assert m.invariants == ()
        assert m.free_rank == 1
        assert m.iso_class() == (1, ())

    def test_from_parts(self):
        m = FGModule.from_parts(T23, 1, [4, 3])
        assert m.iso_class() == (1, ((2, 2), (3, 1)))
        with pytest.raises(ValueError):
            FGModule.from_parts(T23, 0, [1])

    def test_zero_module(self):
        m = FGModule(T23, [[1]], 1)
        assert m.is_zero()
        assert FGModule.free(T23, 0).is_zero()
        assert not FGModule.free(T23, 1).is_zero()

    def test_zero_relation_rows_dropped(self):
        m = FGModule(T23, [[0, 0], [0, 4]], 2)
        assert m.relations == ((0, 4),)

    def test_localize_strips_invisible_torsion(self):
        m = FGModule(T23, [[12]], 1)
        at2, unit = m.localize(PrimeSet.finite([2]))
        assert at2.invariants == (4,)
        assert unit.rows == ((Fraction(1),),)
        with pytest.raises(ValueError):
            m.localize(PrimeSet.finite([7]))

    def test_localize_reuses_the_smith_form(self, monkeypatch):
        rng = random.Random(61)
        cases = []
        for primes, subs in (
            (T235, [PrimeSet.finite([2]), PrimeSet.finite([3, 5]), EMPTY]),
            (PrimeSet.all_except([]), [PrimeSet.all_except([2]), PrimeSet.finite([3]), EMPTY]),
        ):
            for _ in range(6):
                n = rng.randint(1, 3)
                rels = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(rng.randint(0, 3))]
                for sub in subs:
                    cases.append((FGModule(primes, rels, n), sub))
        fresh = {}
        for m, sub in cases:
            direct = FGModule(sub, m.relations, m.ngens)
            fresh[(m, sub)] = (direct._snf_data(), direct.normalized_relation_rows())
            m._snf_data()

        calls = []
        real = abmod.smith_normal_form
        monkeypatch.setattr(abmod, "smith_normal_form", lambda a: calls.append(a) or real(a))
        for m, sub in cases:
            local, unit = m.localize(sub)
            assert (local._snf_data(), local.normalized_relation_rows()) == fresh[(m, sub)]
            assert unit.num == tuple(map(tuple, identity_matrix(m.ngens))) and unit.den == 1
        assert calls == []

    def test_element_is_zero(self):
        m = FGModule(T23, [[0, 4]], 2)
        assert m.element_is_zero([0, 4])
        assert m.element_is_zero([0, 0])
        assert not m.element_is_zero([0, 2])
        assert not m.element_is_zero([4, 0])
        # 5 is invertible over T, so a 5-multiple of the relation still dies
        assert m.element_is_zero([0, Fraction(4, 5)])

    def test_str_matches_canonical_form(self):
        m = FGModule(T23, [[0, 4]], 2)
        assert str(m) == "module(T={2,3}; gens=2; rel=[[0,4]])"


class TestNormalizedRows:
    def test_saturated_at_foreign_primes(self, rng):
        # An integral combination with coefficients allowed in the ring
        # (denominators outside X) must land in the integer row span.
        for _ in range(120):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            m = FGModule(T235, rows, n)
            basis = [list(r) for r in m.normalized_relation_rows()]
            if not basis:
                continue
            coeffs = [Fraction(rng.randint(-8, 8), rng.choice([1, 7, 11, 13])) for _ in basis]
            point = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
            if all(x.denominator == 1 for x in point):
                assert lattice_contains(hnf_rows(basis), [int(x) for x in point])

    def test_spans_relations(self):
        m = FGModule(T23, [[2, 4], [0, 8]], 2)
        basis = hnf_rows([list(r) for r in m.normalized_relation_rows()])
        for rel in m.relations:
            assert lattice_contains(basis, list(rel))


class TestSmithCoordinates:
    """Zero tests and normalized rows against their rational definition.

    The oracle rows are Xpart(d_j) times the rows of the inverted right
    Smith transform, and a row is zero when ``rational_row_solve`` writes it
    over them with coefficients whose denominators are units of the ring.
    """

    @staticmethod
    def oracle_rows(m):
        if not m.relations:
            return ()
        data = m._snf_data()
        rinv = invert_unimodular(data["right"])
        return tuple(tuple(s * x for x in rinv[j]) for j, s in enumerate(data["stripped"]))

    @staticmethod
    def oracle_is_zero(m, rows, v):
        v = [Fraction(x) for x in v]
        if not any(v):
            return True
        if not rows:
            return False
        coeffs = rational_row_solve([list(r) for r in rows], v)
        return coeffs is not None and all(is_x_number(c.denominator, m.primes) for c in coeffs)

    def test_matches_rational_oracle(self):
        rng = random.Random(1729)
        small = [2, 3, 5, 7, 11]
        outcomes = {True: 0, False: 0}
        kinds = set()
        for _ in range(300):
            kind = rng.choice(["finite", "cofinite", "empty"])
            kinds.add(kind)
            members = rng.sample(small, rng.randint(1, 3))
            primes = {
                "finite": PrimeSet.finite(members),
                "cofinite": PrimeSet.all_except(members),
                "empty": EMPTY,
            }[kind]
            n = rng.randint(1, 4)
            rels = []
            for _ in range(rng.randint(0, 4)):
                row = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)]
                scale = rng.choice([1, 1, 2, 4, 3, 5, 6, 7, 12])
                rels.append([scale * x for x in row])
            m = FGModule(primes, rels, n)
            rows = self.oracle_rows(m)
            assert m.normalized_relation_rows() == rows

            def frac():
                return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 11, 13, 35]))

            probes = [
                [0] * n,
                [rng.randint(-6, 6) for _ in range(n)],
                [frac() for _ in range(n)],
            ]
            for basis in (m.relations, rows):
                if basis:
                    coeffs = [frac() for _ in basis]
                    probes.append([sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(n)])
            for v in probes:
                expected = self.oracle_is_zero(m, rows, v)
                assert m.element_is_zero(v) == expected, (m, v)
                outcomes[expected] += 1
        assert kinds == {"finite", "cofinite", "empty"}
        assert min(outcomes.values()) > 150, outcomes


class TestModuleMap:
    def test_direction_enforced(self):
        small = FGModule.free(PrimeSet.finite([2]), 1)
        big = FGModule.free(T23, 1)
        ModuleMap(big, small, [[1]])
        with pytest.raises(ValueError):
            ModuleMap(small, big, [[1]])

    def test_denominators_must_be_units_downstairs(self):
        big = FGModule.free(T23, 1)
        small = FGModule.free(PrimeSet.finite([2]), 1)
        ModuleMap(big, small, [[Fraction(1, 3)]])
        with pytest.raises(ValueError):
            ModuleMap(big, small, [[Fraction(1, 2)]])

    def test_relations_must_map_to_zero(self):
        src = FGModule(T23, [[2]], 1)
        tgt = FGModule.free(T23, 1)
        with pytest.raises(ValueError):
            ModuleMap(src, tgt, [[1]])
        ModuleMap(src, tgt, [[0]])

    def test_torsion_to_torsion(self):
        src = FGModule(T23, [[2]], 1)
        tgt = FGModule(T23, [[4]], 1)
        ModuleMap(src, tgt, [[2]])
        with pytest.raises(ValueError):
            ModuleMap(src, tgt, [[1]])

    def test_equal_map_modulo_relations(self):
        m = FGModule(T23, [[4]], 1)
        f = ModuleMap(m, m, [[1]])
        g = ModuleMap(m, m, [[5]])
        h = ModuleMap(m, m, [[2]])
        assert f.equal_map(g)
        assert not f.equal_map(h)

    def test_compose(self):
        a = FGModule.free(T23, 2)
        b = FGModule.free(T23, 2)
        f = ModuleMap(a, b, [[1, 1], [0, 1]])
        g = ModuleMap(b, b, [[2, 0], [0, 3]])
        assert f.compose(g).rows == ((Fraction(2), Fraction(3)), (Fraction(0), Fraction(3)))

    def test_negation(self):
        a = FGModule(T23, [[4, 0]], 2)
        b = FGModule(PrimeSet.finite([2]), [[2, 0]], 2)
        f = ModuleMap(a, b, [[Fraction(1, 3), 0], [1, Fraction(2, 3)]])
        g = ModuleMap(b, b, [[1, 0], [1, 3]])
        neg = -f
        assert (neg.source, neg.target) == (a, b)
        assert neg.num == tuple(tuple(-x for x in row) for row in f.num)
        assert neg.den == f.den == 3
        assert neg.compose(g).equal_map(-(f.compose(g)))
        assert not neg.equal_map(f)
        assert (-neg).num == f.num and (-neg).den == f.den
        assert (-neg).equal_map(f)


class TestIntegerMaps:
    """Maps kept as integer numerators over one denominator, against the
    ``Fraction`` definition: multiply ``rows`` out and test each image row
    with ``element_is_zero``."""

    SMALL = [2, 3, 5, 7]

    def nested_rings(self, rng, kind):
        """A ring and a smaller one inside it, of the given shape."""
        if kind == "empty":
            return EMPTY, EMPTY
        if kind == "finite":
            members = rng.sample(self.SMALL, rng.randint(1, 3))
            return PrimeSet.finite(members), PrimeSet.finite(rng.sample(members, rng.randint(0, len(members))))
        excluded = rng.sample(self.SMALL, rng.randint(0, 2))
        rest = [p for p in self.SMALL if p not in excluded]
        smaller = rng.choice([
            PrimeSet.all_except(excluded + rng.sample(rest, rng.randint(0, 1))),
            PrimeSet.finite(rng.sample(rest, rng.randint(0, 2))),
        ])
        return PrimeSet.all_except(excluded), smaller

    @staticmethod
    def module(rng, primes, n):
        rels = []
        for _ in range(rng.choice([0, 1, 2, n, n])):
            scale = rng.choice([1, 2, 3, 4, 5, 6, 7])
            rels.append([scale * rng.choice([0, rng.randint(-4, 4)]) for _ in range(n)])
        return FGModule(primes, rels, n)

    @staticmethod
    def matrix(rng, rows, cols):
        return [
            [Fraction(rng.choice([0, rng.randint(-6, 6)]), rng.choice([1, 1, 1, 2, 3, 5, 6, 7]))
             for _ in range(cols)]
            for _ in range(rows)
        ]

    @staticmethod
    def reference_error(source, target, rows):
        for row in rows:
            for x in row:
                if not is_x_number(x.denominator, target.primes):
                    return f"denominator of {x} is not invertible in the target ring"
        for rel in source.relations:
            image = [sum(r * row[c] for r, row in zip(rel, rows)) for c in range(target.ngens)]
            if not target.element_is_zero(image):
                return f"relation {rel} does not map to zero in the target"
        return None

    def build(self, source, target, rows):
        """(map or None, error text or None), checked against the reference."""
        try:
            f, got = ModuleMap(source, target, rows), None
        except ValueError as exc:
            f, got = None, str(exc)
        assert got == self.reference_error(source, target, rows), (source, target, rows)
        if f is not None:
            assert f.rows == tuple(tuple(row) for row in rows)
            assert f.den > 0 and gcd(f.den, *(x for row in f.num for x in row)) == 1
            assert all(Fraction(x, f.den) == y for ra, rb in zip(f.num, rows) for x, y in zip(ra, rb))
        return f, got

    def test_matches_fraction_reference(self):
        rng = random.Random(2718)
        counts = dict.fromkeys(
            ["accepted", "denominator", "relation", "equal", "unequal", "zero", "composed"], 0
        )
        for trial in range(360):
            kind = ("finite", "cofinite", "empty")[trial % 3]
            big, small = self.nested_rings(rng, kind)
            source = self.module(rng, big, rng.randint(1, 3))
            target = self.module(rng, small, rng.randint(1, 3))
            rows = self.matrix(rng, source.ngens, target.ngens)
            if rng.random() < 0.5:
                # multiples of a map send relations to zero more often
                k = rng.choice([1, 2, 4, 6, 12])
                rows = [[x * k for x in row] for row in rows]
            f, err = self.build(source, target, rows)
            if f is None:
                counts["denominator" if err.startswith("denominator") else "relation"] += 1
                continue
            counts["accepted"] += 1

            expected_zero = all(target.element_is_zero(row) for row in rows)
            assert is_zero_map(f) == expected_zero
            counts["zero"] += expected_zero

            # a second map: the same one moved by target relations, or another
            if target.relations and rng.random() < 0.5:
                coeffs = self.matrix(rng, source.ngens, len(target.relations))
                unit = rng.choice([1, 1, 5, 7, 35])
                other_rows = [
                    [x + sum(c * rel[col] for c, rel in zip(crow, target.relations)) * unit
                     for col, x in enumerate(row)]
                    for row, crow in zip(rows, coeffs)
                ]
            else:
                other_rows = self.matrix(rng, source.ngens, target.ngens)
            g, _ = self.build(source, target, other_rows)
            if g is not None:
                expected = all(
                    target.element_is_zero([a - b for a, b in zip(ra, rb)])
                    for ra, rb in zip(rows, other_rows)
                )
                assert f.equal_map(g) == expected
                assert g.equal_map(f) == expected
                counts["equal" if expected else "unequal"] += 1

            # compose with a map onward to a third module inside the target's ring
            third = self.module(rng, small, rng.randint(1, 3))
            h, _ = self.build(target, third, self.matrix(rng, target.ngens, third.ngens))
            if h is not None:
                product = [
                    [sum(a * row[c] for a, row in zip(frow, h.rows)) for c in range(third.ngens)]
                    for frow in rows
                ]
                fh = f.compose(h)
                assert fh.rows == tuple(tuple(row) for row in product)
                assert gcd(fh.den, *(x for row in fh.num for x in row)) == 1
                assert is_zero_map(fh) == all(third.element_is_zero(row) for row in product)
                counts["composed"] += 1
        assert min(counts.values()) >= 30, counts


class TestMixedKernel:
    def test_two_local_lines_meet_in_the_integers(self):
        z2 = FGModule.free(PrimeSet.finite([2]), 1)
        z3 = FGModule.free(PrimeSet.finite([3]), 1)
        target = FGModule.free(EMPTY, 1)
        blocks = {(0, 0): ModuleMap(z2, target, [[1]]), (1, 0): ModuleMap(z3, target, [[-1]])}
        k = mixed_kernel([z2, z3], [target], blocks)
        assert k.module.iso_class() == (1, ())
        assert k.inclusions[0].rows == ((Fraction(1),),)
        assert k.inclusions[1].rows == ((Fraction(1),),)

    def test_congruence_kernel(self):
        src = FGModule.free(T23, 1)
        tgt = FGModule(PrimeSet.finite([2]), [[4]], 1)
        k = mixed_kernel([src], [tgt], {(0, 0): ModuleMap(src, tgt, [[1]])})
        assert k.module.iso_class() == (1, ())
        assert k.inclusions[0].rows == ((Fraction(4),),)

    def test_kernel_inside_torsion(self):
        two = PrimeSet.finite([2])
        src = FGModule(two, [[4]], 1)
        tgt = FGModule(two, [[2]], 1)
        k = mixed_kernel([src], [tgt], {(0, 0): ModuleMap(src, tgt, [[1]])})
        assert k.module.iso_class() == (0, ((2, 1),))

    def test_zero_kernel(self):
        src = FGModule.free(T23, 1)
        tgt = FGModule.free(T23, 1)
        k = mixed_kernel([src], [tgt], {(0, 0): ModuleMap(src, tgt, [[1]])})
        assert k.module.is_zero()

    def test_direction_validated(self):
        z2 = FGModule.free(PrimeSet.finite([2]), 1)
        big = FGModule.free(T23, 1)
        with pytest.raises(ValueError):
            mixed_kernel([z2], [big], {(0, 0): ModuleMap(z2, big, [[1]])})

    def test_block_between_other_modules_is_named(self):
        z2 = FGModule.free(PrimeSet.finite([2]), 1)
        z3 = FGModule.free(PrimeSet.finite([3]), 1)
        q = FGModule.free(EMPTY, 1)
        good, stray = ModuleMap(z2, q, [[1]]), ModuleMap(z3, q, [[1]])
        with pytest.raises(ValueError, match=r"block \(0,0\)"):
            mixed_kernel([z2], [q], {(0, 0): stray})
        with pytest.raises(ValueError, match=r"block \(1,0\)"):
            mixed_kernel([z2, z3], [q], {(0, 0): good, (1, 0): good})
        with pytest.raises(ValueError, match=r"block \(0,1\)"):
            mixed_kernel([z2], [q, z2], {(0, 0): good, (0, 1): good})

    def test_level_is_one_past_the_factored_pieces(self):
        # The pieces are the clearing lcm 6, the Smith entries 2 and 12 of
        # source and target, and extra_active.  Their product has union part
        # 2^7 3^3 over {2,3}, and 2^7 3^3 7 over all primes but 5 with
        # extra_active 35; the level raises each exponent by one.
        # The block divides by 6, so its target lives over no primes.
        rows = [[Fraction(1, 6), 0], [0, 1]]
        tgt = FGModule(EMPTY, [[12, 0], [0, 2]], 2)
        m = FGModule(T23, [[12, 0], [0, 2]], 2)
        block = {(0, 0): ModuleMap(m, tgt, rows)}
        assert mixed_kernel([m], [tgt], block, extra_active=5).level == 2**8 * 3**4
        m = FGModule(PrimeSet.all_except([5]), [[12, 0], [0, 2]], 2)
        block = {(0, 0): ModuleMap(m, tgt, rows)}
        assert mixed_kernel([m], [tgt], block, extra_active=35).level == 2**8 * 3**4 * 7**2

    def test_escaped_zero_lattice_is_a_verification_error(self, monkeypatch):
        m = FGModule(T23, [[4]], 1)
        monkeypatch.setattr(abmod, "row_span_solve", lambda h, v: None)
        with pytest.raises(VerificationError, match="normalized relation 0 of source 0"):
            mixed_kernel([m], [m], {(0, 0): identity_map(m)})

    def test_dropped_kernel_row_is_a_verification_error(self, monkeypatch):
        # Over {2,3} the relation 5 g_0 kills g_0 and the level stays 1.  The
        # identity's kernel lattice is then the one row of the zero lattice;
        # with that row gone the normalized relation has nowhere to land.
        m = FGModule(T23, [[5, 0]], 2)
        basis = abmod.left_kernel_basis
        monkeypatch.setattr(abmod, "left_kernel_basis", lambda eq: basis(eq)[:-1])
        with pytest.raises(VerificationError, match="normalized relation 0 of source 0"):
            mixed_kernel([m], [m], {(0, 0): identity_map(m)})

    def test_unstable_level_loop_is_a_domain_error(self, monkeypatch, capsys):
        monkeypatch.setattr(abmod, "lattice_equal", lambda a, b: False)
        m = FGModule(T23, [[4]], 1)
        history = r"levels tried: 32 \(6 bits\), 64 \(7 bits\), .*, 8192 \(14 bits\)$"
        with pytest.raises(DomainError, match="failed to stabilize; " + history):
            mixed_kernel([m], [m], {(0, 0): identity_map(m)})
        code = cli.main([
            "pullback",
            "modpull(module(T={2,3}; rel=[[4,0]]); blocks({2,3}, {}; {2}, {3}); "
            "[[1/2,0],[0,1]], [[3,0],[0,1]])",
        ])
        assert code == 3
        assert "kernel lattice failed to stabilize; levels tried: " in capsys.readouterr().err

    def test_uncleared_block_is_a_verification_error(self):
        m = FGModule.free(T23, 1)
        with pytest.raises(VerificationError, match=r"block \(0,0\) keeps denominator 2"):
            abmod._kernel_at_level([m], [m], {(0, 0): ([[1]], 2)}, 1, [1], 1, [0], 1)


class TestIsLocalization:
    def test_collapse_certified(self):
        g = FGModule.from_parts(T23, 1, [4])
        core, sigma = g.localize(EMPTY)
        decision = is_localization(sigma, EMPTY)
        assert decision
        names = [c.name for c in decision.checks]
        assert names == ["kernel-invertible-torsion", "cokernel-killed"]

    def test_doubling_is_not_localizing_at_2(self):
        m = FGModule.free(T23, 1)
        double = ModuleMap(m, m, [[2]])
        assert not is_localization(double, PrimeSet.finite([2]))
        # away from 2 the cokernel is killed by the unit 2
        assert is_localization(double, PrimeSet.finite([3]))

    def test_kernel_with_visible_torsion_fails(self):
        two = PrimeSet.finite([2])
        src = FGModule(two, [[4]], 1)
        tgt = FGModule.free(two, 1)
        collapse = ModuleMap(src, tgt, [[0]])
        assert not is_localization(collapse, two)
        kernel_check = is_localization(collapse, two).checks[0]
        assert not kernel_check.passed

    def test_free_cokernel_fails(self):
        m = FGModule.free(T23, 2)
        line = FGModule.free(T23, 2)
        inject = ModuleMap(m, line, [[1, 0], [0, 0]])
        decision = is_localization(inject, T23)
        assert not decision
        assert "infinite order" in decision.checks[1].witness


    def test_retag_maps_match_the_kernel_path(self, monkeypatch):
        # Localize maps over finite, cofinite and empty prime sets, with
        # torsion on primes kept by the target, dropped by it, and outside
        # the source; the closed form must never reach mixed_kernel.
        rng = random.Random(6006)
        pool = (2, 3, 5, 7)
        counts = dict.fromkeys(["finite", "cofinite", "empty", "dropped", "kept"], 0)
        cases = []
        for trial in range(330):
            kind = ("finite", "cofinite", "empty")[trial % 3]
            picked = rng.sample(pool, rng.randint(1, 3))
            primes = {"finite": PrimeSet.finite(picked), "cofinite": PrimeSet.all_except(picked[1:]),
                      "empty": EMPTY}[kind]
            n = rng.randint(1, 3)
            rows = [[rng.choice([0, 0, 1, -2, 3]) for _ in range(n)] for _ in range(rng.randint(0, 2))]
            for g in rng.sample(range(n), rng.randint(0, n)):
                row = [0] * n
                row[g] = prod(rng.choices(pool, k=rng.randint(1, 3)))
                rows.append(row)
            target, f = FGModule(primes, rows, n).localize(random_subset(rng, primes))
            at = random_subset(rng, target.primes)
            counts[kind] += 1
            counts["dropped"] += f.source.invariants != target.invariants
            counts["kept"] += bool(target.invariants)
            cases.append((f, at, kernel_path_checks(f, at)))
        assert min(counts.values()) >= 50, counts

        monkeypatch.setattr(abmod, "mixed_kernel", None)
        for f, at, expected in cases:
            decision = is_localization(f, at)
            assert decision.passed
            assert decision.checks == expected


class TestFracture:
    def test_rejects_mismatched_prime_sets(self):
        fam = make_family(T23, EMPTY, blocks=[PrimeSet.finite([2]), PrimeSet.finite([3])])
        with pytest.raises(ValueError):
            build_fracture(FGModule.free(T235, 1), fam)

    def test_square_structure(self):
        sq = two_block_square(FGModule.free(T23, 1))
        assert sq.block_indices == (0, 1)
        assert sq.core.primes == EMPTY
        for i in sq.block_indices:
            assert sq.to_local[i].target == sq.local_modules[i]
            assert sq.to_local[i].compose(sq.local_to_core[i]).equal_map(sq.to_core)

    def test_singleton_family_materializes(self):
        fam = make_family(T23, EMPTY)
        sq = build_fracture(FGModule.free(T23, 1), fam)
        assert sq.block_indices == (2, 3)
        assert sq.local_modules[2].primes == PrimeSet.finite([2])

    def test_torsion_report(self):
        sq = two_block_square(FGModule.from_parts(T23, 1, [4]))
        report = torsion_check(sq)
        assert report.per_block == {0: (4,), 1: ()}
        assert report.injective_blocks == {0: False, 1: True}
        assert report.product_kernel_trivial
        assert not report.all_injective()

    def test_product_kernel_sees_a_lossy_localization(self, monkeypatch):
        # A localize that also kills generator 0 loses the free line at every
        # block, so G -> (+)_i G_{T_i} gets a kernel.
        sq = two_block_square(FGModule.from_parts(T23, 1, [4]))
        localize = FGModule.localize

        def lossy(self, sub):
            target, _ = localize(self, sub)
            kill = (1,) + (0,) * (self.ngens - 1)
            killed = FGModule(sub, target.relations + (kill,), self.ngens)
            return killed, ModuleMap(self, killed, identity_matrix(self.ngens))

        monkeypatch.setattr(FGModule, "localize", lossy)
        lost = {i: sq.group.localize(sq.family.block(i)) for i in sq.block_indices}
        sq = dataclasses.replace(
            sq,
            local_modules={i: m for i, (m, _) in lost.items()},
            to_local={i: f for i, (_, f) in lost.items()},
        )
        assert not torsion_check(sq).product_kernel_trivial

    def test_clean_group_is_injective_everywhere(self):
        sq = two_block_square(FGModule.free(T23, 2))
        report = torsion_check(sq)
        assert report.all_injective()
        assert report.product_kernel_trivial


class TestPullback:
    def test_twisted_line(self):
        sq = two_block_square(FGModule.free(T23, 1))
        data = pullback(sq, [[[Fraction(3, 2)]], [[1]]])
        assert data.module.iso_class() == (1, ())
        assert data.to_core.rows == ((Fraction(1, 2),),)
        assert data.projections[0].rows == ((Fraction(1, 3),),)
        assert data.projections[1].rows == ((Fraction(1, 2),),)

    def test_identity_twists_recover_the_group(self):
        sq = two_block_square(FGModule.free(T23, 1))
        data = pullback(sq, [identity_matrix(1), identity_matrix(1)])
        assert data.module.iso_class() == (1, ())
        assert data.to_core.rows == ((Fraction(1),),)

    def test_torsion_survives_the_pullback(self):
        sq = two_block_square(FGModule.from_parts(T23, 1, [4]))
        data = pullback(sq, [identity_matrix(2), identity_matrix(2)])
        assert data.module.iso_class() == (1, ((2, 2),))

    def test_nonempty_core(self):
        fam = make_family(T235, PrimeSet.finite([5]),
                          blocks=[PrimeSet.finite([2, 5]), PrimeSet.finite([3, 5])])
        sq = build_fracture(FGModule.free(T235, 1), fam)
        data = pullback(sq, [[[Fraction(3, 2)]], [[1]]])
        assert data.module.iso_class() == (1, ())
        assert data.to_core.rows == ((Fraction(1, 2),),)

    def test_mu_localizes_at_the_core(self):
        sq = two_block_square(FGModule.from_parts(T23, 1, [4]))
        data = pullback(sq, [identity_matrix(2), identity_matrix(2)])
        assert is_localization(data.to_core, EMPTY)

    def test_twist_validation(self):
        sq = two_block_square(FGModule.free(T23, 1))
        with pytest.raises(ValueError):
            pullback(sq, [[[0]], [[1]]])
        with pytest.raises(ValueError):
            pullback(sq, [[[1]]])

    def test_twist_determinant_must_be_core_unit(self):
        fam = make_family(T235, PrimeSet.finite([5]),
                          blocks=[PrimeSet.finite([2, 5]), PrimeSet.finite([3, 5])])
        sq = build_fracture(FGModule.free(T235, 1), fam)
        with pytest.raises(ValueError):
            pullback(sq, [[[5]], [[1]]])

    def test_rank_two_mixing_twist(self):
        sq = two_block_square(FGModule.free(T23, 2))
        a1 = [[Fraction(1), Fraction(1, 3)], [Fraction(0), Fraction(1)]]
        a2 = [[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1)]]
        data = pullback(sq, [a1, a2])
        assert data.module.iso_class() == (2, ())
        assert is_localization(data.to_core, EMPTY)


class TestMediate:
    def test_multiple_of_a_generator_factors(self):
        sq = two_block_square(FGModule.free(T23, 1))
        data = pullback(sq, [[[Fraction(3, 2)]], [[1]]])
        z = FGModule.free(T23, 1)
        scale = 6
        cone_core = ModuleMap(z, sq.core, [[x * scale for x in data.to_core.rows[0]]])
        legs = {
            i: ModuleMap(z, sq.local_modules[i], [[x * scale for x in data.projections[i].rows[0]]])
            for i in sq.block_indices
        }
        m = mediate(data, cone_core, legs)
        direct = ModuleMap(z, data.module, [[scale]])
        assert m.equal_map(direct)

    def test_leg_deeper_than_the_level_is_a_verification_error(self):
        sq = two_block_square(FGModule.free(T23, 1))
        data = pullback(sq, [[[Fraction(3, 2)]], [[1]]])
        assert data.to_core.den == 2
        shallow = dataclasses.replace(data, level=1)
        z = FGModule.free(T23, 1)
        legs = {i: ModuleMap(z, sq.local_modules[i], [[0]]) for i in sq.block_indices}
        with pytest.raises(VerificationError, match="the core leg has denominator 2"):
            mediate(shallow, ModuleMap(z, sq.core, [[0]]), legs)

    def test_incompatible_cone_rejected(self):
        sq = two_block_square(FGModule.free(T23, 1))
        data = pullback(sq, [identity_matrix(1), identity_matrix(1)])
        z = FGModule.free(T23, 1)
        cone_core = ModuleMap(z, sq.core, [[1]])
        legs = {
            sq.block_indices[0]: ModuleMap(z, sq.local_modules[sq.block_indices[0]], [[0]]),
            sq.block_indices[1]: ModuleMap(z, sq.local_modules[sq.block_indices[1]], [[1]]),
        }
        with pytest.raises(DomainError):
            mediate(data, cone_core, legs)

    def test_randomized_universal_property(self, rng):
        sq = two_block_square(FGModule.free(T23, 2))
        a1 = [[Fraction(1), Fraction(1, 3)], [Fraction(0), Fraction(1)]]
        a2 = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
        data = pullback(sq, [a1, a2])
        for _ in range(15):
            coeffs = [[rng.randint(-5, 5) for _ in range(data.module.ngens)] for _ in range(2)]
            z = FGModule.free(T23, 2)
            cone_core = ModuleMap(z, sq.core, [apply_row(data.to_core, c) for c in coeffs])
            legs = {
                i: ModuleMap(z, sq.local_modules[i],
                             [apply_row(data.projections[i], c) for c in coeffs])
                for i in sq.block_indices
            }
            m = mediate(data, cone_core, legs)
            direct = ModuleMap(z, data.module, coeffs)
            assert m.equal_map(direct)


class TestMatrixBounds:
    def test_matches_rank1_on_lines(self, rng):
        fam = make_family(T23, EMPTY, blocks=[PrimeSet.finite([2]), PrimeSet.finite([3])])
        sq = build_fracture(FGModule.free(T23, 1), fam)
        for _ in range(60):
            e2, e3 = rng.randint(-3, 3), rng.randint(-3, 3)
            v2, v3 = Fraction(2) ** e2, Fraction(3) ** e3
            alpha = make_aut(fam, exceptions={0: v2, 1: v3})
            above = is_bounded_above(alpha)
            both = is_bounded(alpha)
            assert int(is_bounded_above_matrix(sq, [[[v2]], [[v3]]])) == int(above.witness)
            assert int(is_bounded_matrix(sq, [[[v2]], [[v3]]])) == int(both.witness)

    def test_torsion_coordinates_do_not_inflate_the_bound(self):
        sq = two_block_square(FGModule.from_parts(T23, 1, [4]))
        twists = [identity_matrix(2), identity_matrix(2)]
        assert int(is_bounded_matrix(sq, twists)) == 1

    @staticmethod
    def fraction_bound(sq, twists, inverse_only):
        """The bound entry by entry over ``Fraction``: the largest power of
        each residual prime in a denominator of a twist row in Smith
        coordinates, skipping coordinates that are zero at the core."""
        data = sq.group._snf_data()
        s = 1
        for i, matrix in zip(sq.block_indices, twists):
            probes = [invert_rational(matrix)] + ([] if inverse_only else [matrix])
            worst = {}
            for rows in probes:
                for row in mat_mul(rows, data["right"]):
                    for pos, x in enumerate(row):
                        if pos < data["rank"] and xpart(data["diag"][pos], sq.family.S) == 1:
                            continue
                        for p, e in factorize(Fraction(x).denominator).items():
                            if p in sq.family.block_residual(i):
                                worst[p] = max(worst.get(p, 0), e)
            s *= prod(p**e for p, e in worst.items())
        return s

    def test_matches_fraction_reference(self, rng):
        # twists whose entries carry different denominators, over free and
        # torsion groups; a block's twist fixes the torsion coordinate
        dens = [1, 2, 3, 4, 6, 8, 9, 12]
        units = [1, 5, 7]
        groups = [
            FGModule.free(T23, 2),
            FGModule.from_parts(T23, 1, [12]),
            FGModule(T23, [[0, 6]], 2),
        ]
        for group in groups:
            sq = two_block_square(group)
            for _ in range(40):
                twists = []
                while len(twists) < 2:
                    m = [
                        [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(2)]
                        for _ in range(2)
                    ]
                    if group.relations:
                        m[1] = [0, Fraction(rng.choice(units), rng.choice(units))]
                    if mat_det(m) != 0:
                        twists.append(m)
                above = self.fraction_bound(sq, twists, True)
                both = self.fraction_bound(sq, twists, False)
                assert int(is_bounded_above_matrix(sq, twists)) == above
                assert int(is_bounded_matrix(sq, twists)) == both


class TestGenus:
    def test_distinct_cores_rejected(self):
        with pytest.raises(DomainError):
            genus_witness(FGModule.free(T23, 1), FGModule.from_parts(T23, 0, [2]), EMPTY)

    def test_line_with_itself(self):
        w = genus_witness(FGModule.free(T23, 1), FGModule.free(T23, 1), EMPTY)
        assert w.module.iso_class() == (1, ())
        assert w.first_certificate
        assert w.second_certificate

    def test_presentations_of_the_same_group(self):
        g = FGModule.free(T23, 1)
        h = FGModule(T23, [[2, 3]], 2)
        assert h.iso_class() == (1, ())
        w = genus_witness(g, h, EMPTY)
        assert w.module.iso_class() == (1, ())
        assert w.first_certificate and w.second_certificate

    def test_core_torsion_with_unit_parts(self):
        # 12 = 4 * 3 and 20 = 4 * 5 keep unit parts 3 and 5 at the core {2};
        # the canonical iso divides them out and must survive its round trip
        two = PrimeSet.finite([2])
        w = genus_witness(FGModule(T23, [[12]], 1), FGModule(T23, [[4]], 1), two)
        assert w.module.iso_class() == (0, ((2, 2), (3, 1)))
        assert (w.core_iso.num, w.core_iso.den) == (((1,),), 3)
        w = genus_witness(FGModule(T23, [[12, 0]], 2), FGModule(T23, [[0, 20]], 2), two)
        assert w.module.iso_class() == (1, ((2, 2), (3, 1)))
        assert (w.core_iso.num, w.core_iso.den) == (((0, 5), (3, 0)), 3)

    def test_square_commutes_through_the_core_iso(self):
        core = PrimeSet.finite([2])
        pairs = [
            (FGModule(T23, [[12, 0]], 2), FGModule(T23, [[0, 20]], 2)),
            (FGModule.from_parts(T23, 1, [4]), FGModule(T23, [[4, 0]], 2)),
            (FGModule.free(T23, 1), FGModule(T23, [[2, 3]], 2)),
        ]
        for first, second in pairs:
            w = genus_witness(first, second, core)
            _, down_first = first.localize(core)
            _, down_second = second.localize(core)
            via_first = w.to_first.compose(down_first).compose(w.core_iso)
            assert via_first.equal_map(w.to_second.compose(down_second))

    def test_torsion_tied_at_the_core(self):
        g = FGModule.from_parts(T23, 1, [4])
        h = FGModule(T23, [[4, 0]], 2)
        assert g.iso_class() == h.iso_class()
        w = genus_witness(g, h, PrimeSet.finite([2]))
        assert w.module.iso_class() == (1, ((2, 2),))
        assert w.first_certificate and w.second_certificate

    def test_torsion_floats_over_an_empty_core(self):
        g = FGModule.from_parts(T23, 1, [4])
        h = FGModule(T23, [[4, 0]], 2)
        w = genus_witness(g, h, EMPTY)
        assert w.module.iso_class() == (1, ((2, 2), (2, 2)))

    def test_prime_set_mismatch(self):
        with pytest.raises(ValueError):
            genus_witness(FGModule.free(T23, 1), FGModule.free(T235, 1), EMPTY)

    def test_unpairable_iso_is_a_verification_error(self):
        with pytest.raises(VerificationError, match="cannot pair generators"):
            abmod._canonical_iso(FGModule.free(T23, 2), FGModule.free(T23, 1))


class TestRandomSquares:
    def random_square(self, rng):
        pool = [2, 3, 5, 7, 11]
        t_primes = sorted(rng.sample(pool, rng.randint(2, 4)))
        s_size = rng.randint(0, 1)
        s_primes = sorted(rng.sample(t_primes, s_size))
        residual = [p for p in t_primes if p not in s_primes]
        rng.shuffle(residual)
        n_blocks = rng.randint(1, min(3, len(residual)))
        groups = [residual[i::n_blocks] for i in range(n_blocks)]
        blocks = [PrimeSet.finite(sorted(g + s_primes)) for g in groups if g]
        fam = make_family(PrimeSet.finite(t_primes), PrimeSet.finite(s_primes), blocks=blocks)
        n = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        group = FGModule(fam.T, rows, n)
        return fam, group

    def test_product_kernel_always_trivial(self, rng):
        for _ in range(12):
            fam, group = self.random_square(rng)
            sq = build_fracture(group, fam)
            assert torsion_check(sq).product_kernel_trivial

    def test_identity_pullback_matches_group_class(self, rng):
        for _ in range(10):
            fam, group = self.random_square(rng)
            sq = build_fracture(group, fam)
            twists = [identity_matrix(group.ngens) for _ in sq.block_indices]
            data = pullback(sq, twists)
            assert data.module.iso_class() == group.iso_class()
            assert is_localization(data.to_core, fam.S)

    def test_scalar_twists_keep_core_certification(self, rng):
        for _ in range(8):
            fam, group = self.random_square(rng)
            sq = build_fracture(group, fam)
            twists = []
            for i in sq.block_indices:
                res = list(fam.block_residual(i).iter_ascending())
                p = rng.choice(res)
                scalar = Fraction(p) ** rng.randint(-1, 1)
                twists.append([[scalar if r == c else Fraction(0) for c in range(group.ngens)]
                               for r in range(group.ngens)])
            data = pullback(sq, twists)
            assert is_localization(data.to_core, fam.S)
