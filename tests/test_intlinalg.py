import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from genuskit.intlinalg import (
    hnf_rows,
    hnf_with_transform,
    identity_matrix,
    invert_rational,
    invert_unimodular,
    lattice_equal,
    left_kernel_basis,
    mat_det,
    mat_mul,
    row_span_solve,
    row_vec_mul,
    smith_normal_form,
)

from conftest import lattice_contains, random_matrix


def smith_diagonal(a):
    d, _, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def gcd_of_minors(a, k: int) -> int:
    """gcd of all k x k minors; the classical oracle for Smith invariants."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if k == 0:
        return 1
    if k > min(rows, cols):
        return 0
    g = 0
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            g = gcd(g, int(mat_det([[a[i][j] for j in csel] for i in rsel])))
            if g == 1:
                return 1
    return g


class TestSmithNormalForm:
    def test_textbook_example(self):
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        assert smith_diagonal(a) == [2, 2, 156]

    def test_transforms_multiply_out(self):
        a = [[1, 2], [3, 4], [5, 6]]
        d, left, right = smith_normal_form(a)
        assert mat_mul(mat_mul(left, a), right) == d
        assert abs(mat_det(left)) == 1
        assert abs(mat_det(right)) == 1

    def test_divisibility_chain(self):
        rng = random.Random(101)
        for _ in range(150):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -30, 30)
            diag = smith_diagonal(a)
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0
                # zero may only follow zero or any nonzero, never precede one
            seen_zero = False
            for x in diag:
                if x == 0:
                    seen_zero = True
                else:
                    assert not seen_zero

    def test_matches_minor_gcd_oracle(self):
        # d_1 * ... * d_k equals the gcd of all k x k minors
        rng = random.Random(7)
        for _ in range(60):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -9, 9)
            diag = smith_diagonal(a)
            prod = 1
            for k, d in enumerate(diag, start=1):
                prod *= d
                assert prod == gcd_of_minors(a, k)

    def test_transforms_unimodular_randomized(self):
        rng = random.Random(13)
        for _ in range(100):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -20, 20)
            d, left, right = smith_normal_form(a)
            assert mat_mul(mat_mul(left, a), right) == d
            assert abs(mat_det(left)) == 1
            assert abs(mat_det(right)) == 1

    def test_zero_and_identity(self):
        assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
        assert smith_diagonal(identity_matrix(3)) == [1, 1, 1]

    def test_matches_sympy_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(4649)
        for k in range(120):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            a = random_matrix(rng, rows, cols, -40, 40)
            if k % 3 == 1 and rows > 1:
                a[-1] = [x - 3 * y for x, y in zip(a[0], a[1 % rows])]  # rank-deficient
            if k % 3 == 2:
                for i in rng.sample(range(rows), rng.randint(1, rows)):
                    a[i] = [0] * cols
            d, left, right = smith_normal_form(a)
            assert mat_mul(mat_mul(left, a), right) == d
            assert abs(mat_det(left)) == 1
            assert abs(mat_det(right)) == 1
            expected = invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
            assert smith_diagonal(a) == [abs(int(x)) for x in expected], a

    def test_transform_entries_stay_small(self):
        # A smallest-pivot elimination reaches 4512 bits on this matrix.
        a = random_matrix(random.Random(40), 40, 40, -9, 9)
        d, left, right = smith_normal_form(a)
        assert mat_mul(mat_mul(left, a), right) == d
        bits = max(abs(x).bit_length() for m in (left, right) for row in m for x in row)
        assert bits <= 451


class TestKernels:
    def test_simple_kernel(self):
        # rows (1,2) and (2,4) are dependent; kernel is spanned by (2,-1)
        basis = left_kernel_basis([[1, 2], [2, 4]])
        assert len(basis) == 1
        assert basis[0] in ([2, -1], [-2, 1])

    def test_kernel_annihilates_and_is_saturated(self):
        rng = random.Random(29)
        for _ in range(120):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), -15, 15)
            basis = left_kernel_basis(a)
            for v in basis:
                assert all(x == 0 for x in row_vec_mul(v, a))
            # saturation: any integer kernel vector must lie in the span
            if basis:
                h = hnf_rows(basis)
                coeffs = [rng.randint(-4, 4) for _ in basis]
                v = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(a))]
                assert lattice_contains(h, v)

    def test_rank_nullity(self):
        rng = random.Random(37)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(rng, rows, cols, -10, 10)
            rank = sum(1 for d in smith_diagonal(a) if d != 0)
            assert len(left_kernel_basis(a)) == rows - rank


def smith_left_kernel(a):
    """The left kernel read off a full Smith form: rows of L at zero rows of D."""
    d, left, _ = smith_normal_form(a)
    cols = len(a[0]) if a else 0
    rank = sum(1 for i in range(min(len(a), cols)) if d[i][i] != 0)
    return [left[i] for i in range(rank, len(a))]


class TestHermiteKernel:
    def test_matches_the_smith_form_kernel(self):
        rng = random.Random(8191)
        shapes = set()
        for _ in range(300):
            rows, cols = rng.randint(1, 7), rng.randint(0, 7)
            shapes.add("wide" if cols > rows else "tall" if rows > cols else "square")
            a = random_matrix(rng, rows, cols, -9, 9)
            for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
                a[i] = [0] * cols
            for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
                for row in a:
                    row[j] = 0
            if rows > 1 and rng.random() < 0.3:
                a[-1] = [x + 2 * y for x, y in zip(a[0], a[1])]
            basis = left_kernel_basis(a)
            for v in basis:
                assert not any(row_vec_mul(v, a))
            assert hnf_rows(basis) == hnf_rows(smith_left_kernel(a)), a
        assert shapes == {"wide", "tall", "square"}


class TestHermite:
    def test_known_forms(self):
        # already in normal form
        assert hnf_rows([[2, 0, 1], [0, 3, 1]]) == [[2, 0, 1], [0, 3, 1]]
        # dependent rows collapse
        assert hnf_rows([[4, 6], [2, 3]]) == [[2, 3]]
        # gcd appears in the pivot, entries above reduce
        assert hnf_rows([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]

    def test_span_preserved(self):
        rng = random.Random(43)
        for _ in range(120):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -12, 12)
            h = hnf_rows(a)
            for row in a:
                assert any(row) is False or lattice_contains(h, row) or not any(row)
                if any(row):
                    assert lattice_contains(h, row)
            # and conversely every basis row is an integer combination of a
            ha = hnf_rows(a)
            assert lattice_equal(list(a) + ha, a)

    def test_staircase_shape(self):
        rng = random.Random(53)
        for _ in range(80):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -9, 9)
            h = hnf_rows(a)
            pivots = []
            for row in h:
                pcol = next(j for j, x in enumerate(row) if x != 0)
                assert row[pcol] > 0
                pivots.append(pcol)
                for above in h[: h.index(row)]:
                    assert 0 <= above[pcol] < row[pcol]
            assert pivots == sorted(pivots)

    def test_transform_reproduces(self):
        rng = random.Random(59)
        for _ in range(80):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -9, 9)
            h, u = hnf_with_transform(a)
            prod = mat_mul(u, a)
            assert prod[: len(h)] == h
            assert all(all(x == 0 for x in row) for row in prod[len(h) :])
            assert abs(mat_det(u)) == 1

    def test_transform_form_matches_plain_form(self):
        # Both entry points run the same elimination; the transform's form must
        # be the plain form, also with zero rows, zero columns and empty input.
        assert hnf_with_transform([]) == ([], [])
        a = [[0, 0, 0], [0, 2, 4], [0, 0, 0], [0, 3, 6]]
        assert hnf_with_transform(a)[0] == hnf_rows(a) == [[0, 1, 2]]
        rng = random.Random(61)
        for _ in range(400):
            rows, cols = rng.randint(0, 6), rng.randint(1, 6)
            a = [[rng.choice([0, 0, rng.randint(-12, 12)]) for _ in range(cols)] for _ in range(rows)]
            if rows and rng.random() < 0.4:
                a[rng.randrange(rows)] = [0] * cols
            if rng.random() < 0.4:
                j = rng.randrange(cols)
                for row in a:
                    row[j] = 0
            if rows and rng.random() < 0.3:
                a.append([rng.choice([-2, 3]) * x for x in a[0]])
            h, u = hnf_with_transform(a)
            assert h == hnf_rows(a)
            assert len(u) == len(a)
            prod = mat_mul(u, a)
            assert prod[: len(h)] == h
            assert not any(any(row) for row in prod[len(h) :])
            if a:
                assert abs(mat_det(u)) == 1

    def test_row_span_solve(self):
        h = hnf_rows([[2, 0, 1], [0, 3, 1]])
        assert row_span_solve(h, [2, 3, 2]) == [1, 1]
        assert row_span_solve(h, [1, 0, 0]) is None
        assert row_span_solve(h, [0, 0, 0]) == [0, 0]

    def test_lattice_sum(self):
        a = [[2, 0]]
        b = [[0, 3], [3, 0]]
        s = hnf_rows(a + b)
        assert lattice_equal(s, [[1, 0], [0, 3]])


class TestInverses:
    def test_unimodular_roundtrip(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = identity_matrix(n)
            # random integer row operations keep det = +-1
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    k = rng.randint(-3, 3)
                    m[i] = [x + k * y for x, y in zip(m[i], m[j])]
            inv = invert_unimodular(m)
            assert mat_mul(m, inv) == identity_matrix(n)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            invert_unimodular([[2, 0], [0, 1]])
        with pytest.raises(ValueError):
            invert_unimodular([[1, 1], [1, 1]])

    def test_rational_inverse(self):
        m = [[Fraction(1, 2), 0], [1, 3]]
        inv = invert_rational(m)
        prod = mat_mul(m, inv)
        assert prod == [[1, 0], [0, 1]]


def test_det_matches_cofactor_expansion():
    rng = random.Random(67)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    for _ in range(80):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, -8, 8)
        assert mat_det(m) == cofactor_det(m)


def test_gcd_of_minors_edges():
    assert gcd_of_minors([[6, 10], [15, 0]], 1) == 1
    assert gcd_of_minors([[6, 10], [15, 0]], 2) == abs(6 * 0 - 10 * 15)
    assert gcd_of_minors([[2, 4]], 2) == 0
