"""Exact integer and rational matrix routines.

Everything here follows the row convention: module elements are row
vectors, a map sends ``v`` to ``v @ F``, and a relation matrix lists one
relation per row.  Matrices are lists of lists of ``int`` or
``fractions.Fraction``; there is no numpy in sight because every result
must be exact and unimodularity matters more than speed at these sizes.
"""

from __future__ import annotations

from fractions import Fraction


def mat_copy(a):
    return [list(row) for row in a]


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x == 0:
                continue
            brow = b[k]
            for j in range(cols):
                acc[j] += x * brow[j]
        out.append(acc)
    return out


def row_vec_mul(v, m):
    return mat_mul([list(v)], m)[0]


def mat_det(a) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for j in range(col, n):
                m[r][j] -= factor * m[col][j]
    return det


def invert_unimodular(a):
    """Inverse of an integer matrix with det +-1, returned over int.

    Raises ValueError when the matrix is not invertible over the integers.
    """
    inv = invert_rational(a)
    out = []
    for row in inv:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            irow.append(int(x))
        out.append(irow)
    return out


def invert_rational(a):
    """Exact inverse over Q via Gauss-Jordan; ValueError if singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r == col or m[r][col] == 0:
                continue
            factor = m[r][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def rational_row_solve(rows, v):
    """Coefficients c with c @ rows == v over Q, or None if v is outside the span.

    Dependent rows are fine; free coefficients come back as 0.  The package
    decides relation-lattice membership in Smith coordinates instead (see
    ``FGModule.element_is_zero``); this direct solve over Q is the
    independent reference that decision is tested against.
    """
    k = len(rows)
    n = len(v)
    if any(len(row) != n for row in rows):
        raise ValueError("row lengths do not match the target vector")
    # Augmented system rows^T | v^T, unknowns are the k coefficients.
    m = [[Fraction(rows[j][i]) for j in range(k)] + [Fraction(v[i])] for i in range(n)]
    pivots = []
    row_at = 0
    for col in range(k):
        pivot_row = next((r for r in range(row_at, n) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[row_at], m[pivot_row] = m[pivot_row], m[row_at]
        inv = 1 / m[row_at][col]
        m[row_at] = [x * inv for x in m[row_at]]
        for r in range(n):
            if r != row_at and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row_at])]
        pivots.append((row_at, col))
        row_at += 1
    for r in range(row_at, n):
        if m[r][k] != 0:
            return None
    c = [Fraction(0)] * k
    for r, col in pivots:
        c[col] = m[r][k]
    return c


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, k):
    """row[dst] += k * row[src]"""
    m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]


def _add_col(m, dst, src, k):
    for row in m:
        row[dst] += k * row[src]


def smith_normal_form(a):
    """Smith normal form with transforms: returns (D, L, R) with L a R = D.

    L and R are unimodular over the integers, D is diagonal with
    d_1 | d_2 | ... and nonnegative entries.  The pivot at each step is the
    smallest nonzero entry in absolute value, ties broken by lowest
    (row, col); this keeps runs reproducible.
    """
    d = mat_copy(a)
    rows = len(d)
    cols = len(d[0]) if rows else 0
    left = identity_matrix(rows)
    right = identity_matrix(cols)

    def pick_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(d[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    t = 0
    while t < min(rows, cols):
        found = pick_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            _swap_rows(d, t, pi)
            _swap_rows(left, t, pi)
        if pj != t:
            _swap_cols(d, t, pj)
            _swap_cols(right, t, pj)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            left[t] = [-x for x in left[t]]

        dirty = False
        for i in range(t + 1, rows):
            if d[i][t] == 0:
                continue
            q = d[i][t] // d[t][t]
            _add_row(d, i, t, -q)
            _add_row(left, i, t, -q)
            if d[i][t]:
                dirty = True
        for j in range(t + 1, cols):
            if d[t][j] == 0:
                continue
            q = d[t][j] // d[t][t]
            _add_col(d, j, t, -q)
            _add_col(right, j, t, -q)
            if d[t][j]:
                dirty = True
        if dirty:
            continue  # remainders appeared; re-pick a smaller pivot

        # pivot now divides nothing in its row/col; enforce divisibility
        # into the remaining interior before moving on.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(d, t, offender, 1)
            _add_row(left, t, offender, 1)
            continue
        t += 1

    return d, left, right


def left_kernel_basis(a):
    """Basis rows for {v integer row : v @ a == 0}.

    Read off the Hermite transform: with U a == H padded by zero rows, the
    rows of U that produce the zero rows span the kernel saturatedly, since
    U is unimodular and the rows of H are independent.
    """
    h, u = hnf_with_transform(a)
    return u[len(h) :]


def hnf_rows(a):
    """Row Hermite normal form: staircase, positive pivots, reduced above.

    Zero rows are dropped, so the result is a basis of the row lattice.
    """
    return _hermite(a, len(a[0]) if a else 0)[0]


def hnf_with_transform(a):
    """Row HNF plus a transform: returns (H, U) with U @ a == H_padded.

    U is unimodular over the integers and has one row per input row; the
    first len(H) rows of U @ a equal H and the rest are zero.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(row) + [int(i == j) for j in range(rows)] for i, row in enumerate(a)]
    pivots, vanished = _hermite(aug, cols)
    return [row[:cols] for row in pivots], [row[cols:] for row in pivots + vanished]


def _hermite(a, cols):
    """HNF on the first ``cols`` columns, carrying any further columns along.

    Returns (pivot rows, vanished rows): the staircase rows in pivot order,
    and the rows that end up zero on the first ``cols`` columns, most
    recently emptied first.
    """
    live, vanished = [], []
    for row in a:
        (live if any(row[:cols]) else vanished).append(list(row))
    done, pivot_cols = [], []
    for col in range(cols):
        if not live:
            break
        nonzero = [row for row in live if row[col] != 0]
        rest = [row for row in live if row[col] == 0]
        while len(nonzero) > 1:
            nonzero.sort(key=lambda row: abs(row[col]))
            base = nonzero[0]
            reduced = [base]
            for row in nonzero[1:]:
                q = row[col] // base[col]
                new = [x - q * y for x, y in zip(row, base)]
                (reduced if new[col] != 0 else rest).append(new)
            nonzero = reduced
        if nonzero:
            pivot = nonzero[0]
            done.append([-x for x in pivot] if pivot[col] < 0 else pivot)
            pivot_cols.append(col)
        # rows in rest are zero up to col, so only later columns can keep them live
        live, emptied = [], []
        for row in rest:
            (live if any(row[col + 1 : cols]) else emptied).append(row)
        vanished = emptied + vanished
    # reduce entries above each pivot; ascending order keeps already-fixed
    # pivot columns untouched (later rows are zero there)
    for i in range(1, len(done)):
        pcol = pivot_cols[i]
        for k in range(i):
            q = done[k][pcol] // done[i][pcol]
            if q:
                done[k] = [x - q * y for x, y in zip(done[k], done[i])]
    return done, vanished


def row_span_solve(h, v):
    """Coordinates of row vector v in the HNF basis h, or None.

    h must come from ``hnf_rows``; back substitution down the staircase
    either produces integer coordinates or proves v is outside the lattice.
    """
    v = list(v)
    coords = []
    for row in h:
        pcol = next(j for j, x in enumerate(row) if x != 0)
        if v[pcol] % row[pcol] != 0:
            return None
        q = v[pcol] // row[pcol]
        coords.append(q)
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        return None
    return coords


def lattice_equal(a, b) -> bool:
    return hnf_rows(a) == hnf_rows(b)
