"""Exact integer and rational matrix routines.

Everything here follows the row convention: module elements are row
vectors, a map sends ``v`` to ``v @ F``, and a relation matrix lists one
relation per row.  Matrices are lists of lists of ``int`` or
``fractions.Fraction``; there is no numpy in sight because every result
must be exact and unimodularity matters more than speed at these sizes.
"""

from __future__ import annotations

from fractions import Fraction


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


def smith_normal_form(a):
    """Smith normal form with transforms: returns (D, L, R) with L a R = D.

    L and R are unimodular over the integers, D is diagonal with
    d_1 | d_2 | ... and nonnegative entries.  Hermite passes alternate
    until the matrix is diagonal: a row pass carries L as extra columns,
    and a column pass on the transpose carries the rows of R^T.  Where
    some d_i does not divide a later d_j, column j is added to column i
    and the passes resume.  All elimination is ``_hermite``; going through
    Hermite forms keeps the transform entries far smaller than pivoting on
    the smallest entry does (Kannan-Bachem 1979).
    """
    rows, cols = len(a), len(a[0]) if a else 0
    d, left, right_t = a, identity_matrix(rows), identity_matrix(cols)
    while True:
        d, left = _hermite_pass(d, left)
        if not _is_diagonal(d):
            dt, right_t = _hermite_pass(_transpose(d), right_t)
            d = _transpose(dt)
            if not _is_diagonal(d):
                continue
        n = min(rows, cols)
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n) if d[i][i] and d[j][j] % d[i][i])
        i, j = next(pairs, (None, None))
        if i is None:
            return d, left, _transpose(right_t)
        d[j][i] = d[j][j]
        right_t[i] = [x + y for x, y in zip(right_t[i], right_t[j])]


def _hermite_pass(m, carry):
    """Rows of m in Hermite form, zero rows last, with the rows of carry riding along."""
    cols = len(m[0]) if m else 0
    pivots, vanished = _hermite([list(row) + extra for row, extra in zip(m, carry)], cols)
    done = pivots + vanished
    return [row[:cols] for row in done], [row[cols:] for row in done]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _is_diagonal(m):
    return not any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j)


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
    h, u = _hermite_pass(a, identity_matrix(len(a)))
    return [row for row in h if any(row)], u


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
