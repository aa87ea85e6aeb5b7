"""Exact integer and rational matrix routines.

A matrix is a list (or tuple) of rows, each row a sequence of Python
ints or Fractions, so every operation here is exact.  Row vectors passed
around the rest of the package are plain tuples.

Elimination is fraction-free: `integer_rref` scales each row to
integers by the lcm of its denominators, which changes no reduced
echelon form, and reduces it by integer cross-multiplication with its
content divided out.  `rref` is its Fraction view, built once for the
result; callers that read only pivots or signs, `rank` among them,
take the integer rows.

Two eliminations serve every question.  The integer ones, a
subgroup's index and section and whether vectors span a saturated
sublattice, are read off one column Hermite form built by column
operations alone; rank, inverse and nullspace off one `integer_rref`.
The lattice-basis search asks one Hermite form per subset it tries: on
seven coordinate blocks of (2,1), (1,2), (1,4), whose 21 primitive
weights generate Z^14 but hold no basis, it refuses after 315 forms,
where a scan of determinants would take all C(21, 14) = 116,280.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def dot(u, v):
    return sum(map(mul, u, v))


def mat_vec(rows, v):
    """Apply a matrix given as a tuple of row tuples to a vector."""
    return tuple(dot(row, v) for row in rows)


def mat_mul(a, b):
    """Product of two matrices given as tuples of row tuples."""
    bt = list(zip(*b)) if b else []
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _integer_row(row) -> list[int]:
    """The row times the lcm of its entries' denominators: ints only."""
    scale = lcm(*(x.denominator for x in row))
    if scale == 1:
        return [x.numerator for x in row]
    return [x.numerator * (scale // x.denominator) for x in row]


def primitive(vector) -> tuple[int, ...]:
    """Coprime integer vector with the same direction; zero stays zero."""
    ints = _integer_row(vector)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def exgcd(a: int, b: int):
    """Extended gcd: (g, x, y) with g = a*x + b*y and g >= 0."""
    x, y, u, v = 1, 0, 0, 1
    while b != 0:
        q, r = divmod(a, b)
        a, b = b, r
        x, u = u, x - q * u
        y, v = v, y - q * v
    if a < 0:
        a, x, y = -a, -x, -y
    return a, x, y


def _colop(M, i, j, a, b, c, d):
    for row in M:
        x, y = row[i], row[j]
        row[i] = a * x + b * y
        row[j] = c * x + d * y


def hermite(A):
    """Column Hermite form with its transform.

    Returns row lists (H, V) with H = A V and V unimodular.  H is lower
    echelon: each nonzero column has a positive pivot in a later row
    than the column before, the entries left of a pivot lie in
    [0, pivot), and the columns past the rank are zero.
    """
    m = len(A)
    n = len(A[0]) if A else 0
    # A above the identity: each column operation builds H and V at once
    M = [list(row) for row in A] + [[int(i == j) for j in range(n)]
                                    for i in range(n)]
    r = 0
    for row in M[:m]:
        if r == n:
            break
        for j in range(r + 1, n):
            if row[j]:
                g, x, y = exgcd(row[r], row[j])
                _colop(M, r, j, x, y, -row[j] // g, row[r] // g)
        if row[r] < 0:
            for R in M:
                R[r] = -R[r]
        if row[r]:
            for c in range(r):
                _colop(M, c, r, 1, -(row[c] // row[r]), 0, 1)
            r += 1
    return M[:m], M[m:]


def unimodular_subset(vectors, k: int):
    """Indices of the first k of `vectors`, in combinations order, that
    form a lattice basis of Z^k, or None.

    Only primitive vectors can lie in a basis, and a basis among them
    generates Z^k, so the search runs only when the column Hermite form
    of them, as columns, has unit diagonal.  It then walks their
    subsets depth first in combinations order and extends a subset only
    when the column Hermite form of its vectors, as rows, has every
    pivot 1: when they span a saturated sublattice, as every part of a
    basis does.  The first full subset reached is the first basis.
    """
    primitive_idx = [i for i, v in enumerate(vectors) if gcd(*v) == 1]
    if len(primitive_idx) < k:
        return None
    H = hermite(list(zip(*(vectors[i] for i in primitive_idx))))[0]
    if any(H[i][i] != 1 for i in range(k)):
        return None

    def extend(chosen, start):
        if len(chosen) == k:
            return chosen
        for t in range(start, len(primitive_idx) - k + len(chosen) + 1):
            trial = chosen + (primitive_idx[t],)
            H = hermite([vectors[i] for i in trial])[0]
            if all(H[i][i] == 1 for i in range(len(trial))):
                found = extend(trial, t + 1)
                if found is not None:
                    return found
        return None

    return extend((), 0)


def integer_rref(M):
    """Reduced row echelon form, each row scaled to integers.

    Returns (rows, pivot_columns): rows is a list of int lists, row r
    with its nonzero pivot in column pivot_columns[r], of either sign,
    and zeros in the other pivot columns; the rows past the rank are
    zero.  A row keeps its content when no elimination step changes it,
    and is primitive after one does.  Dividing each row by its pivot
    gives `rref`.
    """
    R = [_integer_row(row) for row in M]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        top = R[r]
        a = top[c]
        for i in range(nrows):
            f = R[i][c]
            if i != r and f:
                # a nonzero multiple of the rational update, made primitive
                row = [a * x - f * y for x, y in zip(R[i], top)]
                g = gcd(*row)
                R[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def rref(M):
    """Reduced row echelon form over the rationals: `integer_rref` with
    each row divided by its pivot.

    Returns (rows, pivot_columns) where rows is a list of lists of
    Fractions.
    """
    R, pivots = integer_rref(M)
    zero = Fraction(0)
    out = [[Fraction(x, row[c]) if x else zero for x in row]
           for row, c in zip(R, pivots)]
    out += [[zero] * len(row) for row in R[len(pivots):]]
    return out, pivots


def rank(M) -> int:
    return len(integer_rref(M)[1])


def nullspace(M, ncols: int | None = None):
    """Basis of {x : M x = 0} over the rationals, as tuples of Fractions.

    One basis vector per free column, in free-column order; the result is
    in the echelon shape induced by rref.
    """
    M = [list(r) for r in M]
    if not M:
        if ncols is None:
            raise ValueError("nullspace of an empty system needs ncols")
        return [tuple(Fraction(int(i == j)) for j in range(ncols))
                for i in range(ncols)]
    R, pivots = rref(M)
    ncols = len(R[0])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(tuple(v))
    return basis


def inverse(rows):
    """Rational inverse of a square matrix, as row lists of Fractions."""
    d = len(rows)
    aug = [list(r) + [int(i == j) for j in range(d)]
           for i, r in enumerate(rows)]
    R, pivots = rref(aug)
    if pivots != list(range(d)):
        raise ValueError("matrix is singular")
    return [row[d:] for row in R[:d]]

