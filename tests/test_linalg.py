import random
from fractions import Fraction

import pytest

from gradedaut import linalg

from oracles import det_oracle


def random_int_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_exgcd_identity():
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        g, x, y = linalg.exgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def _is_hermite(H):
    """Lower echelon: each nonzero column has a positive pivot (its first
    nonzero entry) below the one before, the entries left of a pivot
    lie in [0, pivot), and no nonzero column follows a zero one."""
    last = -1
    for c, col in enumerate(zip(*H)):
        p = next((i for i, x in enumerate(col) if x), None)
        if p is None:
            return not any(any(row[c:]) for row in H)
        if p <= last or col[p] <= 0:
            return False
        if not all(0 <= x < col[p] for x in H[p][:c]):
            return False
        last = p
    return True


def test_hermite_form_random():
    rng = random.Random(2)
    deficient = 0
    for _ in range(400):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        A = random_int_matrix(rng, m, n)
        for i in range(1, m):
            if rng.random() < 0.3:
                # repeat a combination of earlier rows: a rank drop
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                r1, r2 = A[rng.randrange(i)], A[rng.randrange(i)]
                A[i] = [a * x + b * y for x, y in zip(r1, r2)]
        H, V = linalg.hermite(A)
        assert linalg.mat_mul(A, V) == tuple(map(tuple, H))
        assert abs(det_oracle(V)) == 1
        assert _is_hermite(H), (A, H)
        rank = sum(map(any, zip(*H)))
        assert rank == linalg.rank(A)
        deficient += rank < min(m, n)
    assert deficient > 20


def test_hermite_form_edge_shapes():
    assert linalg.hermite([]) == ([], [])
    assert linalg.hermite([[], [], []]) == ([[], [], []], [])
    assert linalg.hermite([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]],
                                                [[1, 0], [0, 1]])
    H, V = linalg.hermite([[-3], [5]])
    assert H == [[3], [-5]] and V == [[-1]]


def test_rref_and_nullspace():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_int_matrix(rng, m, n)
        rk = linalg.rank(A)
        basis = linalg.nullspace(A)
        assert rk + len(basis) == n
        for v in basis:
            assert all(linalg.dot(row, v) == 0 for row in A)
        # basis vectors are linearly independent
        if basis:
            assert linalg.rank(basis) == len(basis)


def _reference_rref(M):
    """Gauss-Jordan elimination over Fractions, pivot by pivot."""
    R = [[Fraction(x) for x in row] for row in M]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = Fraction(1) / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def _reference_nullspace(M):
    R, pivots = _reference_rref(M)
    ncols = len(R[0])
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -R[r][f]
            basis.append(tuple(v))
    return basis


def _reference_inverse(rows):
    d = len(rows)
    R, pivots = _reference_rref([list(r) + [Fraction(int(i == j)) for j in range(d)]
                                 for i, r in enumerate(rows)])
    if pivots != list(range(d)):
        return None
    return [row[d:] for row in R[:d]]


def _random_entry(rng, kind):
    if kind == "big":
        return rng.randint(-10 ** 40, 10 ** 40) if rng.random() < 0.7 else 0
    x = rng.randint(-4, 4) if rng.random() < 0.7 else 0
    if kind == "rational":
        return Fraction(x, rng.randint(1, 6))
    return x


def _random_matrix(rng):
    """Integer, rational or 40-digit entries in wide, tall and square
    shapes, with zero rows and rows that repeat combinations of others."""
    kind = rng.choice(("int", "rational", "big"))
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    M = [[_random_entry(rng, kind) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        roll = rng.random()
        if roll < 0.1:
            M[i] = [0] * n
        elif roll < 0.3 and i:
            a, b = rng.randint(-2, 2), rng.choice((1, -1, Fraction(1, 3)))
            src1, src2 = M[rng.randrange(i)], M[rng.randrange(i)]
            M[i] = [a * x + b * y for x, y in zip(src1, src2)]
    return kind, M


def test_fraction_free_elimination_matches_fraction_loop():
    rng = random.Random(1020)
    seen = set()
    for _ in range(3000):
        kind, M = _random_matrix(rng)
        R, pivots = linalg.rref(M)
        assert (R, pivots) == _reference_rref(M)
        assert all(type(x) is Fraction for row in R for x in row)
        assert linalg.rank(M) == len(pivots)
        basis = linalg.nullspace(M)
        assert basis == _reference_nullspace(M)
        assert all(type(x) is Fraction for v in basis for x in v)
        m, n = len(M), len(M[0])
        seen.add((kind, "wide" if n > m else "tall" if m > n else "square",
                  len(pivots) < min(m, n)))
        if m == n:
            expected = _reference_inverse(M)
            if expected is None:
                with pytest.raises(ValueError):
                    linalg.inverse(M)
            else:
                inv = linalg.inverse(M)
                assert inv == expected
                assert all(type(x) is Fraction for row in inv for x in row)
    # every entry kind met every shape, at full and deficient rank
    assert len(seen) == 18
    assert linalg.rref([]) == ([], [])


def test_primitive_on_ints_fractions_zero_and_negatives():
    assert linalg.primitive((4, -6, 0)) == (2, -3, 0)
    assert linalg.primitive((-3, 0)) == (-1, 0)
    assert linalg.primitive((Fraction(1, 2), Fraction(-1, 3), 2)) == (3, -2, 12)
    assert linalg.primitive((Fraction(-4, 6), Fraction(2, 3))) == (-1, 1)
    assert linalg.primitive((0, 0, 0)) == (0, 0, 0)
    assert linalg.primitive((Fraction(0), 0)) == (0, 0)
    assert linalg.primitive(()) == ()
    assert all(type(x) is int
               for x in linalg.primitive((Fraction(5, 7), Fraction(-10, 7))))
