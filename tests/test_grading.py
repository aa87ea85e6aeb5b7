import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest

from gradedaut import linalg
from gradedaut.errors import StructuralError
from conftest import QUADRIC8_AUT_MATRICES
from oracles import solve
from gradedaut.grading import (DegreeMatrix, GradingGroup, GroupAutomorphism,
                               GroupElement, check_effective, check_pointed,
                               degree_of_exponent, subgroup_presentation)


def test_element_reduction_and_addition(quadric8_group, quadric8_Q):
    q = quadric8_Q.columns
    s = q[0] + q[5]
    assert s == quadric8_group.element((0, 0, 2), (1,))
    zero = quadric8_group.zero()
    assert q[2] + zero == q[2]
    two = GradingGroup(0, (2,))
    eps = two.element((), (1,))
    assert (eps + eps).is_zero()
    assert two.element((), (3,)) == eps


def test_element_group_mismatch():
    a = GradingGroup(1).element((1,))
    b = GradingGroup(2).element((1, 0))
    with pytest.raises(StructuralError):
        a + b


def test_degree_of_exponent(quadric8_group, quadric8_Q):
    e3 = (0, 0, 1, 0, 0, 0, 0, 0)
    assert degree_of_exponent(quadric8_Q, e3) == quadric8_Q.columns[2]
    assert degree_of_exponent(quadric8_Q, (0,) * 8) == quadric8_group.zero()
    e16 = (1, 0, 0, 0, 0, 1, 0, 0)
    assert degree_of_exponent(quadric8_Q, e16) == quadric8_group.element((0, 0, 2), (1,))
    with pytest.raises(StructuralError):
        degree_of_exponent(quadric8_Q, (1, 2))


def test_degree_of_exponent_additive(quadric8_Q):
    rng = random.Random(11)
    for _ in range(50):
        e = tuple(rng.randint(0, 3) for _ in range(8))
        f = tuple(rng.randint(0, 3) for _ in range(8))
        ef = tuple(a + b for a, b in zip(e, f))
        assert degree_of_exponent(quadric8_Q, ef) == \
            degree_of_exponent(quadric8_Q, e) + degree_of_exponent(quadric8_Q, f)


def effective_oracle(Q):
    """Index of the column span, via maximal minors plus a subgroup walk
    in (Z/p)^(k+l) for each prime dividing the minor gcd."""
    group = Q.group
    total = group.coordinate_count
    cols = [list(c.coordinates) for c in Q.columns]
    for j, a in enumerate(group.torsion_orders):
        rel = [0] * total
        rel[group.free_rank + j] = a
        cols.append(rel)
    if total == 0:
        return True
    g = 0
    for subset in combinations(range(len(cols)), total):
        M = [[cols[j][i] for j in subset] for i in range(total)]
        # permutation expansion, independent of the elimination code
        d = 0
        for perm in permutations(range(total)):
            sign = 1
            for i in range(total):
                for jj in range(i + 1, total):
                    if perm[i] > perm[jj]:
                        sign = -sign
            prod = 1
            for i in range(total):
                prod *= int(M[i][perm[i]])
            d += sign * prod
        g = g if d == 0 else (d if g == 0 else __import__("math").gcd(g, d))
    g = abs(g)
    if g == 0:
        return False
    if g == 1:
        return True
    for p in range(2, g + 1):
        if g % p:
            continue
        seen = {(0,) * total}
        frontier = [(0,) * total]
        while frontier:
            cur = frontier.pop()
            for col in cols:
                nxt = tuple((a + b) % p for a, b in zip(cur, col))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) < p ** total:
            return False
    return True


def pointed_oracle(Q):
    """Zero in the convex hull of the free parts, by exact barycentric
    solves over all small subsets."""
    vecs = [list(c.free_part) for c in Q.columns]
    k = Q.group.free_rank
    for size in range(1, min(len(vecs), k + 1) + 1):
        for subset in combinations(range(len(vecs)), size):
            rows = [[vecs[j][i] for j in subset] for i in range(k)]
            rows.append([1] * size)
            rhs = [0] * k + [1]
            sol = solve(rows, rhs)
            if sol is not None and all(x >= 0 for x in sol):
                return False
    return True


def test_check_effective_examples(quadric8_Q):
    assert check_effective(quadric8_Q) is True
    z = GradingGroup(1)
    assert check_effective(DegreeMatrix((z.element((2,)),))) is False
    zz2 = GradingGroup(1, (2,))
    Q = DegreeMatrix((zz2.element((1,), (0,)), zz2.element((0,), (1,))))
    assert check_effective(Q) is True


def test_check_pointed_examples(quadric8_Q):
    assert check_pointed(quadric8_Q) is True
    z = GradingGroup(1)
    assert check_pointed(DegreeMatrix((z.element((1,)), z.element((-1,))))) is False
    z2 = GradingGroup(2)
    Q = DegreeMatrix(tuple(z2.element(v) for v in ((1, 0), (0, 1), (1, 1))))
    assert check_pointed(Q) is True
    # a zero free part is never pointed, including the pure-torsion case
    two = GradingGroup(0, (2,))
    assert check_pointed(DegreeMatrix((two.element((), (1,)),))) is False


def _assert_positive_functional(Q):
    """phi is a primitive int vector with phi . q_i^0 >= 1 for all i."""
    phi = Q.positive_functional
    assert type(phi) is tuple and len(phi) == Q.group.free_rank
    assert all(type(x) is int for x in phi)
    assert linalg.primitive(phi) == phi
    assert all(linalg.dot(phi, v) >= 1 for v in Q.free_parts())


def test_positive_functional_examples():
    z2 = GradingGroup(2)
    Q = DegreeMatrix(tuple(z2.element(v) for v in ((1, 0), (0, 1), (1, 1))))
    _assert_positive_functional(Q)
    for free in (((1, 0), (-1, 0)), ((0, 0),)):
        Q = DegreeMatrix(tuple(z2.element(v) for v in free))
        assert Q.positive_functional is None
    # free rank 0: every free part is the empty zero vector
    z3 = GradingGroup(0, (3,))
    assert DegreeMatrix((z3.element((), (1,)),)).positive_functional is None


def random_degree_matrix(rng, k, l, r, lo=-2, hi=2):
    orders = tuple(rng.choice((2, 3)) for _ in range(l))
    group = GradingGroup(k, orders)
    cols = []
    for _ in range(r):
        free = tuple(rng.randint(lo, hi) for _ in range(k))
        tors = tuple(rng.randint(0, a - 1) for a in orders)
        cols.append(group.element(free, tors))
    return DegreeMatrix(tuple(cols))


def test_check_effective_matches_oracle():
    rng = random.Random(12)
    hits = {True: 0, False: 0}
    for _ in range(60):
        Q = random_degree_matrix(rng, rng.randint(0, 2), rng.randint(0, 2),
                                 rng.randint(1, 4))
        got = check_effective(Q)
        assert got == effective_oracle(Q)
        hits[got] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_check_pointed_matches_oracle():
    rng = random.Random(13)
    hits = {True: 0, False: 0}
    for _ in range(120):
        Q = random_degree_matrix(rng, rng.randint(1, 3), rng.randint(0, 1),
                                 rng.randint(1, 6))
        got = check_pointed(Q)
        assert got == pointed_oracle(Q)
        if got:
            _assert_positive_functional(Q)
        hits[got] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_positive_functional_depends_only_on_the_weight_cone():
    """Reordering the columns, repeating one, adding a positive multiple of
    one or changing torsion parts leaves the weight cone and so phi as it
    is; the monomial order read from phi does not see column order."""
    rng = random.Random(14)
    hits = {True: 0, False: 0}
    for _ in range(120):
        Q = random_degree_matrix(rng, rng.randint(1, 4), rng.randint(0, 1),
                                 rng.randint(1, 6))
        group, cols = Q.group, list(Q.columns)
        rng.shuffle(cols)
        q, m = rng.choice(cols), rng.randint(2, 3)
        cols.append(rng.choice(cols))
        cols.append(group.element(tuple(m * x for x in q.free_part),
                                  (0,) * len(group.torsion_orders)))
        phi = Q.positive_functional
        assert DegreeMatrix(tuple(cols)).positive_functional == phi
        hits[phi is not None] += 1
    assert hits[True] > 0 and hits[False] > 0


def quadric8_auts(group):
    return [GroupAutomorphism(group, m) for m in QUADRIC8_AUT_MATRICES]


def test_automorphism_moves_weights_as_expected(quadric8_group, quadric8_Q):
    auts = quadric8_auts(quadric8_group)
    q = quadric8_Q.columns
    assert auts[0].apply(q[3]) == q[3]
    assert auts[1].apply(q[1]) == q[4]
    assert auts[3].apply(q[6]) == q[7]


def test_automorphism_involutions_and_products(quadric8_group):
    ident, m2, m3, m4 = quadric8_auts(quadric8_group)
    assert m2.compose(m2) == ident
    assert m3.compose(m3) == ident
    assert m2.compose(m3) == m4
    assert m3.compose(m2) == m4


def test_display_round_trip(quadric8_group):
    for m in QUADRIC8_AUT_MATRICES:
        aut = GroupAutomorphism(quadric8_group, m)
        assert aut.matrix == m
        assert GroupAutomorphism(quadric8_group, aut.matrix) == aut


def random_unimodular(rng, k):
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    if k == 0:
        return ()
    for _ in range(rng.randint(0, 2 * k + 2)):
        op = rng.randrange(3)
        i = rng.randrange(k)
        j = rng.randrange(k)
        if op == 0 and i != j:
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return tuple(tuple(r) for r in rows)


def _display(A, C, D):
    """The display matrix [[A, 0], [C, D]] of the blocks."""
    return (tuple(tuple(row) + (0,) * len(D) for row in A)
            + tuple(tuple(c) + tuple(d) for c, d in zip(C, D)))


def random_automorphism(rng, group):
    k, orders = group.free_rank, group.torsion_orders
    l = len(orders)
    A = random_unimodular(rng, k)
    C = tuple(tuple(rng.randrange(a) for _ in range(k)) for a in orders)
    while True:
        D = tuple(tuple(rng.randrange(orders[i]) for _ in range(l)) for i in range(l))
        try:
            return GroupAutomorphism(group, _display(A, C, D))
        except StructuralError:
            continue


def _section_inverse(aut):
    """The inverse read off the section of the automorphism's columns:
    e_c = sum_j S[j][c] * column_j, so M S = I in the group."""
    group = aut.group
    cols = [group.from_coordinates(c) for c in zip(*aut.matrix)]
    return GroupAutomorphism(group, subgroup_presentation(group, cols)[1])


def test_automorphism_group_laws():
    rng = random.Random(14)
    for _ in range(40):
        group = GradingGroup(rng.randint(0, 3),
                             tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(0, 2))))
        ident = GroupAutomorphism.identity(group)
        b1 = random_automorphism(rng, group)
        b2 = random_automorphism(rng, group)
        b2_inv = _section_inverse(b2)
        assert b1.compose(b2).compose(b2_inv) == b1
        assert b2_inv.compose(b2) == ident == b2.compose(b2_inv)
        x = group.element(tuple(rng.randint(-4, 4) for _ in range(group.free_rank)),
                          tuple(rng.randint(0, a - 1) for a in group.torsion_orders))
        assert b1.compose(b2).apply(x) == b1.apply(b2.apply(x))


def _torsion_images(D, orders):
    """The image of D on Z/a_1 + ... + Z/a_l, by enumeration."""
    l = len(orders)
    return {tuple(sum(D[i][j] * t[j] for j in range(l)) % orders[i]
                  for i in range(l))
            for t in product(*(range(a) for a in orders))}


def _constructs(group, matrix) -> bool:
    try:
        GroupAutomorphism(group, matrix)
    except StructuralError:
        return False
    return True


def test_torsion_bijectivity_matches_enumeration():
    rng = random.Random(15)
    for _ in range(200):
        l = rng.randint(1, 2)
        orders = tuple(rng.choice((2, 3, 4)) for _ in range(l))
        D = tuple(tuple(rng.randrange(4) for _ in range(l)) for _ in range(l))
        well_defined = all((orders[j] * D[i][j]) % orders[i] == 0
                           for i in range(l) for j in range(l))
        if not well_defined:
            continue
        expected = len(_torsion_images(D, orders)) == prod(orders)
        assert _constructs(GradingGroup(0, orders), D) == expected


def _leibniz_det(A):
    """The determinant as the signed sum over permutations."""
    total = 0
    for p in permutations(range(len(A))):
        sign = (-1) ** sum(p[i] > p[j] for i, j in combinations(range(len(p)), 2))
        total += sign * prod(A[i][p[i]] for i in range(len(p)))
    return total


def _is_automorphism(group, M):
    """Brute force: the upper right block vanishes, each torsion entry
    defines a homomorphism, det A = +-1, and D is onto T by enumeration."""
    k, orders = group.free_rank, group.torsion_orders
    l = len(orders)
    D = [row[k:] for row in M[k:]]
    return (not any(M[i][k + j] for i in range(k) for j in range(l))
            and all(orders[j] * D[i][j] % orders[i] == 0
                    for i in range(l) for j in range(l))
            and abs(_leibniz_det([row[:k] for row in M[:k]])) == 1
            and len(_torsion_images(D, orders)) == prod(orders))


def test_constructor_matches_brute_force():
    """Display matrices with every kind of defect, on Z^k + T with k <= 2
    and torsion orders <= 4: the constructor accepts exactly the
    automorphisms and stores the torsion rows reduced."""
    rng = random.Random(28)
    seen = Counter()
    for _ in range(400):
        k = rng.randint(0, 2)
        orders = tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(k == 0, 2)))
        group = GradingGroup(k, orders)
        l = len(orders)
        A = (random_unimodular(rng, k) if rng.random() < 0.6
             else tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(k)))
        upper = [[rng.randint(-1, 1) if rng.random() < 0.2 else 0 for _ in range(l)]
                 for _ in range(k)]
        C = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(l)]
        D = [[rng.randint(-1, 4) for _ in range(l)] for _ in range(l)]
        M = (tuple(tuple(a) + tuple(u) for a, u in zip(A, upper))
             + tuple(tuple(c) + tuple(d) for c, d in zip(C, D)))
        expected = _is_automorphism(group, M)
        assert _constructs(group, M) == expected, M
        if expected:
            reduced = M[:k] + tuple(tuple(x % a for x in row)
                                    for row, a in zip(M[k:], orders))
            assert GroupAutomorphism(group, M).matrix == reduced
        seen["automorphism"] += expected
        seen["upper right"] += any(map(any, upper))
        seen["not a homomorphism"] += any(orders[j] * D[i][j] % orders[i]
                                          for i in range(l) for j in range(l))
        seen["det A != +-1"] += abs(_leibniz_det(A)) != 1
        seen["D not onto"] += (all(orders[j] * D[i][j] % orders[i] == 0
                                   for i in range(l) for j in range(l))
                               and len(_torsion_images(D, orders)) < prod(orders))
    assert min(seen.values()) >= 30, seen


def _combination(group, section, elements, c):
    total = group.zero()
    for row, x in zip(section, elements):
        total = total + x.scale(row[c])
    return total


def test_subgroup_index_matches_closure():
    rng = random.Random(25)
    for _ in range(300):
        orders = tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 3)))
        group = GradingGroup(0, orders)
        elements = [group.element((), [rng.randrange(a) for a in orders])
                    for _ in range(rng.randint(0, 4))]
        subgroup = {group.zero()}
        frontier = [group.zero()]
        while frontier:
            x = frontier.pop()
            for y in (x + g for g in elements):
                if y not in subgroup:
                    subgroup.add(y)
                    frontier.append(y)
        index, section = subgroup_presentation(group, elements)
        assert index == prod(orders) // len(subgroup)
        assert (section is None) == (index != 1)
        if section is not None:
            for c in range(len(orders)):
                unit = group.element((), [int(i == c) for i in range(len(orders))])
                assert _combination(group, section, elements, c) == unit


def test_subgroup_section_on_mixed_groups():
    rng = random.Random(26)
    checked = 0
    for _ in range(400):
        k = rng.randint(1, 2)
        orders = tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 2)))
        group = GradingGroup(k, orders)
        elements = [group.element([rng.randint(-2, 2) for _ in range(k)],
                                  [rng.randrange(a) for a in orders])
                    for _ in range(rng.randint(k, 5))]
        index, section = subgroup_presentation(group, elements)
        if index != 1:
            continue
        checked += 1
        n = group.coordinate_count
        assert len(section) == len(elements)
        for c in range(n):
            unit = group.from_coordinates([int(i == c) for i in range(n)])
            assert _combination(group, section, elements, c) == unit
    assert checked > 50


def test_invalid_automorphisms_rejected():
    g = GradingGroup(2, (2,))
    for matrix in (((2, 0, 0), (0, 1, 0), (0, 0, 1)),   # det A = 2
                   ((1, 0, 0), (0, 1, 0), (0, 0, 0)),   # D = 0
                   ((1, 0, 1), (0, 1, 0), (0, 0, 1)),   # upper right entry
                   ((1, 0), (0, 1))):                   # wrong shape
        with pytest.raises(StructuralError):
            GroupAutomorphism(g, matrix)
    g23 = GradingGroup(0, (2, 3))
    with pytest.raises(StructuralError):
        GroupAutomorphism(g23, ((1, 1), (0, 1)))


def test_distinct_weights_first_occurrence():
    g = GradingGroup(1)
    Q = DegreeMatrix(tuple(g.element((v,)) for v in (3, 1, 3, 2, 1)))
    assert tuple(w.free_part[0] for w in Q.distinct_weights()) == (3, 1, 2)
