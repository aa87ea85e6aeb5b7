import hashlib
import random
import time
from collections import Counter
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from conftest import QUADRIC8_AUT_MATRICES
from oracles import (det_oracle, extendable_bijections, is_identity,
                     random_pointed_grading)
from gradedaut import linalg, weightsym
from gradedaut.errors import GuardError, StructuralError, ValidationError
from gradedaut.grading import (DegreeMatrix, GradingGroup, GroupAutomorphism,
                               check_effective)
from gradedaut.inout import read_input
from gradedaut.weightsym import (PLACEMENT_BOUND, _canonical_sort,
                                 _generating_set, aut_gen_weights)

ROOT = Path(__file__).resolve().parent.parent


def test_quadric8_weight_symmetries(quadric8_Q, quadric8_group):
    auts = aut_gen_weights(quadric8_Q)
    assert len(auts) == 4
    assert tuple(a.matrix for a in auts) == QUADRIC8_AUT_MATRICES
    # a group isomorphic to the Klein four group: every element squares
    # to the identity and products land back in the set
    ident = GroupAutomorphism.identity(quadric8_group)
    for a in auts:
        assert a.compose(a) == ident
    assert auts[1].compose(auts[2]) == auts[3]


def test_single_variable_asymmetric_weights():
    z = GradingGroup(1)
    Q = DegreeMatrix((z.element((1,)), z.element((2,))))
    auts = aut_gen_weights(Q)
    assert len(auts) == 1
    assert is_identity(auts[0])


def test_negation_symmetry_unpointed_weights():
    # weight symmetries exist independently of pointedness
    z = GradingGroup(1)
    Q = DegreeMatrix((z.element((1,)), z.element((-1,))))
    auts = aut_gen_weights(Q)
    assert len(auts) == 2
    assert auts[1].free_block == ((-1,),)


def test_torsion_only_group():
    # free rank 0: the empty Gram form colours every weight alike
    z3 = GradingGroup(0, (3,))
    Q = DegreeMatrix((z3.element((), (1,)), z3.element((), (2,))))
    assert [a.matrix for a in aut_gen_weights(Q)] == [((1,),), ((2,),)]


def test_no_lattice_basis_raises():
    z = GradingGroup(1)
    Q = DegreeMatrix((z.element((2,)),))
    with pytest.raises(ValidationError):
        aut_gen_weights(Q)


def test_basis_inverse_is_exact():
    # a basis of index 2 has the inverse 1/2, which must raise rather
    # than truncate to a zero free block
    z = GradingGroup(1)
    Q = DegreeMatrix((z.element((1,)), z.element((2,))))
    assert len(aut_gen_weights(Q)) == 1
    Q = DegreeMatrix((z.element((1,)), z.element((2,))))
    Q.__dict__["lattice_basis"] = ((2,),)
    with pytest.raises(StructuralError, match="not unimodular"):
        aut_gen_weights(Q)


def test_group_closure_random():
    rng = random.Random(31)
    for _ in range(15):
        Q = random_pointed_grading(rng, kmax=2, lmax=1, rmax=5)
        auts = aut_gen_weights(Q)
        weights = set(Q.distinct_weights())
        assert any(map(is_identity, auts))
        for a in auts:
            assert {a.apply(w) for w in weights} == weights
            for b in auts:
                assert a.compose(b) in auts


def test_matches_brute_force_oracle():
    rng = random.Random(32)
    for _ in range(12):
        Q = random_pointed_grading(rng, kmax=2, lmax=1, rmax=5)
        assert set(aut_gen_weights(Q)) == extendable_bijections(Q)


def _torsion_cube(orders):
    # weights (1; 0) and (1; e_i) in Z + Z/a_1 + ... + Z/a_l
    group = GradingGroup(1, orders)
    cols = [group.element((1,), (0,) * len(orders))]
    cols += [group.element((1,), tuple(int(i == j) for j in range(len(orders))))
             for i in range(len(orders))]
    return DegreeMatrix(tuple(cols))


def test_torsion_cubes_permute_their_weights():
    # every permutation of the weights extends: 4! and 5!
    start = time.perf_counter()
    assert len(aut_gen_weights(_torsion_cube((3, 3, 3)))) == 24
    assert time.perf_counter() - start < 0.5
    assert len(aut_gen_weights(_torsion_cube((2, 2, 2, 2)))) == 120


def _line_classes(r):
    """The (-1)-curves of P^2 blown up in r <= 6 general points, the del
    Pezzo surface of degree 9 - r, in the basis L, E_1, ..., E_r: the
    E_i, the L - E_i - E_j and the conics 2L minus five of the E_i."""
    points = range(1, r + 1)
    classes = ([{i: 1} for i in points]
               + [{0: 1, i: -1, j: -1} for i, j in combinations(points, 2)]
               + [{0: 2, **dict.fromkeys(five, -1)}
                  for five in combinations(points, 5)])
    group = GradingGroup(r + 1)
    return DegreeMatrix(tuple(group.element(tuple(c.get(i, 0) for i in range(r + 1)))
                              for c in classes))


def test_placement_guard_refuses_before_placing(monkeypatch):
    def no_image(self, group, matrix):
        raise AssertionError("an image was tried before the guard")

    monkeypatch.setattr(GroupAutomorphism, "__init__", no_image)
    # the 27 lines of the cubic surface (|W(E6)| = 51840 symmetries):
    # five levels of colour-matched placements leave 77760 nodes, and 27
    # weights share the vertex colour of the sixth basis vector
    with pytest.raises(GuardError) as info:
        aut_gen_weights(_line_classes(6))
    assert str(77760 * 27) in str(info.value)
    assert str(PLACEMENT_BOUND) in str(info.value)
    # four weights (1; 0), (1; e_i) in Z + (Z/3)^3: four placements of
    # the basis, 4^3 images of the three further weight generators each
    monkeypatch.setattr(weightsym, "PLACEMENT_BOUND", 255)
    with pytest.raises(GuardError, match="would try 256 generator images"):
        aut_gen_weights(_torsion_cube((3, 3, 3)))


def test_placement_bound_read_when_guard_runs(monkeypatch):
    z2 = GradingGroup(2)
    Q = DegreeMatrix(tuple(z2.element(v) for v in ((1, 0), (0, 1), (1, 1))))
    # the three weights share one vertex colour, so the three placements
    # of e_1 each meet three candidates for e_2; every call runs the
    # guard, so lowering the bound refuses a matrix already searched
    refusal = (r"9 placements of basis vector 2, above the bound 8 "
               r"\(weightsym.PLACEMENT_BOUND\)")
    monkeypatch.setattr(weightsym, "PLACEMENT_BOUND", 8)
    with pytest.raises(GuardError, match=refusal):
        aut_gen_weights(Q)
    monkeypatch.setattr(weightsym, "PLACEMENT_BOUND", 9)
    assert len(aut_gen_weights(Q)) == 2
    monkeypatch.setattr(weightsym, "PLACEMENT_BOUND", 8)
    with pytest.raises(GuardError, match=refusal):
        aut_gen_weights(Q)


def test_del_pezzo_placements_are_the_weyl_group(monkeypatch):
    """dP5 (demos/dp5.toml) and the 16 line classes of dP4 have
    |W(A4)| = 120 and |W(D5)| = 1920 symmetries.  Matching colours leave
    exactly one full placement per symmetry, under the default bound."""
    placements = weightsym._placements
    full = []
    monkeypatch.setattr(weightsym, "_placements",
                        lambda *args: full.append(placements(*args)) or full[-1])
    dp5 = read_input(ROOT / "demos" / "dp5.toml").degree_matrix()
    start = time.perf_counter()
    assert len(aut_gen_weights(dp5)) == 120
    elapsed = time.perf_counter() - start
    assert len(full[0]) == 120
    assert elapsed < 0.5
    assert len(aut_gen_weights(_line_classes(5))) == 1920
    assert len(full[1]) == 1920


def test_effective_torsion_gradings_match_oracle():
    rng = random.Random(61)
    checked = 0
    while checked < 200:
        Q = random_pointed_grading(rng, kmax=2, lmax=2, rmax=4)
        if not Q.group.torsion_orders or not check_effective(Q):
            continue
        assert set(aut_gen_weights(Q)) == extendable_bijections(Q)
        checked += 1


def _reference_symmetries(Q):
    """The search without column pruning: every placement of the basis
    images is multiplied out and kept when |det| = 1 (no guard)."""
    group = Q.group
    k = group.free_rank
    orders = group.torsion_orders
    weights = Q.distinct_weights()
    weight_set = set(weights)
    basis_idx = linalg.unimodular_subset([w.free_part for w in weights], k)
    gens, section = _generating_set(group, weights,
                                    [weights[i] for i in basis_idx])
    units = sum(g not in weight_set for g in gens)
    torsion = [group.element((0,) * k, t)
               for t in product(*(range(a) for a in orders))] if units else []
    basis_inv = linalg.inverse(list(zip(*(g.free_part for g in gens[:k]))))
    assert all(x.denominator == 1 for row in basis_inv for x in row)
    basis_inv = [[x.numerator for x in row] for row in basis_inv]
    found = set()
    for placed in permutations(weights, k):
        A = linalg.mat_mul(tuple(zip(*(w.free_part for w in placed))), basis_inv)
        if abs(det_oracle(A)) != 1:
            continue
        choices = []
        for g in gens[k:]:
            free = linalg.mat_vec(A, g.free_part)
            pool = weights if g in weight_set else torsion
            choices.append([x for x in pool if x.free_part == free])
        for rest in product(*choices):
            images = placed + rest
            if len(set(images)) < len(images):
                continue
            matrix = linalg.mat_mul(tuple(zip(*(x.coordinates for x in images))),
                                    section)
            try:
                cand = GroupAutomorphism(group, matrix)
            except StructuralError:
                continue
            if all(cand.apply(w) in weight_set for w in weights):
                found.add(cand)
    return _canonical_sort(group, found)


def _random_grading(rng):
    """Weights with a lattice basis among their free parts, drawn from a
    small pool of free parts so that some of them repeat; neither
    pointed nor effective by construction."""
    while True:
        k = rng.randint(1, 3)
        orders = tuple(rng.choice((2, 3)) for _ in range(rng.randint(0, 2)))
        group = GradingGroup(k, orders)
        pool = [tuple(rng.randint(-2, 2) for _ in range(k))
                for _ in range(rng.randint(k, 5))]
        cols = tuple(group.element(rng.choice(pool),
                                   tuple(rng.randrange(a) for a in orders))
                     for _ in range(rng.randint(k, 6)))
        Q = DegreeMatrix(cols)
        if linalg.unimodular_subset(Q.free_parts(), k) is not None:
            return Q


def test_column_pruning_matches_full_placement_loop():
    rng = random.Random(1010)
    seen = Counter()
    for _ in range(1500):
        Q = _random_grading(rng)
        assert aut_gen_weights(Q) == _reference_symmetries(Q)
        frees = [w.free_part for w in Q.distinct_weights()]
        seen["torsion"] += bool(Q.group.torsion_orders)
        seen["non-effective"] += not check_effective(Q)
        seen["repeated free parts"] += len(set(frees)) < len(frees)
    assert min(seen.values()) >= 100, seen


def _free_block_guard(monkeypatch):
    """Make the constructor insist that the free block of every candidate
    is unimodular and permutes the free parts with their multiplicities."""
    real = GroupAutomorphism.__init__
    state = {}

    def checked(self, group, matrix):
        k = group.free_rank
        A = tuple(tuple(row[:k]) for row in matrix[:k])
        assert abs(det_oracle(A)) == 1
        frees = state["frees"]
        assert Counter(linalg.mat_vec(A, v) for v in frees) == Counter(frees)
        real(self, group, matrix)

    monkeypatch.setattr(GroupAutomorphism, "__init__", checked)
    return state


def test_torsion_free_symmetries_are_unchanged():
    """Without torsion a weight is its free part, so the check that A
    permutes the free parts stands for the check that a candidate
    permutes the weights.  dP5 and dP4 keep the symmetry tuples found
    with both checks (sha256 of the repr of the display matrices), and
    seeded torsion-free gradings agree with the reference loop, which
    makes the second."""
    dp5 = read_input(ROOT / "demos" / "dp5.toml").degree_matrix()
    for Q, digest in (
            (dp5, "45ce06b6b888dc29c8a87cd2327d74e7"
                  "0a7e6534ced6e946565004f510fc54f7"),
            (_line_classes(5), "f658de883548e1909df0916e7693de5d"
                               "216e9205e0ac61643c92d753ac57772e")):
        text = repr([a.matrix for a in aut_gen_weights(Q)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    rng = random.Random(1012)
    checked = 0
    while checked < 300:
        Q = _random_grading(rng)
        if not Q.group.torsion_orders:
            assert aut_gen_weights(Q) == _reference_symmetries(Q)
            checked += 1


def test_only_full_placements_that_permute_free_parts_are_tried(monkeypatch):
    e = lambda group, free, *tors: group.element(free, tors)
    z2z3 = GradingGroup(2, (3,))
    # free parts e1 twice and e2 three times: swapping them breaks the
    # multiplicities; e1, e2 three times each: e1, e2 -> e1, e1 is singular
    cases = [
        DegreeMatrix(tuple(e(z2z3, f, t) for f, ts in (((1, 0), (0, 1)),
                                                       ((0, 1), (0, 1, 2)))
                           for t in ts)),
        DegreeMatrix(tuple(e(z2z3, f, t) for f in ((1, 0), (0, 1))
                           for t in (0, 1, 2))),
    ]
    rng = random.Random(1011)
    cases += [_random_grading(rng) for _ in range(300)]
    expected = [_reference_symmetries(Q) for Q in cases]
    state = _free_block_guard(monkeypatch)
    for Q, auts in zip(cases, expected):
        state["frees"] = [w.free_part for w in Q.distinct_weights()]
        assert aut_gen_weights(Q) == auts


def test_eighteen_weights_in_z4_are_pruned_early():
    # perm(18, 4) = 73440 basis placements; the full loop multiplies out
    # and takes the determinant of every one of them
    z4 = GradingGroup(4)
    vectors = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    vectors += [v for v in product(range(3), repeat=4) if sum(v) > 1][:14]
    Q = DegreeMatrix(tuple(z4.element(v) for v in vectors))
    start = time.perf_counter()
    auts = aut_gen_weights(Q)
    assert time.perf_counter() - start < 0.5
    # the identity and the swap of the last two coordinates
    assert [a.free_block for a in auts] == [
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))]
