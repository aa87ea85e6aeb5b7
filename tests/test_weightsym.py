import random
import time
from itertools import product
from math import perm

import pytest

from conftest import QUADRIC8_AUT_MATRICES
from oracles import extendable_bijections, random_pointed_grading
from gradedaut.errors import GuardError, ValidationError
from gradedaut.grading import (DegreeMatrix, GradingGroup, GroupAutomorphism,
                               check_effective)
from gradedaut.polynomials import GradedPolyRing
from gradedaut.weightsym import (PLACEMENT_BOUND, admissible_automorphisms,
                                 aut_gen_weights)


def test_quadric8_weight_symmetries(quadric8_Q, quadric8_group):
    auts = aut_gen_weights(quadric8_Q)
    assert len(auts) == 4
    assert tuple(a.display_matrix() for a in auts) == QUADRIC8_AUT_MATRICES
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
    assert auts[0].is_identity()


def test_negation_symmetry_unpointed_weights():
    # weight symmetries exist independently of pointedness
    z = GradingGroup(1)
    Q = DegreeMatrix((z.element((1,)), z.element((-1,))))
    auts = aut_gen_weights(Q)
    assert len(auts) == 2
    assert auts[1].free_block == ((-1,),)


def test_no_lattice_basis_raises():
    z = GradingGroup(1)
    Q = DegreeMatrix((z.element((2,)),))
    with pytest.raises(ValidationError):
        aut_gen_weights(Q)


def test_group_closure_random():
    rng = random.Random(31)
    for _ in range(15):
        Q = random_pointed_grading(rng, kmax=2, lmax=1, rmax=5)
        auts = aut_gen_weights(Q)
        weights = set(Q.distinct_weights())
        assert any(a.is_identity() for a in auts)
        for a in auts:
            assert {a.apply(w) for w in weights} == weights
            assert a.inverse() in auts
            for b in auts:
                assert a.compose(b) in auts


def test_matches_brute_force_oracle():
    rng = random.Random(32)
    for _ in range(12):
        Q = random_pointed_grading(rng, kmax=2, lmax=1, rmax=5)
        assert set(aut_gen_weights(Q)) == extendable_bijections(Q)


def test_admissible_all_pass_quadric8(quadric8_Q):
    ring = GradedPolyRing.from_degree_matrix(quadric8_Q)
    auts = aut_gen_weights(quadric8_Q)
    adm = admissible_automorphisms(auts, ring)
    assert len(adm) == 4
    assert [a.aut for a in adm] == list(auts)
    assert adm[1].block_map == (0, 4, 7, 6, 1, 5, 3, 2)
    assert adm[0].block_map == tuple(range(8))


def test_admissible_rejects_dimension_mismatch():
    z2 = GradingGroup(2)
    cols = (z2.element((1, 0)), z2.element((0, 1)), z2.element((0, 1)))
    Q = DegreeMatrix(cols)
    ring = GradedPolyRing.from_degree_matrix(Q)
    auts = aut_gen_weights(Q)
    swap = [a for a in auts if a.free_block == ((0, 1), (1, 0))]
    assert swap, "the coordinate swap preserves the weight set"
    adm = admissible_automorphisms(auts, ring)
    kept = {a.aut for a in adm}
    assert swap[0] not in kept
    assert any(a.aut.is_identity() for a in adm)


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


def test_placement_guard_refuses_before_placing(monkeypatch):
    def no_image(*args):
        raise AssertionError("an image was tried before the guard")

    monkeypatch.setattr(GroupAutomorphism, "from_display", no_image)
    z4 = GradingGroup(4)
    vectors = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    vectors += [v for v in product(range(3), repeat=4) if sum(v) > 1][:36]
    assert len(set(vectors)) == 40
    with pytest.raises(GuardError) as info:
        aut_gen_weights(DegreeMatrix(tuple(z4.element(v) for v in vectors)))
    assert str(perm(40, 4)) in str(info.value)
    assert str(PLACEMENT_BOUND) in str(info.value)


def test_effective_torsion_gradings_match_oracle():
    rng = random.Random(61)
    checked = 0
    while checked < 200:
        Q = random_pointed_grading(rng, kmax=2, lmax=2, rmax=4)
        if not Q.group.torsion_orders or not check_effective(Q):
            continue
        assert set(aut_gen_weights(Q)) == extendable_bijections(Q)
        checked += 1
