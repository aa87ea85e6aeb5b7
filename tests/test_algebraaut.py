import random
from fractions import Fraction

import pytest

from gradedaut import linalg
from gradedaut.algebraaut import (aut_grad_alg, component_data,
                                  ideal_generator_degrees, render_stabilizer,
                                  stabilizer_ideal_for_triple)
from gradedaut.errors import ValidationError
from gradedaut.grading import DegreeMatrix, GradingGroup
from gradedaut.polynomials import (GradedPolyRing, Ideal, Polynomial,
                                   monomial_basis, parse_polynomial,
                                   polynomial_to_str)
from gradedaut.ringaut import aut_ks, yz_names

from oracles import (as_pairs, det_oracle, poly_mul, poly_sub, span_equal,
                     torus_character)


def zring(*weights):
    group = GradingGroup(1, ())
    cols = tuple(group.element((w,), ()) for w in weights)
    return GradedPolyRing(DegreeMatrix(cols))


@pytest.fixture(scope="module")
def quadric8_stab(quadric8_ring, quadric8_ideal):
    return aut_grad_alg(quadric8_ring, quadric8_ideal)


@pytest.fixture(scope="module")
def conic():
    ring = zring(1, 1, 1)
    ideal = Ideal(ring, (ring.parse("T(1)*T(2) - T(3)^2"),))
    return ring, ideal


def test_generator_degrees(quadric8_ring, quadric8_ideal):
    roster = ideal_generator_degrees(quadric8_ideal)
    assert roster == (quadric8_ring.grading.element((0, 0, 2), (1,)),)
    ring = zring(1, 1)
    two = Ideal(ring, (ring.parse("T(1)*T(2)"), ring.parse("T(1)^2 - T(2)^2")))
    assert ideal_generator_degrees(two) == (ring.grading.element((2,), ()),)


def test_component_data(quadric8_ring, quadric8_ideal):
    u = quadric8_ring.grading.element((0, 0, 2), (1,))
    comp = component_data(quadric8_ideal, u)
    assert comp.dimension == 4
    assert comp.ideal_basis == ((1, 1, 1, 1),)
    assert comp.forms == ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))


def test_stabilizer_gens_frozen(quadric8_stab):
    names = yz_names(8)
    second = quadric8_stab.triples[1]
    assert [polynomial_to_str(g, names) for g in second.stabilizer_gens] == [
        "Y(1)*Y(46) - Y(24)*Y(31)",
        "Y(13)*Y(34) - Y(24)*Y(31)",
        "-Y(24)*Y(31) + Y(52)*Y(59)",
    ]
    reference = [as_pairs(parse_polynomial(s, names)) for s in (
        "-Y(24)*Y(31) + Y(52)*Y(59)",
        "Y(13)*Y(34) - Y(52)*Y(59)",
        "-Y(13)*Y(34) + Y(1)*Y(46)",
    )]
    assert span_equal(second.stabilizer_gens, reference)


def test_stabilizer_matches_triple_function(quadric8_stab, quadric8_ideal):
    pres = quadric8_stab
    degrees = ideal_generator_degrees(quadric8_ideal)
    for st in pres.triples:
        # each triple on its own, with no components shared
        direct = stabilizer_ideal_for_triple(pres.base, quadric8_ideal,
                                             st.base, {}, degrees)
        assert direct == st.stabilizer_gens


def test_quadric8_shape(quadric8_stab):
    pres = quadric8_stab
    assert len(pres.triples) == 4
    assert all(len(t.stabilizer_gens) == 3 for t in pres.triples)
    assert all(len(t.ideal) == 60 for t in pres.triples)
    assert len(pres.degree_roster) == 1


def test_identity_witness(quadric8_stab):
    n = quadric8_stab.n
    values = [Fraction(0)] * (n * n + 1)
    for i in range(n):
        values[i * n + i] = Fraction(1)
    values[n * n] = Fraction(1)
    for g in quadric8_stab.triples[0].ideal:
        assert g.substitute_values(values) == 0


def test_torus_points_stabilize(quadric8_stab):
    pres = quadric8_stab
    n = pres.n
    rng = random.Random(7)
    pool = [Fraction(a, b) for a in (-2, -1, 1, 2, 5) for b in (1, 3)]
    for _ in range(25):
        free = tuple(rng.choice(pool) for _ in range(3))
        signs = (rng.choice((1, -1)),)
        values = [Fraction(0)] * (n * n + 1)
        det = Fraction(1)
        for i in range(n):
            chi = torus_character(pres.base.basis.flat_degree(i), free, signs)
            values[i * n + i] = chi
            det *= chi
        values[n * n] = 1 / det
        for g in pres.triples[0].ideal:
            assert g.substitute_values(values) == 0


def test_symmetry_moving_the_generator_degree():
    # the swap of Z^2 sends the generator degree (2, 1) to (1, 2), where
    # the ideal has no element: the target component is computed apart
    group = GradingGroup(2)
    ring = GradedPolyRing(
        DegreeMatrix.from_rows(group, ((1, 1, 0, 0), (0, 0, 1, 1))))
    ideal = Ideal(ring, (ring.parse("T(1)^2*T(3) + T(2)^2*T(4)"),))
    pres = aut_grad_alg(ring, ideal)
    ident, swap = pres.triples
    assert swap.weight_aut.free_block == ((0, 1), (1, 0))
    components = {}
    gens = stabilizer_ideal_for_triple(pres.base, ideal, swap.base, components,
                                       ideal_generator_degrees(ideal))
    assert gens == swap.stabilizer_gens
    assert set(components) == {group.element((2, 1)), group.element((1, 2))}
    n = pres.n
    # Y = I, Z = 1 fixes the ideal
    identity = [Fraction(0)] * (n * n + 1)
    for i in range(n):
        identity[i * n + i] = Fraction(1)
    identity[n * n] = Fraction(1)
    assert all(g.substitute_values(identity) == 0 for g in ident.ideal)
    # T(1) <-> T(3), T(2) <-> T(4), an even permutation, does not: it
    # sends the generator to T(1)*T(3)^2 + T(2)*T(4)^2 of degree (1, 2)
    swapped = [Fraction(0)] * (n * n + 1)
    for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
        assert swap.base.matrix.pattern[i][j]
        swapped[i * n + j] = Fraction(1)
    swapped[n * n] = Fraction(1)
    assert any(g.substitute_values(swapped) != 0 for g in gens)


def test_conditions_that_vanish_are_skipped():
    # T(1)^2*T(2)^2 spans a line of S_(2, 2), whose basis is
    # T(1)^2*T(2)^2, T(1)*T(2)*T(3) and T(3)^2; both structured matrices
    # scale or swap T(1) and T(2), so the image stays on that line and
    # each triple's two conditions, one per annihilator form, are zero
    group = GradingGroup(2)
    ring = GradedPolyRing(
        DegreeMatrix.from_rows(group, ((1, 0, 1), (0, 1, 1))))
    ideal = Ideal(ring, (ring.parse("T(1)^2*T(2)^2"),))
    pres = aut_grad_alg(ring, ideal)
    assert [t.stabilizer_gens for t in pres.triples] == [(), ()]
    data = component_data(ideal, group.element((2, 2)))
    assert (data.dimension, len(data.ideal_basis), len(data.forms)) == (3, 1, 2)


def test_refuses_ideal_meeting_variable_component():
    ring = zring(1, 2)
    bad = Ideal(ring, (ring.parse("T(1)^2"),))
    with pytest.raises(ValidationError) as info:
        aut_grad_alg(ring, bad)
    assert "generator degree (2)" in str(info.value)


def test_univariate_relation_conditions():
    ring = zring(1, 2)
    ideal = Ideal(ring, (ring.parse("T(1)^4 - T(2)^2"),))
    pres = aut_grad_alg(ring, ideal)
    assert len(pres.triples) == 1
    names = yz_names(3)
    assert [polynomial_to_str(g, names)
            for g in pres.triples[0].stabilizer_gens] == [
        "Y(1)^4 - Y(8)^2 - Y(9)^2",
        "-2*Y(8)*Y(9)",
    ]
    # T(1) -> 2 T(1), T(2) -> 4 T(2) preserves the relation
    good = [Fraction(0)] * 10
    good[0], good[4], good[8] = Fraction(2), Fraction(4), Fraction(4)
    good[9] = Fraction(1, 32)
    assert all(g.substitute_values(good) == 0 for g in pres.triples[0].ideal)
    # the shear T(2) -> T(1)^2 + T(2) does not
    shear = [Fraction(0)] * 10
    shear[0] = shear[4] = shear[8] = Fraction(1)
    shear[7] = Fraction(1)
    shear[9] = Fraction(1)
    assert any(g.substitute_values(shear) != 0 for g in pres.triples[0].ideal)


def conic_direct_check(ring, ideal, M):
    """Reference test: push the relation through the matrix and decide
    membership in the degree-2 piece of the ideal by rank."""
    g = ideal.generators[0]
    imgs = [Polynomial({tuple(int(t == j) for t in range(3)): M[i][j]
                        for j in range(3)}) for i in range(3)]
    pushed = poly_sub(poly_mul(imgs[0], imgs[1]), poly_mul(imgs[2], imgs[2]))
    basis = monomial_basis(ring, ring.degrees.columns[0].scale(2))
    gv = [g.terms.get(m, 0) for m in basis]
    pv = [pushed.terms.get(m, 0) for m in basis]
    return linalg.rank([gv, pv]) == 1


def test_conic_oracle(conic):
    ring, ideal = conic
    pres = aut_grad_alg(ring, ideal)
    assert len(pres.triples) == 1
    gens = pres.triples[0].ideal
    rng = random.Random(31)
    cases = [
        ((4, 0, 0), (0, 1, 0), (0, 0, 2)),
        ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((4, 0, 0), (0, 9, 0), (0, 0, 6)),
        ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
    ]
    while len(cases) < 40:
        M = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                  for _ in range(3))
        if det_oracle(M) != 0:
            cases.append(M)
    hits = 0
    for M in cases:
        det = det_oracle(M)
        values = [Fraction(M[i][j]) for i in range(3) for j in range(3)]
        values.append(1 / Fraction(det))
        vanish = all(g.substitute_values(values) == 0 for g in gens)
        assert vanish == conic_direct_check(ring, ideal, M)
        hits += vanish
    assert 0 < hits < len(cases)


def test_render_stabilizer(quadric8_stab):
    pieces = []
    render_stabilizer(quadric8_stab, pieces.append)
    text = "".join(pieces)
    assert "stabilizing conditions for triple 4" in text
    assert "ideal generator degrees: (0, 0, 2; 1)" in text
    assert "Y(1)*Y(46) - Y(24)*Y(31)" in text
