"""Numbered end-to-end checks on the running example and random data.

Each test prints one verdict line via the hook in conftest.  The frozen
values here are cross-checked at module level; this file holds the time
bounds and the exact shapes that gate the build as a whole.
"""

import random
import time
from fractions import Fraction

import pytest
from conftest import QUADRIC8_AUT_MATRICES

from gradedaut import linalg
from gradedaut.algebraaut import (aut_grad_alg, component_data,
                                  ideal_generator_degrees)
from gradedaut.gitfan import aut_xhat, orbit_cones
from gradedaut.grading import GroupAutomorphism, degree_of_exponent
from gradedaut.inout import ProblemInput
from gradedaut.polynomials import (GradedPolyRing, grlex_key, monomial_basis,
                                   pairs_key, parse_polynomial,
                                   polynomial_to_str)
from gradedaut.report import (ResultBundle, export_cas_script,
                              report_from_text, report_to_text)
from gradedaut.ringaut import aut_ks, yz_names
from gradedaut.validation import validate_presentation
from gradedaut.weightsym import aut_gen_weights
from oracles import (as_pairs, extendable_bijections, naive_basis_box_size,
                     naive_monomial_basis, random_pointed_grading, span_equal,
                     torus_character)

# triple #2 of the running example: 1-based (row, column) -> slot index
M2_SLOTS = {(1, 1): 1, (2, 5): 13, (3, 8): 24, (4, 7): 31,
            (5, 2): 34, (6, 6): 46, (7, 4): 52, (8, 3): 59}
M2_DET_GEN = "-Y(1)*Y(13)*Y(24)*Y(31)*Y(34)*Y(46)*Y(52)*Y(59)*Z - 1"
M2_STABILIZER_SPAN = ("-Y(24)*Y(31) + Y(52)*Y(59)",
                      "Y(13)*Y(34) - Y(52)*Y(59)",
                      "-Y(13)*Y(34) + Y(1)*Y(46)")


@pytest.fixture(scope="module")
def timed_presentation(quadric8_ring):
    start = time.perf_counter()
    pres = aut_ks(quadric8_ring)
    return pres, time.perf_counter() - start


@pytest.fixture(scope="module")
def timed_stabilizer(quadric8_ring, quadric8_ideal):
    start = time.perf_counter()
    stab = aut_grad_alg(quadric8_ring, quadric8_ideal)
    return stab, time.perf_counter() - start


def test_criterion_1_weight_symmetries(quadric8_group, quadric8_Q):
    start = time.perf_counter()
    auts = aut_gen_weights(quadric8_Q)
    elapsed = time.perf_counter() - start
    displays = tuple(a.matrix for a in auts)
    assert set(displays) == set(QUADRIC8_AUT_MATRICES)
    assert len(auts) == 4
    # Klein four group: every element squares to the identity and the
    # set is closed under composition
    identity = GroupAutomorphism.identity(quadric8_group)
    assert auts[0] == identity
    for a in auts:
        assert a.compose(a) == identity
    for a in auts:
        for b in auts:
            assert a.compose(b).matrix in set(displays)
    assert elapsed < 1.0


def test_criterion_2_structured_matrix(timed_presentation):
    pres, elapsed = timed_presentation
    pattern = pres.triples[1].matrix.pattern
    for i in range(1, 9):
        for j in range(1, 9):
            assert pattern[i - 1][j - 1] == M2_SLOTS.get((i, j), 0)
    nonzero = {v for row in pattern for v in row if v}
    assert nonzero == set(M2_SLOTS.values())
    assert elapsed < 1.0


def test_criterion_3_zero_pattern_ideal(timed_presentation):
    pres, elapsed = timed_presentation
    gens = pres.triples[1].ideal
    names = yz_names(8)
    shown = [polynomial_to_str(g, names) for g in gens]
    keep = set(M2_SLOTS.values())
    assert shown[:-1] == [f"Y({k})" for k in range(1, 65) if k not in keep]
    assert len(shown) == 57
    assert shown[-1] == M2_DET_GEN
    assert elapsed < 1.0


def test_criterion_4_stabilizer_span(timed_stabilizer):
    stab, elapsed = timed_stabilizer
    gens = stab.triples[1].stabilizer_gens
    refs = [as_pairs(parse_polynomial(s, yz_names(8)))
            for s in M2_STABILIZER_SPAN]
    assert len(gens) == 3
    assert span_equal(gens, refs)
    # and the span really is three-dimensional
    monos = sorted({m for g in refs for m in g.terms}, key=pairs_key)
    rows = [[g.terms.get(m, 0) for m in monos] for g in refs]
    assert linalg.rank(rows) == 3
    assert elapsed < 1.0


def test_criterion_5_chamber_filter(quadric8_group, quadric8_Q,
                                    timed_stabilizer):
    stab, _ = timed_stabilizer
    w = quadric8_group.element((1, 9, 16), (0,))
    start = time.perf_counter()
    filtered = aut_xhat(stab, w)
    elapsed = time.perf_counter() - start
    assert len(filtered.triples) == 1
    identity = GroupAutomorphism.identity(quadric8_group)
    assert filtered.triples[0].weight_aut == identity
    assert len(orbit_cones(quadric8_Q)) <= 255
    assert elapsed < 5.0


def test_criterion_6_component_dimensions(quadric8_group, quadric8_ring,
                                          quadric8_ideal):
    start = time.perf_counter()
    u = quadric8_group.element((0, 0, 2), (1,))
    assert ideal_generator_degrees(quadric8_ideal) == (u,)
    basis = monomial_basis(quadric8_ring, u)
    assert basis == ((1, 0, 0, 0, 0, 1, 0, 0),
                     (0, 1, 0, 0, 1, 0, 0, 0),
                     (0, 0, 1, 1, 0, 0, 0, 0),
                     (0, 0, 0, 0, 0, 0, 1, 1))
    assert set(basis) == naive_monomial_basis(quadric8_ring, u)
    comp = component_data(quadric8_ideal, u)
    assert comp.dimension == 4
    assert len(comp.ideal_basis) == 1
    assert len(comp.forms) == 3
    assert time.perf_counter() - start < 1.0


def test_criterion_7_torus_points_annihilate(timed_stabilizer):
    stab, _ = timed_stabilizer
    basis = stab.base.basis
    gens = stab.triples[0].ideal  # polynomial-ring layer plus stabilizer
    assert len(gens) == 60
    rng = random.Random(41)
    start = time.perf_counter()
    for _ in range(100):
        free = tuple(Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 4, 5)),
                              rng.randint(1, 4)) for _ in range(3))
        signs = (rng.choice((1, -1)),)
        values = [Fraction(0)] * 65
        det = Fraction(1)
        for i in range(8):
            chi = torus_character(basis.flat_degree(i), free, signs)
            values[i * 8 + i] = chi
            det *= chi
        values[64] = 1 / det
        for g in gens:
            assert g.substitute_values(values) == 0
    assert time.perf_counter() - start < 5.0


def test_criterion_8_all_ones_point(timed_stabilizer):
    stab, _ = timed_stabilizer
    start = time.perf_counter()
    keep = set(M2_SLOTS.values())
    values = [Fraction(1) if k in keep else Fraction(0)
              for k in range(1, 65)] + [Fraction(-1)]
    for g in stab.triples[1].ideal:
        assert g.substitute_values(values) == 0
    assert len(stab.triples[1].ideal) == 60
    assert time.perf_counter() - start < 1.0


def test_criterion_9_weight_symmetries_vs_oracle():
    rng = random.Random(29)
    start = time.perf_counter()
    for _ in range(50):
        Q = random_pointed_grading(rng)
        mine = {a.matrix for a in aut_gen_weights(Q)}
        ref = {a.matrix for a in extendable_bijections(Q)}
        assert mine == ref
    assert time.perf_counter() - start < 60.0


def test_criterion_10_monomial_basis_vs_oracle():
    rng = random.Random(31)
    start = time.perf_counter()
    checked = 0
    while checked < 50:
        Q = random_pointed_grading(rng)
        ring = GradedPolyRing.from_degree_matrix(Q)
        r = ring.variable_count
        # an achievable degree with a small witness; degrees whose
        # exhaustive box is out of reach for the oracle are redrawn
        for _ in range(20):
            expo = [0] * r
            for i in rng.sample(range(r), rng.randint(0, min(3, r))):
                expo[i] = rng.randint(1, 2)
            expo = tuple(expo)
            u = degree_of_exponent(Q, expo)
            if naive_basis_box_size(ring, u) <= 400_000:
                break
        else:
            continue
        basis = monomial_basis(ring, u)
        assert expo in basis
        assert set(basis) == naive_monomial_basis(ring, u)
        assert list(basis) == sorted(basis, key=grlex_key, reverse=True)
        checked += 1
    assert checked == 50
    assert time.perf_counter() - start < 60.0


def test_criterion_11_export_obligation(quadric8_ring, quadric8_ideal,
                                        timed_stabilizer):
    # at desk scale the obligation stops at a valid, deterministic,
    # schema-checked script; running the CAS job itself is out of scope
    stab, _ = timed_stabilizer
    problem = ProblemInput(3, (2,), 8,
                           tuple(tuple(int(x) for x in row) for row in (
                               (1, 1, 0, 0, -1, -1, 2, -2),
                               (0, 1, 1, -1, -1, 0, 1, -1),
                               (1, 1, 1, 1, 1, 1, 1, 1),
                               (1, 0, 1, 0, 1, 0, 1, 0))),
                           ("T(1)*T(6) + T(2)*T(5) + T(3)*T(4) + T(7)*T(8)",))
    report = validate_presentation(quadric8_ring, quadric8_ideal)
    bundle = ResultBundle(problem, report,
                          tuple(t.weight_aut.matrix
                                for t in stab.base.triples),
                          stab.base, stab)
    text = report_to_text(bundle)
    assert report_to_text(report_from_text(text)) == text
    script = export_cas_script(bundle)
    assert export_cas_script(bundle) == script
    body = "\n".join(ln for ln in script.splitlines()
                     if ln and not ln.startswith("//"))
    statements = [s.strip() for s in body.split(";") if s.strip()]
    heads = ("LIB", "ring", "ideal", "dim", "list", "absJ")
    assert all(s.split()[0].split("(")[0] in heads for s in statements)
    assert body.rstrip().endswith(";")
    assert script.count("(") == script.count(")")
    assert statements[0] == 'LIB "primdec.lib"'
    assert statements[1] == "ring Sp = 0,(Y(1..64),Z),dp"
    for name in ("J1", "J2", "J3", "J4"):
        assert f"ideal {name} = " in script
    assert "ideal J = intersect(J1,J2,J3,J4);" in script
    assert "absPrimdecGTZ(J)" in script
