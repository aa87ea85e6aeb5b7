import pytest

from gradedaut.errors import ValidationError
from gradedaut.grading import DegreeMatrix, GradingGroup
from gradedaut.polynomials import GradedPolyRing, Ideal
from gradedaut.ringaut import aut_ks
from gradedaut.validation import validate_presentation


def test_quadric8_passes_everything(quadric8_Q):
    ring = GradedPolyRing.from_degree_matrix(quadric8_Q)
    g = ring.parse("T(1)*T(6) + T(2)*T(5) + T(3)*T(4) + T(7)*T(8)")
    report = validate_presentation(ring, Ideal(ring, (g,)))
    assert report.ok
    assert report.grading_ok
    assert report.messages == ()
    assert all(v for _, v in report.flag_items())


def test_linear_generator_fails_square_and_component():
    z = GradingGroup(1)
    ring = GradedPolyRing.from_degree_matrix(DegreeMatrix((z.element((1,)),)))
    report = validate_presentation(ring, Ideal(ring, (ring.parse("T(1)"),)))
    assert not report.contained_in_square
    assert not report.variable_components_trivial
    assert report.effective and report.pointed and report.has_lattice_basis
    assert not report.ok
    assert any("total degree 1" in m for m in report.messages)


def test_even_lattice_fails_basis_flag():
    z2 = GradingGroup(2)
    Q = DegreeMatrix(tuple(z2.element(v) for v in ((2, 0), (0, 2), (2, 2))))
    ring = GradedPolyRing.from_degree_matrix(Q)
    report = validate_presentation(ring)
    assert not report.has_lattice_basis
    assert not report.effective
    assert report.pointed
    with pytest.raises(ValidationError):
        aut_ks(ring)


def test_inhomogeneous_generator_reported(quadric8_Q):
    ring = GradedPolyRing.from_degree_matrix(quadric8_Q)
    bad = ring.parse("T(1)*T(6) + T(2)")
    report = validate_presentation(ring, Ideal(ring, (bad,)))
    assert not report.generators_homogeneous
    assert any("generator 1 is not homogeneous" in m for m in report.messages)
    # unhomogeneous input blocks the component check
    assert not report.variable_components_trivial


def test_unpointed_component_check_skipped():
    z = GradingGroup(1)
    Q = DegreeMatrix((z.element((1,)), z.element((-1,))))
    ring = GradedPolyRing.from_degree_matrix(Q)
    g = ring.parse("T(1)*T(2)")
    report = validate_presentation(ring, Ideal(ring, (g,)))
    assert not report.pointed
    assert not report.variable_components_trivial
    assert any("not checked" in m for m in report.messages)


def test_lattice_basis_cases(quadric8_Q):
    assert quadric8_Q.lattice_basis is not None
    torsion_only = GradingGroup(0, (2,))
    Q0 = DegreeMatrix((torsion_only.element((), (1,)),))
    assert Q0.lattice_basis == ()


# per flag: weights over Z (+ torsion), ideal generators, and every flag
# the input fails; a bad relation always fails the component flag too
FLAG_FAILURES = {
    "effective": ((1, (2,)), ((1, 1), (0, 0)), (), {"effective"}),
    "pointed": ((1, ()), ((1, -1),), (), {"pointed"}),
    "generators homogeneous": (
        (1, ()), ((1, 2),), ("T(1)^2 + T(1)^3",),
        {"generators homogeneous", "trivial components in generator degrees"}),
    "relations in square of maximal ideal": (
        (1, ()), ((1, 2),), ("T(2)",),
        {"relations in square of maximal ideal",
         "trivial components in generator degrees"}),
    "trivial components in generator degrees": (
        (1, ()), ((1, 2),), ("T(1)^2",),
        {"trivial components in generator degrees"}),
    "lattice basis among free parts": (
        (1, ()), ((2, 3),), (), {"lattice basis among free parts"}),
}


@pytest.mark.parametrize("flag", FLAG_FAILURES)
def test_each_failing_flag_adds_a_message(flag):
    (free_rank, torsion), rows, gens, failing = FLAG_FAILURES[flag]
    Q = DegreeMatrix.from_rows(GradingGroup(free_rank, torsion), rows)
    ring = GradedPolyRing.from_degree_matrix(Q)
    report = validate_presentation(
        ring, Ideal(ring, tuple(ring.parse(g) for g in gens)))
    assert {label for label, ok in report.flag_items() if not ok} == failing
    assert len(report.messages) == len(failing)
    assert all(report.messages)
    with pytest.raises(ValidationError) as info:
        report.require(report.ok)
    assert str(info.value) == "; ".join(report.messages)
