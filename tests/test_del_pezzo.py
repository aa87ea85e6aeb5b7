"""The del Pezzo surfaces of degree 9 - r, P^2 blown up in r <= 6
points, from their Cox rings: generated by the (-1)-curves (Batyrev-
Popov) with two or three quadrics per conic class (Stillman-Testa-
Velasco).  `oracles.del_pezzo_cox_ring` builds them from points in P^2;
`demos/dp4.toml` is its r = 5 case."""

import hashlib
from pathlib import Path

import pytest

from gradedaut.cli import main
from gradedaut.inout import ProblemInput, read_input
from gradedaut.validation import validate_presentation
from gradedaut.weightsym import aut_gen_weights
from oracles import del_pezzo_cox_ring

ROOT = Path(__file__).resolve().parent.parent
DP4 = ROOT / "demos" / "dp4.toml"

# sha256 of the stdout of demos/dp4.toml `autks`, as the dense slot ring
# printed it (8564425 bytes)
DP4_AUTKS_STDOUT = ("23ca6f388a44fd26811353739f911d31"
                    "c1c81f2d6855544d88abf07383db39e4")


def _problem(r):
    rows, ideal = del_pezzo_cox_ring(r)
    return ProblemInput(r + 1, (), len(rows[0]), rows, ideal,
                        (3,) + (-1,) * r)


def test_dp4_demo_is_the_generated_surface():
    demo = read_input(DP4)
    made = _problem(5)
    assert demo.rows == made.rows and demo.w == made.w
    ring = demo.ring()
    assert demo.ideal(ring).generators == made.ideal(ring).generators


@pytest.mark.parametrize("r, generators, quadrics",
                         [(4, 10, 5), (5, 16, 20), (6, 27, 81)])
def test_generated_surfaces_pass_every_flag(r, generators, quadrics):
    problem = _problem(r)
    assert (problem.var_count, len(problem.ideal_gens)) == (generators,
                                                            quadrics)
    ring = problem.ring()
    report = validate_presentation(ring, problem.ideal(ring))
    assert all(flag for _, flag in report.flag_items()), report.messages


@pytest.mark.parametrize("r, symmetries", [(4, 120), (5, 1920)])
def test_weight_symmetries_are_the_weyl_group(r, symmetries):
    """|W(A4)| = 120 for dP5 and |W(D5)| = 1920 for dP4."""
    assert len(aut_gen_weights(_problem(r).degree_matrix())) == symmetries


def test_dp4_autks_stdout_is_frozen(capsys):
    assert main(["autks", "--input", str(DP4)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DP4_AUTKS_STDOUT
