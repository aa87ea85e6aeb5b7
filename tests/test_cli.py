"""The command line front end, driven through main()."""

import functools
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

import pytest
from conftest import line_col
from oracles import det_oracle

from gradedaut import (algebraaut, gitfan, grading, linalg, polynomials,
                       ringaut, validation, weightsym)
from gradedaut.cli import main
from gradedaut.errors import GuardError, ValidationError
from gradedaut.inout import parse_input
from gradedaut.report import (FilterResult, ResultBundle, export_cas_script,
                              read_report)
from gradedaut.ringaut import aut_ks

ROOT = Path(__file__).resolve().parent.parent
DEMO = str(ROOT / "demos" / "quadric8.toml")

TINY = "vars = 2\nQ = [[1, 1]]\n\n[grading]\nfree_rank = 1\n"

# weights (1, 1, 2) and no ideal: a composite degree-2 component
NO_IDEAL = "vars = 3\nQ = [[1, 1, 2]]\n\n[grading]\nfree_rank = 1\n"

# twenty-one pairwise distinct weights on the line x = 1, so every
# component is one variable wide but the orbit cone enumeration is over
# 2^21 subsets and must refuse
WIDE = ("vars = 21\n"
        "Q = [\n"
        "    [" + ", ".join("1" for _ in range(21)) + "],\n"
        "    [" + ", ".join(str(i) for i in range(1, 22)) + "],\n"
        "]\n\n[grading]\nfree_rank = 2\n")


def _write(tmp_path, text, name="problem.toml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_demo(capsys):
    assert main(["check", "--input", DEMO]) == 0
    out = capsys.readouterr().out
    assert "effective: pass" in out
    assert "pointed: pass" in out
    assert out.count("pass") == 6
    assert "FAIL" not in out


def test_check_reports_failure(tmp_path, capsys):
    path = _write(tmp_path, "vars = 2\nQ = [[1, -1]]\n\n[grading]\nfree_rank = 1\n")
    assert main(["check", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "pointed: FAIL" in out
    assert "note:" in out


def test_lattice_basis_scan_skips_imprimitive_vectors(tmp_path, capsys):
    # 28 weights {2, 3, 5, 7} e_i in Z^7: C(28, 7) = 1,184,040 subsets, of
    # which none is primitive, so none can be a lattice basis
    cols = [[c * int(i == t) for i in range(7) for c in (2, 3, 5, 7)]
            for t in range(7)]
    path = _write(tmp_path, "vars = 28\nQ = [\n" + "".join(
        f"    {row},\n" for row in cols) + "]\n\n[grading]\nfree_rank = 7\n")
    start = perf_counter()
    assert main(["check", "--input", path]) == 1
    assert perf_counter() - start < 1
    assert "lattice basis among free parts: FAIL" in capsys.readouterr().out
    # the same first subset as a scan over every k-subset
    rng = random.Random(29)
    found = 0
    for _ in range(600):
        k = rng.randint(0, 3)
        vectors = [tuple(rng.choice((1, 2)) * rng.randint(-2, 2)
                         for _ in range(k)) for _ in range(rng.randint(0, 7))]
        flat = next((subset for subset in combinations(range(len(vectors)), k)
                     if abs(det_oracle([vectors[i] for i in subset])) == 1),
                    None)
        assert linalg.unimodular_subset(vectors, k) == flat, (vectors, k)
        found += flat is not None
    assert 100 < found < 500


def test_lattice_basis_scan_skips_free_parts_of_a_sublattice(tmp_path,
                                                             capsys):
    # the 28 weights e_i + e_j in Z^8 are primitive, but their coordinate
    # sums are even, so no C(28, 8) = 3,108,105 subset is a lattice basis
    pairs = list(combinations(range(8), 2))
    rows = [[int(t in pair) for pair in pairs] for t in range(8)]
    path = _write(tmp_path, "vars = 28\nQ = [\n" + "".join(
        f"    {row},\n" for row in rows) + "]\n\n[grading]\nfree_rank = 8\n")
    start = perf_counter()
    assert main(["check", "--input", path]) == 1
    assert perf_counter() - start < 5
    assert "lattice basis among free parts: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("m", [7, 10])
def test_lattice_basis_search_drops_unsaturated_subsets(tmp_path, capsys, m):
    # each of m coordinate pairs of Z^2m carries (2,1), (1,2) and (1,4):
    # the 3m weights are primitive and generate Z^2m, but two of one
    # pair span an index 3, 7 or 2 sublattice, so no basis exists among
    # the C(3m, 2m) subsets (116,280 for m = 7, 30,045,015 for m = 10)
    cols = [[v[t - 2 * b] if 0 <= t - 2 * b < 2 else 0 for t in range(2 * m)]
            for b in range(m) for v in ((2, 1), (1, 2), (1, 4))]
    rows = [list(row) for row in zip(*cols)]
    path = _write(tmp_path, f"vars = {3 * m}\nQ = [\n" + "".join(
        f"    {row},\n" for row in rows)
        + f"]\n\n[grading]\nfree_rank = {2 * m}\n")
    start = perf_counter()
    assert main(["check", "--input", path]) == 1
    assert perf_counter() - start < 2
    assert "lattice basis among free parts: FAIL" in capsys.readouterr().out


def test_parse_failure_exit(tmp_path, capsys):
    path = _write(tmp_path, "vars = [oops\n")
    assert main(["parse-me", "--input", path]) == 2  # unknown subcommand
    assert main(["check", "--input", path]) == 2
    err = capsys.readouterr().err
    assert f"{path}:1:" in err


def test_empty_degree_matrix_exit(tmp_path, capsys):
    path = _write(tmp_path, "vars = 3\nQ = []\n[grading]\nfree_rank = 0\n"
                  "torsion = []\n")
    assert main(["check", "--input", path]) == 2
    assert capsys.readouterr().err == (
        f"{path}:2:1: Q must have at least one row\n")


def test_missing_input_file(tmp_path, capsys):
    assert main(["check", "--input", str(tmp_path / "absent.toml")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["autks"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_weights_aut_deterministic(capsys):
    assert main(["weights-aut", "--input", DEMO]) == 0
    first = capsys.readouterr().out
    assert first.startswith("4 weight symmetries")
    assert "symmetry 4:" in first
    assert main(["weights-aut", "--input", DEMO]) == 0
    assert capsys.readouterr().out == first


def test_weights_aut_dp5(capsys):
    # Aut(dP5) = S5 acts on the Picard group as the Weyl group W(A4)
    assert main(["weights-aut", "--input", str(ROOT / "demos" / "dp5.toml")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("120 weight symmetries\n")
    assert "symmetry 120:" in out


def test_weights_aut_rejects_bad_grading(tmp_path, capsys):
    path = _write(tmp_path, "vars = 2\nQ = [[1, -1]]\n\n[grading]\nfree_rank = 1\n")
    assert main(["weights-aut", "--input", path]) == 1
    assert "pointed" in capsys.readouterr().err


def test_autks_output_and_report(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    assert main(["autks", "--input", DEMO, "--out", out_path]) == 0
    out = capsys.readouterr().out
    assert "action basis size n = 8" in out
    assert "triple 4: weight symmetry" in out
    bundle = read_report(out_path)
    assert bundle.report.ok
    assert len(bundle.weight_auts) == 4
    assert len(bundle.presentation.triples) == 4
    assert bundle.stabilizer is None


def test_autgradalg_output(capsys):
    assert main(["autgradalg", "--input", DEMO]) == 0
    out = capsys.readouterr().out
    assert "ideal generator degrees: (0, 0, 2; 1)" in out
    assert "stabilizing conditions for triple 2 (3 generators):" in out
    assert "Y(1)*Y(46) - Y(24)*Y(31)" in out


def test_autxhat_demo(tmp_path, capsys):
    out_path = str(tmp_path / "filtered.json")
    assert main(["autxhat", "--input", DEMO, "--out", out_path]) == 0
    out = capsys.readouterr().out
    assert "git chamber of w = (1, 9, 16; 0):" in out
    assert "(0, 1, 1)\n(0, 1, 2)\n(1, 2, 3)" in out
    assert "1 of 4 weight symmetries fix the chamber" in out
    assert "stabilizing conditions for triple 2" not in out
    bundle = read_report(out_path)
    assert bundle.filter_result.retained == (0,)
    assert bundle.filter_result.chamber_rays == ((0, 1, 1), (0, 1, 2), (1, 2, 3))
    assert len(bundle.stabilizer.triples) == 4  # stored unfiltered


def test_autxhat_w_flag(tmp_path, capsys):
    no_w = _write(tmp_path, Path(DEMO).read_text().replace(
        "w = [1, 9, 16, 0]\n", ""))
    assert main(["autxhat", "--input", no_w]) == 2
    assert "no class given" in capsys.readouterr().err
    assert main(["autxhat", "--input", no_w, "--w", "1,9,16,0"]) == 0
    assert "1 of 4" in capsys.readouterr().out
    assert main(["autxhat", "--input", no_w, "--w", "1,9"]) == 2
    assert main(["autxhat", "--input", no_w, "--w", "a,b,c,d"]) == 2
    capsys.readouterr()


def _count_calls(monkeypatch, calls, module, name):
    """Record the arguments of every call to module.name in calls[name]."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.setdefault(name, []).append(args)
        return fn(*args, **kwargs)
    # rebind every module-level reference, `from .x import f` too
    for key, mod in list(sys.modules.items()):
        if key.startswith("gradedaut.") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)


def test_each_command_runs_each_stage_once(tmp_path, monkeypatch, capsys):
    calls = {}
    for module, name in ((validation, "validate_presentation"),
                         (weightsym, "aut_gen_weights"),
                         (ringaut, "build_action_basis"),
                         (gitfan, "_face_family"),
                         (algebraaut, "component_data"),
                         # shared by validation and the weight search
                         (linalg, "unimodular_subset")):
        _count_calls(monkeypatch, calls, module, name)
    report = str(tmp_path / "autxhat.json")
    runs = [["check", "--input", DEMO], ["weights-aut", "--input", DEMO],
            ["autks", "--input", DEMO], ["autgradalg", "--input", DEMO],
            ["autxhat", "--input", DEMO, "--out", report],
            ["export", "--input", DEMO], ["export", "--input", report]]
    for argv in runs:
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        # component_data once per distinct degree: its second argument
        degrees = [args[1] for args in calls.pop("component_data", [])]
        assert len(degrees) == len(set(degrees)), argv
        assert all(len(c) == 1 for c in calls.values()), (argv, calls)


def test_each_stage_enumerates_its_components_once(tmp_path, monkeypatch,
                                                   capsys):
    # validation reads S_q and S_(q - deg g) for the 8 weights q and the
    # one generator g, the action basis the 8 blocks S_q, and the
    # stabilizer S_u and S_0 for the generator degree u; a report's
    # reader runs the stages of autgradalg again; the weight cone, which
    # gives the positive functional and the chamber's effectiveness
    # test, is built once per command, by its one degree matrix
    calls = {}
    _count_calls(monkeypatch, calls, polynomials, "monomial_basis")
    build = grading.DegreeMatrix.weight_cone.func

    def counted(Q):
        calls.setdefault("weight_cone", []).append(Q)
        return build(Q)
    weight_cone = functools.cached_property(counted)
    weight_cone.__set_name__(grading.DegreeMatrix, "weight_cone")
    monkeypatch.setattr(grading.DegreeMatrix, "weight_cone", weight_cone)
    report = str(tmp_path / "autxhat.json")
    for argv, count in ((["check", "--input", DEMO], 16),
                        (["weights-aut", "--input", DEMO], 16),
                        (["autks", "--input", DEMO], 24),
                        (["autgradalg", "--input", DEMO], 26),
                        (["autxhat", "--input", DEMO, "--out", report], 26),
                        (["export", "--input", DEMO], 26),
                        (["export", "--input", report], 26)):
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls["monomial_basis"]) == count, argv
        assert len(calls["weight_cone"]) == 1, argv


def test_no_stage_keeps_a_process_wide_cache():
    problem = parse_input(Path(DEMO).read_text())
    ring = problem.ring()
    algebraaut.aut_grad_alg(ring, problem.ideal(ring))
    for module in (grading, polynomials, weightsym, ringaut, algebraaut):
        cached = [name for name, value in vars(module).items()
                  if hasattr(value, "cache_info")]
        assert not cached, (module.__name__, cached)


def test_each_exact_question_has_one_routine(monkeypatch):
    # the chamber of chamber10 asks one rref per candidate subset of at
    # most k = 3 of its ten weights, C(10,1) + C(10,2) + C(10,3) = 175,
    # with the subset's free parts as columns beside w0, and the double
    # description the other 168; it asks no rank and makes no Hermite
    # form; the torsion weight search makes one Hermite form per
    # candidate block, 28 through subgroup_presentation, one before its
    # lattice-basis search and one for the search's one node, the free
    # part (1) of the first weight
    problems = ROOT / "bench" / "problems"
    chamber = parse_input((problems / "chamber10.toml").read_text())
    torsion = parse_input((problems / "torsion.toml").read_text())
    calls = {}
    for name in ("rank", "rref", "hermite"):
        _count_calls(monkeypatch, calls, linalg, name)
    w = chamber.group().from_coordinates(chamber.w)
    gitfan.git_cone(chamber.degree_matrix(), w)
    assert {name: len(args) for name, args in calls.items()} == {"rref": 343}
    assert sum([row[-1] for row in M] == list(w.free_part)
               for (M,) in calls["rref"]) == 175
    calls.clear()
    weightsym.aut_gen_weights(torsion.degree_matrix())
    assert len(calls["hermite"]) == 30


# Z + Z/2 with both weights (1; 0): the weights miss the torsion
NON_EFFECTIVE = ("vars = 2\nQ = [[1, 1], [0, 0]]\n\n"
                 "[grading]\nfree_rank = 1\ntorsion = [2]\n")
# T(1)^2 spans the component in the weight of T(2)
IDEAL_MEETS_VARIABLE = ('vars = 2\nQ = [[1, 2]]\nideal = ["T(1)^2"]\n'
                        "w = [1]\n\n[grading]\nfree_rank = 1\n")
# the same over Z + Z/2, weights (1; 0), (1; 1) and (2; 0): two
# weights share the vertex colour of the basis vector (1; 0)
IDEAL_MEETS_VARIABLE_TORSION = (
    'vars = 3\nQ = [[1, 1, 2], [0, 1, 0]]\nideal = ["T(1)^2"]\n'
    "w = [1, 0]\n\n[grading]\nfree_rank = 1\ntorsion = [2]\n")
# ten variables of weight (1, 0) give 10! * 2! determinant terms, and
# T(11)^2 spans the component in the weight of T(12)
IDEAL_MEETS_VARIABLE_DET = (
    "vars = 12\nQ = [\n    [" + "1, " * 10 + "0, 0],\n    ["
    + "0, " * 10 + '1, 2],\n]\nideal = ["T(11)^2"]\n\n'
    "[grading]\nfree_rank = 2\n")
NOT_GENERATED = "error: the generator degrees do not generate the grading group"
COMPONENT = "error: the ideal has a nontrivial component in the generator degree"
DET_REFUSED = ("refused: symbolic determinant has {} terms, above the bound "
               "1000000 (ringaut.DET_TERM_BOUND)")


@pytest.mark.parametrize("text, argv, code, first_line", [
    (NON_EFFECTIVE, ["weights-aut"], 1, NOT_GENERATED),
    (NON_EFFECTIVE, ["autks"], 1, NOT_GENERATED),
    (IDEAL_MEETS_VARIABLE, ["autks"], 0, ""),
    (IDEAL_MEETS_VARIABLE, ["autgradalg"], 1, COMPONENT + " (2) (dimension 1)"),
    (IDEAL_MEETS_VARIABLE, ["export"], 1, COMPONENT + " (2) (dimension 1)"),
    (IDEAL_MEETS_VARIABLE, ["autxhat"], 1, COMPONENT + " (2) (dimension 1)"),
    (IDEAL_MEETS_VARIABLE, ["autxhat", "--w", "a"], 2,
     "{input}:1:1: --w must be a comma-separated integer list, got 'a'"),
    (IDEAL_MEETS_VARIABLE, ["autxhat", "--w=-1"], 1,
     "error: w is not an effective class"),
    (IDEAL_MEETS_VARIABLE_DET, ["autks"], 3, DET_REFUSED.format(7257600)),
    (IDEAL_MEETS_VARIABLE_DET, ["autgradalg"], 1,
     COMPONENT + " (0, 2) (dimension 1)"),
    (None, ["autks"], 3, DET_REFUSED.format(3628800)),
])
def test_refusal_order(tmp_path, capsys, text, argv, code, first_line):
    """The grading gate, then the search; for autxhat the class and its
    chamber; then the ideal gate, then the determinant guard."""
    path = (_write(tmp_path, text) if text is not None
            else str(ROOT / "bench" / "problems" / "linear10.toml"))
    assert main([argv[0], "--input", path, *argv[1:]]) == code
    err = capsys.readouterr().err
    assert (err.splitlines() or [""])[0] == first_line.format(input=path)


def test_search_guard_precedes_ideal_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(weightsym, "PLACEMENT_BOUND", 1)
    path = _write(tmp_path, IDEAL_MEETS_VARIABLE_TORSION)
    assert main(["autgradalg", "--input", path]) == 3
    assert capsys.readouterr().err == (
        "refused: weight symmetry search would try 2 placements of basis "
        "vector 1, above the bound 1 (weightsym.PLACEMENT_BOUND)\n")


def test_library_entry_points_keep_their_refusal_order(monkeypatch):
    """aut_ks, which has no ideal, meets the determinant guard;
    aut_grad_alg gates the ideal before the weight search and before
    it builds the ring presentation."""
    problem = parse_input(IDEAL_MEETS_VARIABLE_DET)
    ring = problem.ring()
    with pytest.raises(GuardError, match="has 7257600 terms"):
        aut_ks(ring)

    def unreached(*args):
        raise AssertionError("ring presentation built before the ideal gate")
    monkeypatch.setattr(ringaut, "ring_presentation", unreached)
    with pytest.raises(ValidationError,
                       match=r"generator degree \(0, 2\) \(dimension 1\)"):
        algebraaut.aut_grad_alg(ring, problem.ideal(ring))

    monkeypatch.setattr(weightsym, "PLACEMENT_BOUND", 1)
    problem = parse_input(IDEAL_MEETS_VARIABLE_TORSION)
    ring = problem.ring()
    with pytest.raises(ValidationError, match=r"generator degree \(2; 0\)"):
        algebraaut.aut_grad_alg(ring, problem.ideal(ring))


def _on_src(args, stdout, timeout=60):
    """Run a fresh interpreter with `args` on ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          timeout=timeout)


def _fresh_python(code, *args):
    """Run `code` in a fresh interpreter on ./src; stdout is dropped."""
    return _on_src(["-c", code, *args], subprocess.DEVNULL).returncode


# sha256 of the stdout of each library demo
DEMO_STDOUT = {
    "chamber_filter.py":
        "460f5d209ac703d44c8260d21b4b4dcf7536a41848a638ebd9a8f3ce78abc65b",
    "quotient_stabilizer.py":
        "ed9f60cb168e55a307f23225472b50461a57d79e9f680b87ffa79a01d4de3769",
    "ring_presentation.py":
        "aea91b2dbd1256c580324d2e204bb95f38e4c615e251ffb3184fd3beeee031fd",
    "weight_symmetries.py":
        "968d3fc61be016a72fedacafe1c97b494a09aec2c5dfcf394cb6b0b2034000b1",
}


@pytest.mark.parametrize("demo", DEMO_STDOUT)
def test_demo_stdout(demo):
    run = _on_src([str(ROOT / "demos" / demo)], subprocess.PIPE)
    assert run.returncode == 0
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT[demo]


def test_cli_import_leaves_numpy_out():
    # neither numpy nor any process pool machinery is loaded
    code = ("import sys, gradedaut.cli; sys.exit(any(m in sys.modules for m "
            "in ('numpy', 'multiprocessing', 'concurrent.futures.process')))")
    assert _fresh_python(code) == 0


# runs each argv of the JSON list argv[1] through main, then writes the
# exit code and the loaded gradedaut submodules after each to argv[2]
MODULES_AFTER = """
import json, sys
from gradedaut.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    seen.append([code, sorted(m.removeprefix("gradedaut.") for m in
                              sys.modules if m.startswith("gradedaut."))])
with open(sys.argv[2], "w") as fh:
    json.dump(seen, fh)
"""


def test_each_command_loads_only_its_stages(tmp_path):
    check = ["cli", "cones", "errors", "grading", "inout", "linalg",
             "polynomials", "validation"]
    weights = sorted(check + ["weightsym"])
    autks = sorted(weights + ["ringaut"])
    autgradalg = sorted(autks + ["algebraaut"])
    autxhat = sorted(autgradalg + ["gitfan"])
    # writing or reading a report loads its module too
    autxhat_out = sorted(autxhat + ["report"])
    report, seen = str(tmp_path / "autxhat.json"), tmp_path / "seen.json"
    runs = [["check", "--input", DEMO], ["weights-aut", "--input", DEMO],
            ["autks", "--input", DEMO], ["autgradalg", "--input", DEMO],
            ["autxhat", "--input", DEMO, "--out", report],
            ["export", "--input", report]]
    # one interpreter runs the commands in order, so the sets only grow
    assert _fresh_python(MODULES_AFTER, json.dumps(runs), str(seen)) == 0
    assert json.loads(seen.read_text()) == [
        [0, check], [0, weights], [0, autks], [0, autgradalg],
        [0, autxhat_out], [0, autxhat_out]]
    # an export of a report alone recomputes presentations, not chambers
    assert _fresh_python(MODULES_AFTER, json.dumps(runs[-1:]),
                         str(seen)) == 0
    assert json.loads(seen.read_text()) == [
        [0, sorted(autgradalg + ["report"])]]


# runs the command argv[2:] through main in a fresh interpreter, then
# writes its exit code and the modules it loaded that the bare
# interpreter had not to argv[1]; it imports nothing of its own first
LOADED_BY = """
import sys
bare = set(sys.modules)
from gradedaut.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(" ".join([str(code), *sorted(set(sys.modules) - bare)]))
"""


def test_report_module_loads_only_for_a_report_or_script(tmp_path):
    out, report = tmp_path / "loaded.txt", str(tmp_path / "autxhat.json")

    def loaded(*argv):
        assert _fresh_python(LOADED_BY, str(out), *argv) == 0
        code, *modules = out.read_text().split()
        assert code == "0"
        return set(modules)

    heavy = {"dataclasses", "inspect", "json", "gradedaut.report"}
    for command in ("check", "weights-aut", "autks", "autgradalg", "autxhat"):
        assert not loaded(command, "--input", DEMO) & heavy, command
    for argv in (["autxhat", "--input", DEMO, "--out", report],
                 ["export", "--input", report], ["export", "--input", DEMO]):
        modules = loaded(*argv)
        assert "gradedaut.report" in modules, argv
        assert "dataclasses" not in modules, argv


PUBLIC_NAMES = [
    "ActionBasis", "AutPresentation", "AutTriple",
    "DegreeMatrix", "FilterResult", "GradedAutError", "GradedPolyRing",
    "GradingGroup", "GroupAutomorphism", "GroupElement", "GuardError",
    "Ideal", "InputError", "Polynomial", "ProblemInput", "RationalCone",
    "ResultBundle", "StabilizerPresentation", "StabilizerTriple",
    "StructuralError", "ValidationError", "ValidationReport",
    "aut_gen_weights", "aut_grad_alg", "aut_ks", "aut_xhat",
    "build_action_basis", "check_effective", "check_pointed",
    "component_data", "component_dimension", "cone_from_rays",
    "degree_of", "degree_of_exponent", "dual_cone", "equal_cones",
    "export_cas_script", "git_cone", "ideal_generator_degrees",
    "intersect_cones", "is_homogeneous", "map_cone", "monomial_basis",
    "orbit_cones", "parse_input", "parse_polynomial",
    "polynomial_to_str", "print_input", "read_input", "read_report",
    "render_cone", "render_presentation", "render_stabilizer",
    "structured_matrix", "validate_presentation",
    "write_report", "zero_pattern_ideal",
]


def test_package_namespace_is_lazy():
    # importing the package loads no submodule; a submodule name is not
    # a public name, so `from gradedaut import linalg` imports it
    code = ("import sys, gradedaut\n"
            "loaded = [m for m in sys.modules if m.startswith('gradedaut.')]\n"
            "from gradedaut import linalg\n"
            "sys.exit(loaded != [] or linalg.__name__ != 'gradedaut.linalg')")
    assert _fresh_python(code) == 0
    import gradedaut
    assert gradedaut.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        obj = getattr(gradedaut, name)
        assert obj.__module__.startswith("gradedaut.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from gradedaut import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        gradedaut.no_such_name


def test_autxhat_rejects_non_effective(tmp_path, capsys):
    path = _write(tmp_path, TINY)
    assert main(["autxhat", "--input", path, "--w", "-1"]) == 1
    assert "not an effective class" in capsys.readouterr().err


def test_guard_refusal_exit_code(tmp_path, capsys):
    path = _write(tmp_path, WIDE)
    assert main(["autxhat", "--input", path, "--w", "1,1"]) == 3
    err = capsys.readouterr().err
    assert "refused:" in err
    assert "subset_bound" in err or "faces" in err


def test_export_from_problem(capsys):
    assert main(["export", "--input", DEMO]) == 0
    first = capsys.readouterr().out
    assert 'LIB "primdec.lib";' in first
    assert "ring Sp = 0,(Y(1..64),Z),dp;" in first
    assert "Y(1)*Y(46) - Y(24)*Y(31)" in first  # stabilizer layer included
    assert "intersect(J1,J2,J3,J4)" in first
    assert main(["export", "--input", DEMO]) == 0
    assert capsys.readouterr().out == first


def test_export_to_file_and_from_report(tmp_path, capsys):
    report = str(tmp_path / "bundle.json")
    assert main(["autxhat", "--input", DEMO, "--out", report]) == 0
    capsys.readouterr()
    script = str(tmp_path / "aut.sing")
    assert main(["export", "--input", report, "--out", script]) == 0
    text = Path(script).read_text()
    assert "// 1 weight symmetries" in text
    assert "ideal J = J1;" in text
    assert main(["export", "--input", report, "--out", script]) == 0
    assert Path(script).read_text() == text


def test_export_bad_dialect(capsys):
    # export writes one dialect and takes no option to name it
    assert main(["export", "--input", DEMO, "--dialect", "maple"]) == 2
    assert "unrecognized arguments: --dialect" in capsys.readouterr().err


def test_jobs_flag_and_env(tmp_path, capsys, monkeypatch):
    # --jobs is accepted and ignored and GRADED_AUT_JOBS is not read
    text = Path(DEMO).read_text().replace(
        'mode = "all-subsets"',
        'mode = "user-faces"\n'
        'faces = [[1, 2, 3], [4, 5, 6], [1, 7], [2, 8], [1, 3, 5, 7]]')
    path = _write(tmp_path, text)
    assert main(["autxhat", "--input", path, "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert "git chamber of w" in serial
    assert main(["autxhat", "--input", path, "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    monkeypatch.setenv("GRADED_AUT_JOBS", "2")
    assert main(["autxhat", "--input", path]) == 0
    assert capsys.readouterr().out == serial
    assert main(["autxhat", "--input", path, "--jobs", "abc"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [None, NO_IDEAL], ids=["quadric8", "no-ideal"])
def test_export_from_problem_matches_autgradalg_report(tmp_path, capsys, text):
    path = DEMO if text is None else _write(tmp_path, text)
    assert main(["export", "--input", path]) == 0
    direct = capsys.readouterr().out
    report = str(tmp_path / "bundle.json")
    assert main(["autgradalg", "--input", path, "--out", report]) == 0
    capsys.readouterr()
    assert main(["export", "--input", report]) == 0
    assert capsys.readouterr().out == direct
    if text is not None:
        # without an ideal the stabilizer layer adds nothing to the script
        problem = parse_input(text)
        bundle = ResultBundle(problem, presentation=aut_ks(problem.ring()))
        assert export_cas_script(bundle) == direct


def test_non_utf8_input_exit(tmp_path, capsys):
    path = tmp_path / "latin1.toml"
    path.write_bytes(b"vars = 2\nQ = [[1, 1]]\n# caf\xe9\n\n"
                     b"[grading]\nfree_rank = 1\n")
    for command in ("check", "export"):
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:3:6: not UTF-8 text")


@pytest.mark.parametrize("doc, where, message", [
    ('{"schema": "graded-aut/1"}', "2:27",
     "report differs from its recomputation: expected ',', found '\\n'"),
    ('{"schema": "graded-aut/1", "problem": []}', "3:14",
     "malformed report: 'list' object has no attribute 'get'"),
    ('{"schema": "graded-aut/1", "problem": {"grading": {"free_rank": "x"}}}',
     "3:14", 'malformed report: expected an integer, found "x"'),
    ('{"schema": "graded-aut/1", "problem": {"grading": {"free_rank": 1, '
     '"torsion": []}, "vars": 1, "Q": [[1]], "ideal": [], "mode": "foo"}}',
     "3:14", "malformed report: unknown mode 'foo'"),
], ids=["no-problem", "problem-list", "free-rank-string", "unknown-mode"])
def test_malformed_report_exit(tmp_path, capsys, doc, where, message):
    # in the writer's layout, so that the problem is reached and parsed
    path = _write(tmp_path, json.dumps(json.loads(doc), indent=2) + "\n",
                  "report.json")
    assert main(["export", "--input", path]) == 2
    assert capsys.readouterr().err == f"{path}:{where}: {message}\n"


@pytest.fixture(scope="module")
def quadric8_autxhat_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("autxhat") / "report.json"
    assert main(["autxhat", "--input", DEMO, "--out", str(path)]) == 0
    return path.read_text()


# two exponents per term in a ring of 8 * 8 + 1 slot variables
SHORT_EQUATION = [[[1, 2], [1, 1]]]

# each edit leaves a report json reads but the reader must refuse: the
# filter, which is parsed, fails its checks, and any other part is not
# what the report's problem gives
REPORT_HOLES = {
    "retained-past-end": lambda d: d["filter"].update(retained=[7]),
    "retained-negative": lambda d: d["filter"].update(retained=[-1]),
    "retained-repeated": lambda d: d["filter"].update(retained=[0, 0]),
    "filter-w-arity": lambda d: d["filter"].update(w=[1, 9, 16]),
    "chamber-ray-arity": lambda d: d["filter"]["chamber_rays"][0].append(0),
    "equation-arity": lambda d: d["presentation"]["triples"][0].update(
        equations=[SHORT_EQUATION]),
    "stabilizer-gen-arity": lambda d: d["stabilizer"]["stabilizer_gens"][0]
    .append(SHORT_EQUATION),
    "weight-symmetry-shape": lambda d: d["weight_symmetries"].__setitem__(
        0, [[5]]),
    "pattern-of-other-triple": lambda d: d["stabilizer"]["base"]["triples"][0]
    .update(pattern=d["stabilizer"]["base"]["triples"][1]["pattern"]),
}


@pytest.mark.parametrize("hole", REPORT_HOLES)
def test_export_refuses_inconsistent_report(tmp_path, capsys,
                                            quadric8_autxhat_report, hole):
    text = quadric8_autxhat_report
    data = json.loads(text)
    REPORT_HOLES[hole](data)
    edited = json.dumps(data, indent=2) + "\n"
    path = _write(tmp_path, edited, "report.json")
    assert main(["export", "--input", path]) == 2
    captured = capsys.readouterr()
    if data["filter"] != json.loads(text)["filter"]:
        at = edited.index('"filter": ') + len('"filter": ')
        expected = "malformed report: "
    else:
        at = next(i for i, (a, b) in enumerate(zip(text, edited)) if a != b)
        expected = "report differs from its recomputation: "
    line, col = line_col(edited, at)
    assert captured.err.startswith(f"{path}:{line}:{col}: {expected}")
    assert captured.out == ""


def _report_damage(text: bytes, damage: str):
    """The damaged report and the offset where it first differs from
    `text`, a CLI report."""
    if damage == "witness-byte":
        # a 1 of the first witness exponent vector read as 0: the old
        # decoder read that as another polynomial of the same shape
        data = json.loads(text)
        witness = data["presentation"]["triples"][0]["equations"][-1]
        mono = witness[0][0]
        mono[mono.index(1)] = 0
        edited = (json.dumps(data, indent=2) + "\n").encode()
        assert len(edited) == len(text)
        return edited, next(i for i, (a, b) in enumerate(zip(text, edited))
                            if a != b)
    if damage == "truncated":
        return text[:len(text) // 2], len(text) // 2
    if damage == "trailing":
        return text + b" \n", len(text)
    if damage == "compact":
        return json.dumps(json.loads(text)).encode(), 1
    at = text.index(b'"n": 8') + 5
    return text[:at] + b"\xff" + text[at + 1:], at


DAMAGE_MESSAGES = {
    "witness-byte": "report differs from its recomputation: expected '1', "
                    "found '0'",
    "truncated": "report ends early: expected ",
    "trailing": "text after the end of the report",
    "compact": "report differs from its recomputation: expected '\\n', "
               "found '\"'",
    "undecodable": "report differs from its recomputation: expected '8', "
                   "found byte 0xff",
}


@pytest.mark.parametrize("damage", DAMAGE_MESSAGES)
def test_report_must_be_its_recomputation(tmp_path, capsys, damage):
    message = DAMAGE_MESSAGES[damage]
    path = tmp_path / "report.json"
    assert main(["autgradalg", "--input", DEMO, "--out", str(path)]) == 0
    capsys.readouterr()
    edited, at = _report_damage(path.read_bytes(), damage)
    path.write_bytes(edited)
    assert main(["export", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    head = edited[:at].decode()
    line, col = line_col(head, len(head))
    assert captured.err.startswith(f"{path}:{line}:{col}: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_report_damage_inside_a_block_is_found_where_it_is(tmp_path, capsys):
    """The reader compares its recomputation in blocks of 64 KiB or
    more.  A byte flipped anywhere in the 0.7 MB report, well inside a
    block or at its last byte, and an early end anywhere are still
    reported at the line and column of the first byte that differs."""
    path = tmp_path / "report.json"
    assert main(["autgradalg", "--input", DEMO, "--out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_bytes()
    assert len(text) > 8 * 65536
    # past the problem section, whose values are parsed, not compared
    start = text.index(b'"validation"')
    rng = random.Random(64)
    digits = [i for i in range(start, len(text)) if text[i:i + 1] == b"0"]
    flips = [*rng.sample(digits, 6), digits[-1]]
    ends = [*rng.sample(range(start, len(text)), 6), len(text) - 1]
    for at, edited, message in (
            *((at, text[:at] + b"1" + text[at + 1:],
               "report differs from its recomputation: expected '0', "
               "found '1'") for at in flips),
            *((at, text[:at], "report ends early: expected "
               + repr(text[at:at + 1].decode())) for at in ends)):
        path.write_bytes(edited)
        assert main(["export", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        line, col = line_col(text.decode(), at)
        assert captured.err == f"{path}:{line}:{col}: {message}\n", at
        assert captured.out == ""


# sha256 of the stdout of demos/dp5.toml, as the dense slot ring printed it
DP5_STDOUT = {
    "autks": "31ebbf7e0689885a832a8e437bc3b6cd89972f710839b738689e85f529329d4c",
    "autgradalg":
        "831c475e4c0b83ac7d4ea246b5f6cc210eacc3ccd7c01762d039789bca6e5d20",
    "autxhat":
        "168a9a5b59fcb88a2d9a107925873d3af70c8a9885a9deaaf0f6b0ff80619b9b",
}


@pytest.mark.parametrize("command", DP5_STDOUT)
def test_dp5_stdout_is_frozen(command, capsys):
    assert main([command, "--input", str(ROOT / "demos" / "dp5.toml")]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DP5_STDOUT[command]


def test_closed_stdout_exits_quietly():
    """`graded-aut autks ... | head`: the reader leaves after one line,
    and the command ends with exit code 1 and nothing on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from gradedaut.cli import main; sys.exit(main())",
         "autks", "--input",
         str(ROOT / "demos" / "dp5.toml")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert run.stdout.readline().startswith(b"action basis size")
    run.stdout.close()
    assert run.stderr.read() == b""
    assert run.wait(timeout=60) == 1


# quadric8 with the class and faces that autxhat options override
USER_FACES = Path(DEMO).read_text().replace(
    'mode = "all-subsets"',
    'mode = "user-faces"\n'
    'faces = [[1, 2, 3], [4, 5, 6], [1, 7], [2, 8], [1, 3, 5, 7]]')


@pytest.mark.parametrize("text, option, coords, faces", [
    (None, "--w=-2,-1,4,0", (-2, -1, 4, 0), None),
    (USER_FACES, "--mode=all-subsets", (1, 9, 16, 0), None),
    (USER_FACES, None, (1, 9, 16, 0), ((1, 2, 3), (4, 5, 6), (1, 7), (2, 8),
                                       (1, 3, 5, 7))),
], ids=["w", "mode", "user-faces"])
def test_export_reads_the_filter_options_chose(tmp_path, capsys, text,
                                               option, coords, faces):
    # the report records neither --w nor --mode, so its filter is read,
    # not computed from the problem; the script is the one the library
    # gives for that filter
    path = DEMO if text is None else _write(tmp_path, text)
    report = tmp_path / "report.json"
    argv = ["autxhat", "--input", path, "--out", str(report)]
    assert main(argv + ([option] if option else [])) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["problem"]["w"] == [1, 9, 16, 0]
    assert data["filter"]["w"] == list(coords)
    assert main(["export", "--input", str(report)]) == 0
    script = capsys.readouterr().out
    problem = parse_input(Path(path).read_text())
    ring = problem.ring()
    stab = algebraaut.aut_grad_alg(ring, problem.ideal(ring))
    lam = gitfan.git_cone(ring.degrees, ring.grading.from_coordinates(coords),
                          faces)
    chamber = FilterResult(coords, gitfan.chamber_fixers(stab, lam), lam.rays)
    assert script == export_cas_script(
        ResultBundle(problem, stabilizer=stab, filter_result=chamber))


def test_user_faces_mode_needs_faces(capsys):
    assert main(["autxhat", "--mode", "user-faces", "--input", DEMO]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"{DEMO}:1:1: mode user-faces needs faces in "
                            "the input file\n")
    assert captured.out == ""


RSS_OF_COMMAND = """
import resource, subprocess, sys
code = subprocess.run([sys.executable, "-m", "gradedaut.cli", *sys.argv[1:]],
                      stdout=subprocess.DEVNULL).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_export_of_a_large_report_stays_small(tmp_path, capsys):
    # the 37.5 MB weights112 report is compared as it is read, never
    # held whole; a wrapper interpreter runs export alone, so that the
    # children of this process do not count
    report = tmp_path / "weights112.json"
    assert main(["autgradalg", "--input",
                 str(ROOT / "bench" / "problems" / "weights112.toml"),
                 "--out", str(report)]) == 0
    capsys.readouterr()
    assert report.stat().st_size > 37 * 10 ** 6
    run = _on_src(["-c", RSS_OF_COMMAND, "export", "--input", str(report)],
                  subprocess.PIPE)
    code, kib = map(int, run.stdout.split())
    assert (run.returncode, code) == (0, 0)
    assert kib < 40 * 1024


def test_autks_of_p117_streams_its_witness(tmp_path):
    # P(1,1,7): one 2-block and one 9-block, 2! * 9! = 725760 witness
    # terms and 51.5 MB of stdout, which leave a group of terms at a time
    path = _write(tmp_path, "vars = 3\nQ = [[1, 1, 7]]\n\n[grading]\n"
                            "free_rank = 1\n")
    run = _on_src(["-c", RSS_OF_COMMAND, "autks", "--input", path],
                  subprocess.PIPE)
    code, kib = map(int, run.stdout.split())
    assert (run.returncode, code) == (0, 0)
    assert kib < 120 * 1024


def test_autks_writes_stdout_in_bounded_pieces(monkeypatch):
    # stdout may be unbuffered, a system call per write: the 2 MB of
    # dense_quadric8 leave in a few large writes, none of them huge
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    sizes = []
    digest = hashlib.sha256()

    class Counting:
        def write(self, text):
            data = text.encode("utf-8")
            sizes.append(len(data))
            digest.update(data)

    monkeypatch.setattr(sys, "stdout", Counting())
    code = main(["autks", "--input",
                 str(ROOT / "bench" / "problems" / "dense_quadric8.toml")])
    monkeypatch.undo()
    assert code == 0
    assert (digest.hexdigest()
            == expected["dense-det"]["autks dense_quadric8.toml"]["stdout"])
    assert max(sizes) <= 256 * 1024
    assert len(sizes) <= 512


def test_huge_degree_generator_runs_autgradalg(tmp_path):
    # a generator of degree 10^8 - 1 in one variable: its component is
    # one monomial wide and its image one term long
    path = _write(tmp_path, 'vars = 1\nQ = [[1]]\nideal = ["T(1)^99999999"]'
                            "\n\n[grading]\nfree_rank = 1\n")
    run = _on_src(["-m", "gradedaut.cli", "autgradalg", "--input", path],
                  subprocess.PIPE)
    assert run.returncode == 0
    assert run.stdout.decode().endswith(
        "ideal generator degrees: (99999999)\n"
        "stabilizing conditions for triple 1 (0 generators):\n")


# twenty weights in Z^5 with a pointed weight cone
Z5_ROWS = (
    (4, 3, 1, 3, 4, 4, 4, 4, 2, 2, 2, 4, 3, 1, 4, 4, 1, 3, 2, 1),
    (-1, -3, 0, -2, 3, 0, 3, -1, -3, -3, -1, 1, -2, 0, 0, 2, -2, 1, 1, -3),
    (2, 0, -3, 2, 0, 1, 1, 2, -2, 0, -1, -1, 2, 3, 0, 0, 0, -3, -3, 3),
    (0, -1, -2, -2, -3, -1, -1, 0, -2, 3, -3, 1, 3, 3, 0, -3, -2, -3, -1, -2),
    (2, -2, 3, 0, -2, -2, 2, -2, -2, 1, -2, 1, 1, 3, -3, -2, -3, -3, 1, 1),
)
Z5_TWENTY = ("vars = 20\nQ = " + json.dumps([list(r) for r in Z5_ROWS])
             + "\nideal = []\n\n[grading]\nfree_rank = 5\ntorsion = []\n")


def test_check_decides_pointedness_of_twenty_weights_in_z5(tmp_path):
    # pointedness is read off the weight cone's double description; an
    # elimination whose size grows doubly exponentially with the free
    # rank would not finish here
    path = _write(tmp_path, Z5_TWENTY)
    run = _on_src(["-m", "gradedaut.cli", "check", "--input", path],
                  subprocess.PIPE, timeout=30)
    assert run.returncode == 0
    out = run.stdout.decode()
    assert out.count(": pass\n") == 6 and "FAIL" not in out


def test_check_report_written(tmp_path):
    out_path = str(tmp_path / "check.json")
    assert main(["check", "--input", DEMO, "--out", out_path]) == 0
    bundle = read_report(out_path)
    assert bundle.report.ok
    assert bundle.presentation is None
    assert bundle.weight_auts == ()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_gc_state(tmp_path, capsys, monkeypatch, enabled):
    during = []
    validate = validation.validate_presentation

    def recording(*args):
        during.append(gc.isenabled())
        return validate(*args)

    monkeypatch.setattr(validation, "validate_presentation", recording)
    wide = _write(tmp_path, WIDE)
    bad = _write(tmp_path, "vars = 2\n", "bad.toml")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in ((["check", "--input", DEMO], 0),
                           (["check", "--input", bad], 2),
                           (["autxhat", "--input", wide, "--w", "1,1"], 3)):
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert during == [False, False]


def test_bench_ops_match_frozen_stdout(tmp_path, capsys):
    """Every op of the benchmark, run in-process: its exit code and the
    sha256 of its stdout are the ones frozen in bench/expected.json."""
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    problems = ROOT / "bench" / "problems"
    for workload, ops in expected.items():
        work = tmp_path / workload
        work.mkdir()
        # an export of a report runs after the op that writes it
        for key in sorted(ops, key=lambda k: " report:" in k):
            command, source, *out = key.split(" ")
            if source.startswith("report:"):
                argv = [command, "--input",
                        str(work / source.removeprefix("report:"))]
            else:
                argv = [command, "--input", str(problems / source)]
            if out:
                assert out[0] == "--out"
                argv += ["--out", str(work / out[1])]
            code = main(argv + ["--jobs", "1"])
            stdout = capsys.readouterr().out.encode("utf-8")
            assert code == ops[key]["exit"], key
            digest = hashlib.sha256(stdout).hexdigest()
            assert digest == ops[key]["stdout"], f"{key}: stdout changed"
