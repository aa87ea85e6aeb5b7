"""Problem files, result bundles, and the script export."""

import hashlib
import inspect
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from conftest import QUADRIC8_GEN, QUADRIC8_ROWS, line_col
from oracles import bundle_to_data

from gradedaut.algebraaut import aut_grad_alg
from gradedaut.cli import main
from gradedaut.errors import InputError, StructuralError, ValidationError
from gradedaut.gitfan import aut_xhat, git_cone
from gradedaut.inout import (NESTING_BOUND, ProblemInput, parse_input,
                             print_input, read_input)
from gradedaut.polynomials import (EquationList, Polynomial, default_names,
                                   polynomial_to_str)
from gradedaut.report import (FilterResult, ResultBundle, _json_chunks,
                              export_cas_script, read_report,
                              report_from_text, report_to_text, write_report)
from gradedaut.ringaut import aut_ks
from gradedaut.validation import validate_presentation
from gradedaut.weightsym import aut_gen_weights

DEMO = Path(__file__).resolve().parent.parent / "demos" / "quadric8.toml"
BENCH_PROBLEMS = DEMO.parent.parent / "bench" / "problems"

TINY = "vars = 2\nQ = [[1, 1]]\n\n[grading]\nfree_rank = 1\n"

def _replace(obj, **changes):
    """A new object of obj's class, built from obj's constructor
    arguments with `changes` applied; each argument is read off obj as
    the attribute of its name."""
    names = inspect.signature(type(obj)).parameters
    return type(obj)(**{name: changes.get(name, getattr(obj, name))
                        for name in names})


QUADRIC8_PROBLEM = ProblemInput(3, (2,), 8, QUADRIC8_ROWS, (QUADRIC8_GEN,),
                                (1, 9, 16, 0))


@pytest.fixture(scope="module")
def quadric8_bundle(quadric8_ring, quadric8_ideal):
    problem = QUADRIC8_PROBLEM
    report = validate_presentation(quadric8_ring, quadric8_ideal)
    stab = aut_grad_alg(quadric8_ring, quadric8_ideal)
    displays = tuple(t.weight_aut.matrix for t in stab.base.triples)
    w = quadric8_ring.grading.from_coordinates(problem.w)
    lam = git_cone(quadric8_ring.degrees, w)
    filtered = aut_xhat(stab, w)
    retained = tuple(i for i, t in enumerate(stab.triples)
                     if t in filtered.triples)
    filt = FilterResult(problem.w, retained, lam.rays)
    return ResultBundle(problem, report, displays, stab.base, stab, filt)


def test_demo_file_parses():
    p = read_input(DEMO)
    assert p == QUADRIC8_PROBLEM
    assert p.var_count == 8
    assert p.free_rank == 3
    assert p.torsion == (2,)
    assert p.ideal_gens == (QUADRIC8_GEN,)
    assert p.w == (1, 9, 16, 0)
    assert p.faces is None and p.mode == "all-subsets"
    ring = p.ring()
    assert ring.variable_count == 8
    assert len(p.ideal(ring).generators) == 1


def test_print_parse_round_trip():
    for p in (QUADRIC8_PROBLEM,
              _replace(QUADRIC8_PROBLEM, w=None),
              _replace(QUADRIC8_PROBLEM, ideal_gens=()),
              _replace(QUADRIC8_PROBLEM, faces=((1, 2), (3,)),
                       mode="user-faces")):
        assert parse_input(print_input(p)) == p
    # printing is idempotent
    text = print_input(QUADRIC8_PROBLEM)
    assert print_input(parse_input(text)) == text


def test_round_trip_random_problems():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randint(0, 2)
        l = rng.randint(0, 1)
        if k + l == 0:
            continue  # a degree matrix needs at least one row
        torsion = tuple(rng.randint(2, 4) for _ in range(l))
        r = rng.randint(1, 4)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(r))
                     for _ in range(k + l))
        names = default_names(r)
        gens = []
        for _ in range(rng.randint(0, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(r))
                terms[mono] = Fraction(rng.choice((-3, -1, 1, 2)))
            f = Polynomial(terms)
            if not f.is_zero():
                gens.append(polynomial_to_str(f, names))
        w = tuple(rng.randint(-5, 5) for _ in range(k + l)) \
            if rng.random() < 0.5 else None
        if rng.random() < 0.3:
            faces = tuple(tuple(sorted(rng.sample(range(1, r + 1),
                                                  rng.randint(1, r))))
                          for _ in range(rng.randint(1, 2)))
            mode = "user-faces"
        else:
            faces, mode = None, "all-subsets"
        p = ProblemInput(k, torsion, r, rows, tuple(dict.fromkeys(gens)),
                         w, faces, mode)
        assert parse_input(print_input(p)) == p


def test_missing_value_and_bad_syntax():
    with pytest.raises(InputError) as err:
        parse_input("vars =\n")
    assert any("missing value" in d[2] for d in err.value.diagnostics)
    with pytest.raises(InputError) as err:
        parse_input('name = "open\nvars = 2\n')
    assert any("unterminated string" in d[2] for d in err.value.diagnostics)
    with pytest.raises(InputError) as err:
        parse_input("Q = [[1, 2\n")
    assert any("unterminated array" in d[2] for d in err.value.diagnostics)


def test_diagnostic_positions():
    text = "vars = 2\nQ = [[1, 2]]\n\n[grading]\nfree_rank = 1\ntorsion = ?\n"
    with pytest.raises(InputError) as err:
        parse_input(text)
    assert (6, 11) in [(d[0], d[1]) for d in err.value.diagnostics]


def test_row_length_diagnostic():
    text = DEMO.read_text().replace("[0, 1, 1, -1, -1, 0, 1, -1]",
                                    "[0, 1, 1, -1, -1, 0, 1]")
    with pytest.raises(InputError) as err:
        parse_input(text)
    assert "row 2" in str(err.value)
    assert "expected vars = 8" in str(err.value)


def test_row_count_diagnostic():
    text = "vars = 2\nQ = [[1, 1]]\n\n[grading]\nfree_rank = 2\ntorsion = []\n"
    with pytest.raises(InputError, match="expected free_rank"):
        parse_input(text)


def test_unknown_and_duplicate_keys():
    text = "vars = 2\nvars = 3\nfoo = 1\nQ = [[1, 1]]\n\n[grading]\nfree_rank = 1\n"
    with pytest.raises(InputError) as err:
        parse_input(text)
    msgs = [d[2] for d in err.value.diagnostics]
    assert any("duplicate key 'vars'" in m for m in msgs)
    assert any("unknown key 'foo'" in m for m in msgs)


def test_dotted_grading_keys():
    # at the top level a dotted key is the key of its section
    dotted = ("vars = 2\nQ = [[1, 1], [0, 1]]\ngrading.free_rank = 1\n"
              "grading.torsion = [2]\n")
    assert parse_input(dotted) == parse_input(
        "vars = 2\nQ = [[1, 1], [0, 1]]\n\n[grading]\nfree_rank = 1\n"
        "torsion = [2]\n")
    # both forms set one key
    with pytest.raises(InputError) as err:
        parse_input("grading.free_rank = 1\n" + TINY)
    assert err.value.diagnostics == (
        (6, 1, "duplicate key 'grading.free_rank'"),)
    # inside a section a dotted key reads below it
    with pytest.raises(InputError) as err:
        parse_input(TINY + "grading.torsion = []\n")
    assert err.value.diagnostics == (
        (6, 1, "unknown key 'grading.grading.torsion'"),)


def test_bounds_diagnostics():
    bad_torsion = "vars = 1\nQ = [[1], [0]]\n\n[grading]\nfree_rank = 1\ntorsion = [1]\n"
    with pytest.raises(InputError, match="at least 2"):
        parse_input(bad_torsion)
    bad_vars = "vars = 0\nQ = []\n\n[grading]\nfree_rank = 0\n"
    with pytest.raises(InputError, match="vars must be positive"):
        parse_input(bad_vars)
    with pytest.raises(InputError) as err:
        parse_input("vars = 1\nQ = [[1]]\n[grading]\nfree_rank = -1\n")
    assert err.value.diagnostics == ((4, 1, "free_rank must be nonnegative"),)


def test_ideal_generator_diagnostics():
    base = "vars = 2\nQ = [[1, 1]]\nideal = [{}]\n\n[grading]\nfree_rank = 1\n"
    with pytest.raises(InputError, match="ideal generator 1"):
        parse_input(base.format('"T(1) +"'))
    with pytest.raises(InputError, match="is zero"):
        parse_input(base.format('"T(1) - T(1)"'))
    with pytest.raises(InputError, match="must be a string"):
        parse_input(base.format("7"))


def test_generators_are_canonicalized():
    text = DEMO.read_text().replace(
        QUADRIC8_GEN, "T(7)*T(8) + T(3)*T(4) + T(2)*T(5) + T(1)*T(6)")
    assert parse_input(text).ideal_gens == (QUADRIC8_GEN,)


def test_missing_ideal_means_zero_ideal(quadric8_ring):
    text = "vars = 2\nQ = [[1, 1]]\n\n[grading]\nfree_rank = 1\n"
    p = parse_input(text)
    assert p.ideal_gens == ()
    assert p.ideal().generators == ()
    assert validate_presentation(p.ring(), p.ideal()).ok


def test_w_length_diagnostic():
    text = "vars = 2\nQ = [[1, 1]]\nw = [1, 2]\n\n[grading]\nfree_rank = 1\n"
    with pytest.raises(InputError, match="expected free_rank"):
        parse_input(text)


def test_mode_faces_consistency():
    head = "vars = 2\nQ = [[1, 1]]\n"
    tail = "\n[grading]\nfree_rank = 1\n"
    with pytest.raises(InputError, match="needs a faces key"):
        parse_input(head + 'mode = "user-faces"' + tail)
    with pytest.raises(InputError, match="mode is all-subsets"):
        parse_input(head + 'faces = [[1]]\nmode = "all-subsets"' + tail)
    with pytest.raises(InputError, match="mode must be one of"):
        parse_input(head + 'mode = "exhaustive"' + tail)
    p = parse_input(head + "faces = [[1], [2]]" + tail)
    assert p.mode == "user-faces" and p.faces == ((1,), (2,))


def test_face_diagnostics():
    head = "vars = 2\nQ = [[1, 1]]\n"
    tail = "\n[grading]\nfree_rank = 1\n"
    with pytest.raises(InputError, match="outside 1..2"):
        parse_input(head + "faces = [[1, 3]]" + tail)
    with pytest.raises(InputError, match="nonempty"):
        parse_input(head + "faces = [[]]" + tail)
    with pytest.raises(InputError, match="at least one face"):
        parse_input(head + "faces = []" + tail)
    with pytest.raises(InputError) as err:
        parse_input(head + "faces = 3" + tail)
    assert err.value.diagnostics == (
        (3, 1, "faces must be an array of index arrays"),)


def test_comments_and_trailing_commas():
    text = ("# leading note\n"
            "vars = 3   # three variables\n"
            "Q = [  # rows follow\n"
            "  [1, 1, 1,],  # a comment between rows\n"
            "]\n"
            "\n"
            "[grading]  # the group\n"
            "free_rank = 1\n"
            "torsion = [ ]\n")
    p = parse_input(text)
    assert p.var_count == 3
    assert p.rows == ((1, 1, 1),)


# what the mutations insert: the file syntax, and characters that
# str.isdigit() or str.isalnum() take but int() or the grammar do not
MUTATION_ALPHABET = list(" \t\n\r#[]=,\"-_0129TQvw()*+^/") + ["²", "١", "é"]


def _mutated(rng, text):
    """text after one to three seeded insertions, deletions,
    replacements or splices."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif op == 2:
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i + 1:]
        else:
            a = rng.randrange(len(text))
            text = text[:i] + text[a:a + rng.randint(1, 20)] + text[i:]
    return text


def test_parse_input_survives_mutations():
    """Every mutated problem file parses to a problem that prints and
    reads back as itself, or raises InputError; nothing else."""
    rng = random.Random(16)
    parsed = refused = 0
    for path in [DEMO, *sorted(BENCH_PROBLEMS.glob("*.toml"))]:
        base = path.read_text(encoding="utf-8")
        for _ in range(400):
            try:
                p = parse_input(_mutated(rng, base))
            except InputError:
                refused += 1
                continue
            parsed += 1
            assert parse_input(print_input(p)) == p
    assert parsed > 500 and refused > 1000


@pytest.mark.parametrize("value, col, message", [
    ("²", 8, "unexpected character '²' in value"),
    ("1" * 4301, 8, "integer longer than 4300 digits"),
    ("-", 8, "malformed integer"),
], ids=["superscript", "long", "bare-minus"])
def test_integer_values_exit_2(tmp_path, capsys, value, col, message):
    # '²'.isdigit() holds, but int('²') fails
    path = tmp_path / "problem.toml"
    path.write_text(TINY.replace("vars = 2", f"vars = {value}"),
                    encoding="utf-8")
    assert main(["check", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}:1:{col}: {message}\n"


def test_deep_arrays_exit_2(tmp_path, capsys):
    path = tmp_path / "problem.toml"
    path.write_text("vars = " + "[" * 3000 + "\n", encoding="utf-8")
    assert main(["check", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    col = 8 + NESTING_BOUND
    assert (f"{path}:1:{col}: arrays nested deeper than {NESTING_BOUND}\n"
            in err)
    # a closed array too deep is skipped whole, and the scan goes on
    path.write_text(TINY.replace("vars = 2", "vars = " + "[" * 3000
                                 + "]" * 3000), encoding="utf-8")
    assert main(["check", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:1:1: vars must be an integer\n"
        f"{path}:1:{col}: arrays nested deeper than {NESTING_BOUND}\n")


def test_deep_report_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{\n  "schema": ' + "[" * 100000 + "]" * 100000 + "\n}\n",
                    encoding="utf-8")
    assert main(["export", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"{path}:2:13: malformed report: arrays or objects nested too "
        "deeply\n")


@pytest.mark.parametrize("q, free_rank, rest", [
    ("[[1]]", 1, ""), ("[]", 0, "{path}:2:1: Q must have at least one row\n"),
], ids=["[[1]]-1", "[]-0"])
def test_huge_vars_exits_2(tmp_path, capsys, q, free_rank, rest):
    # a row of Q lists one entry per variable, so no problem file has
    # more variables than characters; no name is built for such a vars
    path = tmp_path / "problem.toml"
    text = (f'vars = {"1" * 30}\nQ = {q}\nideal = ["T(1)"]\n\n'
            f"[grading]\nfree_rank = {free_rank}\n")
    path.write_text(text, encoding="utf-8")
    start = perf_counter()
    assert main(["check", "--input", str(path)]) == 2
    assert perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"{path}:1:1: vars = {'1' * 30}, but no row of Q in a file of "
        f"{len(text)} characters has that many entries\n"
        + rest.format(path=path))


def test_long_integer_in_generator_exits_2(tmp_path, capsys):
    path = tmp_path / "problem.toml"
    path.write_text(DEMO.read_text().replace(
        QUADRIC8_GEN, "1" * 4301 + "*T(1)*T(6)"), encoding="utf-8")
    assert main(["check", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"{path}:11:1: ideal generator 1: integer longer than "
                   "4300 digits\n")


def test_zero_denominator_in_generator():
    text = DEMO.read_text().replace(QUADRIC8_GEN, "1/0*T(1)*T(6)")
    with pytest.raises(InputError, match="ideal generator 1: division by zero"):
        parse_input(text)


def test_problem_input_rejects_inconsistent_mode():
    with pytest.raises(StructuralError):
        ProblemInput(1, (), 2, ((1, 1),), mode="user-faces")
    with pytest.raises(StructuralError):
        ProblemInput(1, (), 2, ((1, 1),), faces=((1,),))


@pytest.mark.parametrize("fields", [
    {"free_rank": 1.0}, {"torsion": (2.5,)}, {"var_count": 2.0},
    {"rows": ((1, 1.5),)}, {"w": (0.5,)},
    {"faces": ((Fraction(1),),), "mode": "user-faces"},
], ids=["free_rank", "torsion", "var_count", "rows", "w", "faces"])
def test_problem_input_refuses_non_integers(fields):
    # int() would truncate these to integers silently
    args = {"free_rank": 1, "torsion": (), "var_count": 2,
            "rows": ((1, 1),), **fields}
    with pytest.raises(TypeError):
        ProblemInput(**args)


@pytest.mark.parametrize("fields", [
    ((0.5,), (0,), ((1,),)), ((1,), (Fraction(1),), ((1,),)),
    ((1,), (0,), ((1.5,),)),
], ids=["w", "retained", "rays"])
def test_filter_result_refuses_non_integers(fields):
    with pytest.raises(TypeError):
        FilterResult(*fields)


# --- result bundles ----------------------------------------------------

def test_report_round_trip_presentation_only(quadric8_ring):
    pres = aut_ks(quadric8_ring)
    bundle = ResultBundle(QUADRIC8_PROBLEM,
                          validate_presentation(quadric8_ring),
                          presentation=pres)
    text = report_to_text(bundle)
    back = report_from_text(text)
    assert report_to_text(back) == text
    assert json.loads(text)["timing"] is None
    assert len(back.presentation.slot_names()) == 65


def test_report_round_trip_full(quadric8_bundle):
    text = report_to_text(quadric8_bundle)
    assert report_to_text(report_from_text(text)) == text


def test_report_files(tmp_path, quadric8_bundle):
    path = tmp_path / "out.json"
    write_report(quadric8_bundle, path)
    first = path.read_bytes()
    assert report_to_text(read_report(path)).encode() == first
    write_report(quadric8_bundle, path)
    assert path.read_bytes() == first
    data = json.loads(first)
    assert data["schema"] == "graded-aut/1"
    assert data["timing"] is None


_STRINGS = ("", "plain", 'quote " and \\ backslash', "tab\tnew\nline",
            "\x01\x1f control", "caf\u00e9 \u2202 \U0001d538", "/slash/")
_LEAVES = (True, False, None, 0, -7, 10 ** 40, -(10 ** 40) + 1, 2.5,
           *_STRINGS)
_INTS = (0, 1, 2, -3, 10 ** 39 + 7, -(10 ** 40))


def _random_tree(rng, depth=0, shared=None):
    """A JSON tree; a dict already finished may stand again anywhere
    later in the same tree, as the CLI's presentation does."""
    if shared is None:
        shared = []
    roll = rng.random()
    if depth == 4 or roll < 0.2:
        return rng.choice(_LEAVES)
    if roll < 0.3:  # lists of ints take the writer's own path
        items = [rng.choice(_INTS) for _ in range(rng.randint(0, 6))]
        if items and rng.random() < 0.2:
            items[rng.randrange(len(items))] = rng.choice((True, False, None))
        return items
    if roll < 0.4:  # exponent-like digit vectors, some with one odd entry
        items = [rng.randrange(10) for _ in range(rng.randint(20, 70))]
        if rng.random() < 0.5:
            odd = rng.choice((10, -1, True, False, 10 ** 40 + 3))
            items[rng.randrange(len(items))] = odd
        return items
    if roll < 0.45 and shared:
        return rng.choice(shared)
    if roll < 0.7:
        return [_random_tree(rng, depth + 1, shared)
                for _ in range(rng.randint(0, 4))]
    tree = {rng.choice(_STRINGS) + str(i): _random_tree(rng, depth + 1, shared)
            for i in range(rng.randint(0, 4))}
    shared.append(tree)
    return tree


def _writer_cases(tree):
    """The writer paths a tree exercises: repeated dicts (deeper or
    shallower than first met, holding an escaped newline), digit
    vectors of length 20 or more, and long lists that must fall back
    because of a 10, a negative, a bool or a big int."""
    cases, first = set(), {}

    def walk(value, depth):
        if isinstance(value, dict) and value:
            if id(value) in first:
                cases.add("deeper" if depth > first[id(value)] else
                          "shallower" if depth < first[id(value)] else "same")
                if "\\n" in json.dumps(value):
                    cases.add("escaped")
                return
            first[id(value)] = depth
            for item in value.values():
                walk(item, depth + 1)
        elif isinstance(value, list):
            if len(value) >= 20 and all(isinstance(x, int) for x in value):
                odd = [x for x in value if type(x) is bool or not 0 <= x < 10]
                cases.add("digits" if not odd else
                          "bool" if type(odd[0]) is bool else
                          "negative" if odd[0] < 0 else
                          "ten" if odd[0] == 10 else "big")
            for item in value:
                walk(item, depth + 1)

    walk(tree, 0)
    return cases


def test_report_writer_matches_json_dumps():
    rng = random.Random(37)
    seen = set()
    for _ in range(400):
        tree = _random_tree(rng)
        seen |= _writer_cases(tree)
        out = []
        _json_chunks(tree, out.append, "\n")
        assert "".join(out) == json.dumps(tree, indent=2)
    assert seen >= {"deeper", "shallower", "escaped", "digits", "bool",
                    "negative", "ten", "big"}


def test_composite_report_writer(tmp_path):
    problem = read_input(BENCH_PROBLEMS / "weights112x12.toml")
    ring = problem.ring()
    ideal = problem.ideal(ring)
    stab = aut_grad_alg(ring, ideal)
    # two weight symmetries, one of which pairs components of unequal
    # dimension and makes no triple
    displays = tuple(a.matrix for a in aut_gen_weights(ring.degrees))
    assert len(displays) == 2 and len(stab.base.triples) == 1
    shared = ResultBundle(problem, validate_presentation(ring, ideal),
                          displays, stab.base, stab)
    data = bundle_to_data(shared)
    assert data["presentation"] is data["stabilizer"]["base"]
    path = tmp_path / "shared.json"
    write_report(shared, path)
    copied = read_report(path)
    assert copied.presentation is copied.stabilizer.base
    pres = stab.base
    equal = _replace(shared, presentation=_replace(pres))
    assert equal.presentation is not pres
    other = _replace(shared, presentation=_replace(
        pres, triples=pres.triples + pres.triples))
    for bundle in (shared, copied, equal, other):
        text = report_to_text(bundle)
        assert text == json.dumps(bundle_to_data(bundle), indent=2) + "\n"
        write_report(bundle, path)
        assert path.read_text(encoding="utf-8") == text
    assert report_to_text(copied) == report_to_text(shared)
    assert report_to_text(equal) == report_to_text(shared)


def _random_poly(rng, nvars):
    """Up to five terms in the slot ring of `nvars` variables, each on
    up to four of them, the first and the last among them: exponents
    1..12, and coefficients that are negative, fractional or several
    digits long; sometimes zero."""
    return Polynomial._of({
        tuple((i, rng.randint(1, 12)) for i in sorted(
            rng.sample(sorted({0, nvars - 1, *rng.sample(range(nvars), 4)}),
                       rng.randrange(5)))):
        Fraction(rng.choice((1, -1, 2, -17, 1234, -99999)),
                 rng.choice((1, 1, 2, 3, 100)))
        for _ in range(rng.randrange(6))})


def _block_witness_pattern(rng, n):
    """The columns each row of an n x n matrix may take, for square
    diagonal blocks of one to three rows, in a random order."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 3), n - sum(sizes)))
    rng.shuffle(sizes)
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    return tuple(tuple(range(s, s + k)) for s, k in zip(starts, sizes)
                 for _ in range(k))


def _random_equations(rng, n=8):
    """An equation list of the slot ring of an n x n matrix: a block
    pattern's zero slots and witness, then random polynomials; or, at
    random, the polynomials alone."""
    allowed = _block_witness_pattern(rng, n)
    rest = tuple(_random_poly(rng, n * n + 1)
                 for _ in range(rng.randint(1, 6)))
    return EquationList(allowed, rest) if rng.random() < 0.5 else rest


def test_report_writer_encodes_polynomials(quadric8_bundle, tmp_path):
    """Seeded reports whose equations mix zero slots, random slot-ring
    polynomials, zero polynomials and witnesses of block patterns.  The
    presentation stands twice, at two depths, and the stabilizer's
    equations at a third, beside the ideal in its 8 variables, so
    whatever the writer keeps from one polynomial for the next meets
    other variable counts and other indentations; only the whole report
    is compared."""
    rng = random.Random(18)
    path = tmp_path / "mixed.json"
    stab = quadric8_bundle.stabilizer
    pres = stab.base
    for _ in range(12):
        triples = tuple(_replace(t, ideal=_random_equations(rng))
                        for t in pres.triples)
        base = _replace(pres, triples=triples)
        stab_triples = tuple(
            _replace(t, base=b, stabilizer_gens=_random_equations(rng))
            for t, b in zip(stab.triples, triples))
        bundle = _replace(
            quadric8_bundle, presentation=base,
            stabilizer=_replace(stab, base=base, triples=stab_triples))
        expected = json.dumps(bundle_to_data(bundle), indent=2) + "\n"
        assert report_to_text(bundle) == expected
        write_report(bundle, path)
        assert path.read_text(encoding="utf-8") == expected


def _cli_report(tmp_path, capsys):
    """The JSON tree of quadric8's `autgradalg --out` report."""
    path = tmp_path / "cli.json"
    assert main(["autgradalg", "--input", str(DEMO), "--out", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text(encoding="utf-8"))


def _written(data):
    """The text the report writer gives for the tree `data`."""
    return json.dumps(data, indent=2) + "\n"


def _first_difference(text, other):
    """The offset of the first character where text and other differ."""
    return next((i for i, (a, b) in enumerate(zip(text, other)) if a != b),
                min(len(text), len(other)))


def _differs_at(path, text, edited):
    """The diagnostic for `edited`, a report that agrees with `text`, the
    writer's, up to their first difference."""
    at = _first_difference(text, edited)
    line, col = line_col(edited, at)
    return (f"{path}:{line}:{col}: report differs from its recomputation: "
            f"expected {text[at]!r}, found {edited[at]!r}\n")


def _value_at(path, text, key):
    """The position of the value of the top-level `key` of text."""
    line, col = line_col(text, text.index(f'\n  "{key}": ') + len(key) + 7)
    return f"{path}:{line}:{col}: "


def _first_term(pres_data):
    """The first term of the first equation: [exponents, [num, den]]."""
    return next(t for tr in pres_data["triples"] for g in tr["equations"]
                for t in g)


@pytest.mark.parametrize("section", ["base", "presentation"])
@pytest.mark.parametrize("one", [True, 1.0], ids=["true", "float"])
def test_report_exponent_must_be_int(tmp_path, capsys, section, one):
    # equal under ==, so only a comparison of the text tells them apart
    data = _cli_report(tmp_path, capsys)
    text = _written(data)
    pres = (data["stabilizer"]["base"] if section == "base"
            else data["presentation"])
    mono = _first_term(pres)[0]
    mono[mono.index(1)] = one
    assert data["presentation"] == data["stabilizer"]["base"]
    path = tmp_path / "edited.json"
    edited = _written(data)
    path.write_text(edited, encoding="utf-8")
    assert main(["export", "--input", str(path)]) == 2
    assert capsys.readouterr().err == _differs_at(path, text, edited)


def test_report_base_shared_unless_distinct(tmp_path, capsys):
    # a base whose equations differ from the presentation's is refused:
    # the writer writes the base the stages give, the presentation
    data = _cli_report(tmp_path, capsys)
    path = tmp_path / "report.json"
    text = _written(data)
    path.write_text(text, encoding="utf-8")
    shared = read_report(path)
    assert shared.stabilizer.base is shared.presentation
    assert main(["export", "--input", str(path)]) == 0
    capsys.readouterr()
    _first_term(data["stabilizer"]["base"])[1][0] = 7
    edited = _written(data)
    path.write_text(edited, encoding="utf-8")
    assert main(["export", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == _differs_at(path, text, edited)
    assert captured.out == ""
    assert _first_difference(text, edited) > text.index('"stabilizer"')


@pytest.mark.parametrize("edit", ["coefficient", "flag", "n"])
def test_report_integers_and_flags_are_strict(tmp_path, capsys, edit):
    # int() and bool() read all three as valid values: 1.5 as 1, "no" as
    # true, 8.0 as 8
    data = _cli_report(tmp_path, capsys)
    text = _written(data)
    if edit == "coefficient":
        for pres in (data["presentation"], data["stabilizer"]["base"]):
            _first_term(pres)[1] = [1.5, 1]
    elif edit == "flag":
        data["validation"]["effective"] = "no"
    else:
        for pres in (data["presentation"], data["stabilizer"]["base"]):
            pres["n"] = float(pres["n"])
    path = tmp_path / "edited.json"
    edited = _written(data)
    path.write_text(edited, encoding="utf-8")
    assert main(["export", "--input", str(path)]) == 2
    assert capsys.readouterr().err == _differs_at(path, text, edited)


@pytest.mark.parametrize("key, value, found", [
    ("ideal", "T(1)", '"T(1)"'),
    ("ideal", ["T(1)", 1], '["T(1)", 1]'),
    ("messages", "ok", None),
    ("messages", ["ok", 2], None),
], ids=["ideal-string", "ideal-number", "messages-string", "messages-number"])
def test_report_string_lists_are_strict(tmp_path, capsys, key, value, found):
    # tuple() reads a bare string as its characters: "ok" as ("o", "k");
    # the problem is parsed and checked, the validation recomputed
    data = _cli_report(tmp_path, capsys)
    text = _written(data)
    data["problem" if key == "ideal" else "validation"][key] = value
    path = tmp_path / "edited.json"
    edited = _written(data)
    path.write_text(edited, encoding="utf-8")
    assert main(["export", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    if found is None:
        assert err == _differs_at(path, text, edited)
    else:
        assert err == (_value_at(path, edited, "problem")
                       + "malformed report: expected a list of strings, "
                       f"found {found}\n")


@pytest.mark.parametrize("edit, found", [
    ("vars", "malformed report: problem section: Q row 1 has 8 entries, "
     "expected vars = 5; ideal generator 1: unknown variable 'T(6)'"),
    ("Q", "malformed report: problem section: Q row 1 has 2 entries, "
     "expected vars = 8"),
    ("ring", None),
    ("base", None),
    ("ideal", None),
    ("roster", None),
])
def test_report_parts_must_agree(tmp_path, capsys, edit, found):
    """Each part reads on its own, but they describe different problems:
    a problem that is no problem is refused at its value, and any other
    part that is not what its problem gives at its first differing
    byte, which for another problem lies after the problem section."""
    data = _cli_report(tmp_path, capsys)
    text = _written(data)
    problem = data["problem"]
    if edit == "vars":
        problem["vars"] = 5
    elif edit == "Q":
        problem["Q"] = [row[:2] for row in problem["Q"]]
    elif edit == "ring":
        problem["Q"] = [[row[1], row[0], *row[2:]] for row in problem["Q"]]
    elif edit == "base":
        # a base that reads on its own, for another ring
        other, out = tmp_path / "tiny.toml", tmp_path / "tiny.json"
        other.write_text(TINY, encoding="utf-8")
        assert main(["autks", "--input", str(other), "--out", str(out)]) == 0
        capsys.readouterr()
        data["stabilizer"]["base"] = json.loads(out.read_text())["presentation"]
    elif edit == "ideal":
        problem["ideal"] = ["T(1)"]
    else:
        data["stabilizer"]["roster"] *= 2
    path = tmp_path / "edited.json"
    edited = _written(data)
    path.write_text(edited, encoding="utf-8")
    assert main(["export", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if found is not None:
        assert captured.err == _value_at(path, edited, "problem") + found + "\n"
    elif edit in ("base", "roster"):
        assert captured.err == _differs_at(path, text, edited)
    else:
        line = int(captured.err.split(":")[1])
        assert line > edited.count("\n", 0, edited.index('"validation"'))
        assert "report differs from its recomputation" in captured.err


def test_long_integer_in_report_exits_2(tmp_path, capsys):
    text = _written(_cli_report(tmp_path, capsys))
    path = tmp_path / "edited.json"
    # in the problem, which is parsed, and in the presentation, which is
    # recomputed
    assert '"vars": 8,' in text and '"n": 8,' in text
    for old, new in (('"vars": 8,', '"vars": ' + "8" * 4301 + ","),
                     ('"n": 8,', '"n": ' + "8" * 4301 + ",")):
        edited = text.replace(old, new, 1)
        path.write_text(edited, encoding="utf-8")
        assert main(["export", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        if old.startswith('"vars"'):
            assert err == (_value_at(path, edited, "problem")
                           + "malformed report: integer longer than 4300 "
                           "digits\n")
        else:
            assert err == _differs_at(path, text, edited)


def test_report_section_behind_a_failed_gate_exits_1(tmp_path, capsys):
    # a grading that is not pointed gets no weight symmetry search: a
    # report that holds symmetries for it is refused as weights-aut
    # refuses its problem
    problem, path = tmp_path / "flat.toml", tmp_path / "flat.json"
    problem.write_text("vars = 2\nQ = [[1, -1]]\n\n[grading]\nfree_rank = 1\n",
                       encoding="utf-8")
    assert main(["check", "--input", str(problem), "--out", str(path)]) == 1
    capsys.readouterr()
    data = json.loads(path.read_text(encoding="utf-8"))
    data["weight_symmetries"] = [[[1]]]
    path.write_text(_written(data), encoding="utf-8")
    assert main(["export", "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: the weight configuration is not pointed; no strictly "
        "positive functional exists\n")


@pytest.fixture(scope="module")
def one_variable_report(tmp_path_factory):
    """The `autgradalg --out` text of k[T(1)] graded by Z."""
    work = tmp_path_factory.mktemp("one")
    problem, path = work / "one.toml", work / "one.json"
    problem.write_text("vars = 1\nQ = [\n    [1],\n]\n\n[grading]\n"
                       "free_rank = 1\ntorsion = []\n", encoding="utf-8")
    assert main(["autgradalg", "--input", str(problem),
                 "--out", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def test_report_prefixes_and_corruptions_exit_2(one_variable_report,
                                                capsys):
    """Each proper prefix and seeded one-byte corruptions of a small CLI
    report raise InputError.  Outside the values that are parsed, not
    recomputed, the diagnostic names the corrupted byte, or for a prefix
    the end of the text.  A "]" that closes the "[" of the weight
    symmetries reads as none, and differs one byte later."""
    text = one_variable_report
    assert report_to_text(report_from_text(text)) == text

    def value(key, until):
        return range(text.index(f'"{key}": ') + len(key) + 4,
                     text.index(f'  "{until}": '))

    parsed = [*value("schema", "validation"), *value("filter", "timing")]
    empty = value("weight_symmetries", "presentation")[1]
    rng = random.Random(43)
    cases = [(text[:k], k) for k in range(len(text))]
    cases += [(text[:k] + c + text[k + 1:], k)
              for k in rng.sample(range(len(text)), 300)
              for c in rng.sample('{}[]:,"01 \nxe-', 3) if c != text[k]]
    named = 0
    for case, at in cases:
        with pytest.raises(InputError) as info:
            report_from_text(case)
        [(line, col, message)] = info.value.diagnostics
        if at not in parsed:
            named += 1
            at += at == empty and case[at:at + 1] == "]"
            assert (line, col) == line_col(case, at), (case, message)
    assert named > len(text)
# one report per benchmark problem: the one the benchmark writes, else
# the autxhat report, else (no class w) the weight-symmetry report; the
# large determinant reports are covered by weights112's
BENCH_REPORTS = {"chamber10.toml": "autxhat", "dense_quadric8.toml": "weights-aut",
                 "linear10.toml": "weights-aut", "quadric8.toml": "autxhat",
                 "torsion.toml": "autxhat", "weights112.toml": "autgradalg",
                 "weights112x12.toml": "autxhat"}


def test_bench_reports_match_json_dumps(tmp_path, capsys):
    problems = BENCH_PROBLEMS
    assert sorted(p.name for p in problems.glob("*.toml")) == sorted(BENCH_REPORTS)
    # the digests the benchmark froze for the reports it writes
    expected = json.loads((problems.parent / "expected.json").read_text())
    frozen = {key: op["out"] for ops in expected.values()
              for key, op in ops.items() if op["out"] is not None}
    checked = []
    for name, command in BENCH_REPORTS.items():
        path = tmp_path / (name + ".json")
        assert main([command, "--input", str(problems / name),
                     "--out", str(path)]) == 0
        capsys.readouterr()
        key = f"{command} {name} --out {Path(name).stem}.report.json"
        if key in frozen:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == frozen[key], f"{key}: report bytes changed"
            checked.append(key)
        text = path.read_text(encoding="utf-8")
        bundle = read_report(path)
        # compared as flags: a diff of two 37 MB strings takes minutes
        same = text == json.dumps(bundle_to_data(bundle), indent=2) + "\n"
        assert same, f"{command} report of {name} differs from json.dumps"
        same = report_to_text(bundle) == text
        assert same, f"{command} report of {name} does not round-trip"
    assert sorted(checked) == sorted(frozen)


def test_report_schema_errors(quadric8_bundle):
    data = json.loads(report_to_text(quadric8_bundle))
    data["schema"] = "graded-aut/9"
    with pytest.raises(InputError) as info:
        report_from_text(_written(data))
    assert list(info.value.diagnostics) == [
        (2, 13, "unsupported report schema 'graded-aut/9'; this build "
         "reads 'graded-aut/1'")]
    with pytest.raises(InputError) as info:
        report_from_text("not a report")
    assert list(info.value.diagnostics) == [
        (1, 1, "report differs from its recomputation: expected '{', "
         "found 'n'")]


def test_filtered_view_matches_filter(quadric8_bundle, quadric8_ring):
    stab = quadric8_bundle.stabilizer
    filt = quadric8_bundle.filter_result
    w = quadric8_ring.grading.from_coordinates(filt.w)

    def text(view):
        return report_to_text(_replace(quadric8_bundle, stabilizer=view))

    assert text(stab.restrict(filt.retained)) == text(aut_xhat(stab, w))
    assert filt.retained == (0,)
    assert filt.chamber_rays == ((0, 1, 1), (0, 1, 2), (1, 2, 3))


# --- script export -----------------------------------------------------

def test_export_script_shape(quadric8_bundle):
    bundle = _replace(quadric8_bundle, stabilizer=None, filter_result=None)
    script = export_cas_script(bundle)
    assert script.startswith("// automorphism equations")
    assert 'LIB "primdec.lib";' in script
    assert "ring Sp = 0,(Y(1..64),Z),dp;" in script
    for name in ("J1", "J2", "J3", "J4"):
        assert f"ideal {name} = " in script
    assert "ideal J = intersect(J1,J2,J3,J4);" in script
    assert "dim(std(J));" in script
    assert "absPrimdecGTZ(J)" in script
    assert export_cas_script(bundle) == script


def test_export_includes_stabilizer_equations(quadric8_bundle):
    bundle = _replace(quadric8_bundle, filter_result=None)
    script = export_cas_script(bundle)
    for gen in ("Y(1)*Y(46) - Y(24)*Y(31)",
                "Y(13)*Y(34) - Y(24)*Y(31)",
                "-Y(24)*Y(31) + Y(52)*Y(59)"):
        assert gen in script


def test_export_respects_filter(quadric8_bundle):
    script = export_cas_script(quadric8_bundle)
    assert "// 1 weight symmetries" in script
    assert "// triple 1 of the full list" in script
    assert "ideal J1 = " in script
    assert "ideal J2" not in script
    assert "ideal J = J1;" in script
    assert "intersect" not in script


def test_export_empty_presentation(quadric8_bundle):
    pres = quadric8_bundle.presentation
    empty = _replace(pres, triples=())
    bundle = ResultBundle(QUADRIC8_PROBLEM, presentation=empty)
    script = export_cas_script(bundle)
    assert "ring Sp = 0,(Y(1..64),Z),dp;" in script
    assert "ideal" not in script
    assert "dim" not in script


def test_export_errors(quadric8_bundle, capsys):
    # the dialect the script is written in is not an option, not even by
    # its own name
    assert main(["export", "--input", str(DEMO),
                 "--dialect", "singular-like"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="no presentation"):
        export_cas_script(ResultBundle(QUADRIC8_PROBLEM))
