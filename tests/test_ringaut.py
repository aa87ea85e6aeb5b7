import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from gradedaut import polynomials, report, ringaut, weightsym
from gradedaut.cli import main
from gradedaut.errors import GuardError, StructuralError, ValidationError
from gradedaut.grading import DegreeMatrix, GradingGroup, GroupAutomorphism
from gradedaut.polynomials import (EquationList, GradedPolyRing, Polynomial,
                                   polynomial_to_str)
from gradedaut.ringaut import (ActionBasis, SymbolicMatrix, aut_ks,
                               multiplicativity_ideal, render_presentation,
                               structured_matrix, substitute_polynomial,
                               variable_product_ideal, yz_names,
                               zero_pattern_ideal)

from conftest import QUADRIC8_AUT_MATRICES
from oracles import (det_oracle, encode_poly, is_identity, poly_mul,
                     reference_multiplicativity_ideal, reference_substitution,
                     reference_variable_product_ideal, torus_character,
                     total_degree)

WEIGHTS112 = (Path(__file__).resolve().parent.parent
              / "bench" / "problems" / "weights112.toml")


@pytest.fixture(scope="module")
def quadric8_basis(quadric8_ring):
    return ActionBasis(quadric8_ring)


@pytest.fixture(scope="module")
def quadric8_presentation(quadric8_ring):
    return aut_ks(quadric8_ring)


def zring(*rows):
    """The ring graded by Z^k, k = len(rows), whose degree matrix has
    these rows."""
    group = GradingGroup(len(rows), ())
    return GradedPolyRing(DegreeMatrix.from_rows(group, rows))


def test_action_basis_quadric8(quadric8_basis):
    b = quadric8_basis
    assert b.n == 8
    assert all(len(block) == 1 for block in b.blocks)
    # every component is spanned by its own variable, in variable order
    expected = tuple(tuple(int(i == t) for i in range(8)) for t in range(8))
    assert b.flat == expected
    assert b.weights == b.ring.degrees.distinct_weights()
    assert b.flat_degree(1) == b.ring.degrees.columns[1]


def test_action_basis_mixed_blocks():
    ring = zring((1, 2))
    b = ActionBasis(ring)
    assert b.flat == ((1, 0), (2, 0), (0, 1))
    assert b.dims == (1, 2)
    assert b.starts == (0, 1, 3)
    assert b.row_block == (0, 1, 1)
    assert b.variable_rows == (0, 2)
    # T(1)^2 = T(1) * T(1); T(2) has the same degree but no pair
    assert b.factors == [[], [(0, 0)], []]


def test_factor_table_matches_brute_force():
    """On seeded gradings over Z and Z^2 whose components hold
    composites of degree 3 or more, the factor table lists exactly the
    pairs a <= b with flat[a] * flat[b] = flat[m], in (a, b) order, and
    the composites without a pair are those no basis monomial divides
    with a basis monomial as quotient."""
    rng = random.Random(33)
    cubes = unfactored = 0
    for _ in range(40):
        r = rng.randint(2, 4)
        rows = [[rng.randint(1, 4) for _ in range(r)]]
        if rng.random() < 0.5:
            rows.append([rng.randint(0, 2) for _ in range(r)])
        basis = ActionBasis(zring(*rows))
        flat, n = basis.flat, basis.n
        assert basis.factors == [
            [(a, b) for a in range(n) for b in range(a, n)
             if tuple(x + y for x, y in zip(flat[a], flat[b])) == m]
            for m in flat]
        members = set(flat)
        expected = [m for m in flat if sum(m) >= 2 and not any(
            all(x <= y for x, y in zip(d, m))
            and tuple(y - x for x, y in zip(d, m)) in members for d in flat)]
        assert [flat[i] for i in range(n)
                if sum(flat[i]) >= 2 and not basis.factors[i]] == expected
        cubes += any(sum(m) >= 3 for m in flat)
        unfactored += len(expected)
    assert cubes >= 5 and unfactored >= 5, (cubes, unfactored)


def test_structured_matrix_identity_is_diagonal(quadric8_basis, quadric8_group):
    m = structured_matrix(quadric8_basis, GroupAutomorphism.identity(quadric8_group))
    assert m.n == 8
    for i in range(8):
        for j in range(8):
            expect = i * 8 + j + 1 if i == j else 0
            assert m.pattern[i][j] == expect
    assert tuple(v for row in m.pattern for v in row if v) == (
        1, 10, 19, 28, 37, 46, 55, 64)


def test_structured_matrix_frozen_pattern(quadric8_basis, quadric8_group):
    aut = GroupAutomorphism(quadric8_group, QUADRIC8_AUT_MATRICES[1])
    m = structured_matrix(quadric8_basis, aut)
    positions = tuple((i + 1, j + 1) for i in range(8) for j in range(8)
                      if m.pattern[i][j])
    assert positions == ((1, 1), (2, 5), (3, 8), (4, 7),
                         (5, 2), (6, 6), (7, 4), (8, 3))
    assert tuple(v for row in m.pattern for v in row if v) == (
        1, 13, 24, 31, 34, 46, 52, 59)


def test_structured_matrix_rejects_dimension_mismatch():
    group = GradingGroup(2, ())
    cols = (group.element((1, 0), ()), group.element((0, 1), ()),
            group.element((0, 1), ()))
    ring = GradedPolyRing(DegreeMatrix(cols))
    basis = ActionBasis(ring)
    swap = GroupAutomorphism(group, ((0, 1), (1, 0)))
    with pytest.raises(StructuralError):
        structured_matrix(basis, swap)


def test_zero_pattern_ideal_identity(quadric8_basis, quadric8_group):
    m = structured_matrix(quadric8_basis, GroupAutomorphism.identity(quadric8_group))
    gens = zero_pattern_ideal(m)
    assert len(gens) == 57
    names = yz_names(8)
    # zero slots first, row major
    assert polynomial_to_str(gens[0], names) == "Y(2)"
    assert polynomial_to_str(gens[55], names) == "Y(63)"
    assert all(len(g.terms) == 1 and total_degree(g) == 1
               for g in list(gens)[:56])
    assert polynomial_to_str(gens[56], names) == \
        "Y(1)*Y(10)*Y(19)*Y(28)*Y(37)*Y(46)*Y(55)*Y(64)*Z - 1"


def test_zero_pattern_ideal_frozen_det(quadric8_basis, quadric8_group):
    aut = GroupAutomorphism(quadric8_group, QUADRIC8_AUT_MATRICES[1])
    gens = zero_pattern_ideal(structured_matrix(quadric8_basis, aut))
    assert len(gens) == 57
    assert polynomial_to_str(gens[56], yz_names(8)) == \
        "-Y(1)*Y(13)*Y(24)*Y(31)*Y(34)*Y(46)*Y(52)*Y(59)*Z - 1"


def test_zero_pattern_singular_pattern_rejected():
    m = SymbolicMatrix(((1, 2), (0, 0)))
    with pytest.raises(StructuralError):
        zero_pattern_ideal(m)


def test_zero_pattern_non_block_rejected():
    # row supports {0, 1} and {1} overlap without forming square blocks
    m = SymbolicMatrix(((1, 2), (0, 4)))
    with pytest.raises(StructuralError):
        zero_pattern_ideal(m)


def _block_pattern(rng, shuffle):
    """A random block permutation of full square blocks of sizes 1-3,
    not the identity on blocks; with `shuffle`, rows and columns are
    also put in random order."""
    while True:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        # blocks of equal size trade places among themselves
        by_size = {}
        for b in range(len(sizes)):
            by_size.setdefault(sizes[b], []).append(b)
        target = list(range(len(sizes)))
        for group in by_size.values():
            moved = group[:]
            rng.shuffle(moved)
            for b, c in zip(group, moved):
                target[b] = c
        if target != list(range(len(sizes))):
            break
    row_block = [b for b in range(len(sizes)) for _ in range(sizes[b])]
    col_block = row_block[:]
    if shuffle:
        rng.shuffle(row_block)
        rng.shuffle(col_block)
    n = len(row_block)
    return SymbolicMatrix(tuple(
        tuple(i * n + j + 1 if col_block[j] == target[row_block[i]] else 0
              for j in range(n)) for i in range(n))), sizes


def test_zero_pattern_det_matches_integer_det():
    rng = random.Random(53)
    for trial in range(60):
        m, sizes = _block_pattern(rng, shuffle=trial % 2 == 1)
        n = m.n
        det_gen = zero_pattern_ideal(m)[-1]
        expected_terms = math.prod(math.factorial(k) for k in sizes)
        assert len(det_gen.terms) == expected_terms + 1
        for _ in range(3):
            values = [rng.randint(-3, 3) for _ in range(n * n)]
            A = [[values[i * n + j] if m.pattern[i][j] else 0
                  for j in range(n)] for i in range(n)]
            point = [Fraction(v) for v in values] + [Fraction(1)]
            assert det_gen.substitute_values(point) == det_oracle(A) - 1


def _reference_witness(matrix):
    """det(A) * Z - 1 expanded term by term into a plain Polynomial: the
    sign of the block permutation times one Leibniz term per block, each
    sign counted from the inversions of its permutation."""
    n = matrix.n
    supports = {}
    for i, row in enumerate(matrix.pattern):
        supports.setdefault(tuple(j for j, v in enumerate(row) if v), []).append(i)
    base = dict(pair for cols, rows in supports.items() for pair in zip(rows, cols))
    inversions = sum(base[a] > base[b] for a, b in combinations(range(n), 2))
    sign = -1 if inversions % 2 else 1
    blocks = []
    for cols, rows in supports.items():
        block = []
        for perm in permutations(range(len(rows))):
            odd = sum(perm[a] > perm[b]
                      for a, b in combinations(range(len(perm)), 2)) % 2
            block.append((tuple(i * n + cols[p] for i, p in zip(rows, perm)),
                          -1 if odd else 1))
        blocks.append(block)
    terms = {}
    for choice in product(*blocks):
        slots = sorted(v for block_slots, _ in choice for v in block_slots)
        term_sign = sign
        for _, block_sign in choice:
            term_sign *= block_sign
        # one slot per row, then the witness variable Z
        terms[tuple((v, 1) for v in slots) + ((n * n, 1),)] = Fraction(term_sign)
    terms[()] = Fraction(-1)
    return Polynomial._of(terms)


def test_witness_matches_eager_expansion(quadric8_presentation):
    rng = random.Random(53)
    matrices = [_block_pattern(rng, shuffle=trial % 2 == 1)[0]
                for trial in range(60)]
    matrices.extend(t.matrix for t in quadric8_presentation.triples)
    n = 8
    # the dense 8 x 8 witness, 40320 terms, is left out of the report
    # text, which would take seconds to dump
    matrices.append(SymbolicMatrix(tuple(tuple(i * n + j + 1 for j in range(n))
                                         for i in range(n))))
    for matrix in matrices:
        gens = zero_pattern_ideal(matrix)
        zeros = [Polynomial._of({((v, 1),): Fraction(1)})
                 for v in gens.zero_slots()]
        reference = _reference_witness(matrix)
        names = yz_names(matrix.n)
        # compared as flags: a diff of 40321 terms takes minutes to print
        out = []
        gens.write(names, out.append, ", ", {})
        printed = "".join(out) == ", ".join(polynomial_to_str(g, names)
                                            for g in (*zeros, reference))
        witness = gens.witness()
        assert type(witness) is Polynomial
        ordered = witness.sorted_terms() == reference.sorted_terms()
        expanded = witness.terms == reference.terms
        assert (printed, ordered, expanded) == (True, True, True), str(matrix)
        assert gens[len(zeros)] == reference
        if len(reference.terms) < 1000:
            nvars = matrix.n ** 2 + 1
            out = []
            report._polys_chunks(gens, nvars, {}, out.append, "\n")
            written = "".join(out) == json.dumps(
                [encode_poly(f, nvars) for f in (*zeros, reference)],
                indent=2)
            assert written, str(matrix)


def test_autks_prints_the_witness_unexpanded(monkeypatch, tmp_path, capsys):
    expanded = []
    expand = EquationList.witness

    def counted(self):
        expanded.append(self)
        return expand(self)

    monkeypatch.setattr(EquationList, "witness", counted)
    problem = str(WEIGHTS112)
    assert main(["autks", "--input", problem]) == 0
    printed = capsys.readouterr().out
    assert main(["autks", "--input", problem,
                 "--out", str(tmp_path / "autks.json")]) == 0
    same = capsys.readouterr().out == printed
    assert same, "--out changes stdout"
    path = str(tmp_path / "autgradalg.json")
    assert main(["autgradalg", "--input", problem, "--out", path]) == 0
    assert main(["export", "--input", path]) == 0
    script = capsys.readouterr().out
    assert "Y(1)*Y(14)" in script and "*Z - 1" in script
    assert expanded == []
    # the count sees an expansion, as the first generator of each list
    zero_pattern_ideal(SymbolicMatrix(((1,),)))[0]
    assert len(expanded) == 1


def test_autgradalg_sorts_and_renders_each_generator_once(monkeypatch,
                                                          tmp_path, capsys):
    """In-process `autgradalg --out` on weights112 sorts each polynomial
    at most once, and builds the text of each multiplicativity
    generator, which both triples share, once for stdout and once for
    each of its two pads in the report: each text build reads the terms
    in order once."""
    shared, reads, texts = [], [], []
    build, sort = ringaut.multiplicativity_ideal, Polynomial.sorted_terms
    to_str = polynomials.polynomial_to_str

    def kept(basis):
        shared.extend(build(basis))
        return shared

    def counted_sort(self):
        reads.append((self, self._sorted is None))
        return sort(self)

    def counted_str(f, names):
        texts.append(f)
        return to_str(f, names)

    monkeypatch.setattr(ringaut, "multiplicativity_ideal", kept)
    monkeypatch.setattr(Polynomial, "sorted_terms", counted_sort)
    monkeypatch.setattr(polynomials, "polynomial_to_str", counted_str)
    assert main(["autgradalg", "--input", str(WEIGHTS112),
                 "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert len(shared) == 468
    sorts = Counter(id(f) for f, unsorted in reads if unsorted)
    read = Counter(id(f) for f, _ in reads)
    assert max(sorts.values()) == 1
    assert [(sorts[id(g)], read[id(g)]) for g in shared] == [(1, 3)] * 468
    built = Counter(map(id, texts))
    assert [built[id(g)] for g in shared] == [1] * 468


def test_aut_ks_refuses_ten_linear_variables(monkeypatch):
    with pytest.raises(GuardError) as info:
        aut_ks(zring((1,) * 10))
    assert "3628800" in str(info.value)
    assert "1000000" in str(info.value)

    # the refusal comes before a single Leibniz term is walked
    def no_terms(*args):
        raise AssertionError("determinant terms listed before the guard")

    monkeypatch.setattr(polynomials, "_leibniz", no_terms)
    with pytest.raises(GuardError) as info:
        aut_ks(zring((1,) * 10))
    assert "3628800" in str(info.value)
    assert "1000000" in str(info.value)
    # the patch is where every witness term comes from
    with pytest.raises(AssertionError, match="before the guard"):
        zero_pattern_ideal(SymbolicMatrix(((1,),)))[-1]


def test_zero_pattern_term_guard(monkeypatch):
    n = 3
    full = SymbolicMatrix(tuple(tuple(i * n + j + 1 for j in range(n))
                                for i in range(n)))
    assert len(zero_pattern_ideal(full)) == 1
    # the guard reads the constant when it runs
    monkeypatch.setattr(ringaut, "DET_TERM_BOUND", 5)
    with pytest.raises(GuardError, match=r"6 terms, above the bound 5 "
                       r"\(ringaut.DET_TERM_BOUND\)"):
        zero_pattern_ideal(full)
    with pytest.raises(GuardError, match="6 terms"):
        aut_ks(zring((1, 1, 1)))


def test_multiplicativity_empty_for_variable_blocks(quadric8_basis):
    assert multiplicativity_ideal(quadric8_basis) == []


def test_multiplicativity_frozen_equations():
    basis = ActionBasis(zring((1, 2)))
    gens = multiplicativity_ideal(basis)
    names = yz_names(3)
    assert [polynomial_to_str(g, names) for g in gens] == [
        "Y(2)^2",
        "2*Y(1)*Y(2)",
        "2*Y(2)*Y(3)",
        "Y(1)^2 - Y(5)",
        "2*Y(1)*Y(3)",
        "Y(3)^2",
        "-Y(4)",
        "-Y(6)",
    ]


def test_multiplicativity_fixes_composites_without_a_pair():
    """P(1,1,3): T(1)^3 has no factorization inside the basis, since 2 is
    no generator weight.  Swapping the rows of T(1)^3 and T(3), with
    Z = -1 for the determinant, satisfies the zero pattern and the
    witness, but it is no ring map: it sends T(1)^3 to T(3), not to the
    cube of the image of T(1)."""
    pres = aut_ks(zring((1, 1, 3)))
    basis, n = pres.basis, pres.n
    # 20 zero slots, the witness, and 5 equations for each of the 4
    # cubes in T(1), T(2): one per surviving slot of its row
    assert [len(t.ideal) for t in pres.triples] == [41]
    cube, t3 = basis.flat.index((3, 0, 0)), basis.flat.index((0, 0, 1))
    image = list(range(n))
    image[cube], image[t3] = t3, cube
    values = [Fraction(0)] * (n * n + 1)
    for i, j in enumerate(image):
        values[i * n + j] = Fraction(1)
    values[n * n] = Fraction(-1)
    triple = pres.triples[0]
    assert all(g.substitute_values(values) == 0
               for g in zero_pattern_ideal(triple.matrix))
    assert any(g.substitute_values(values) != 0 for g in triple.ideal)


@pytest.mark.parametrize("rows", [
    ((1, 1, 3),),
    ((1, 1, 0, -2), (0, 0, 1, 1)),  # the Hirzebruch surface F_2
    ((1, 1, 0, -3), (0, 0, 1, 1)),  # F_3
    *((w,) for w in sorted({tuple(sorted(random.Random(seed).choices(
        range(1, 5), k=3))) for seed in range(12)})),
], ids=str)
def test_multiplicativity_mentions_every_composite_row(rows):
    basis = ActionBasis(zring(*rows))
    n = basis.n
    identity = GroupAutomorphism.identity(basis.ring.grading)
    gens = (multiplicativity_ideal(basis)
            + variable_product_ideal(basis, structured_matrix(basis, identity)))
    mentioned = {i // n for g in gens for mono in g.terms for i, _ in mono}
    assert all(f in mentioned for f, mono in enumerate(basis.flat)
               if sum(mono) > 1)


def test_variable_products_stay_in_the_structured_rows():
    """P(1,1,7) passes the determinant guard (2! * 9! terms).  Its eight
    composites T(1)^a * T(2)^b, a + b = 7, expand only over the two free
    slots of each variable row: one equation per degree-7 monomial and
    one for the T(3) column, 8 * 9 in all."""
    basis = ActionBasis(zring((1, 1, 7)))
    group = basis.ring.grading
    matrix = structured_matrix(basis, GroupAutomorphism.identity(group))
    gens = variable_product_ideal(basis, matrix)
    assert len(gens) == 72
    assert sum(len(g.terms) for g in gens) == 192


def test_determinant_guard_precedes_multiplicativity(monkeypatch, tmp_path):
    """P(1,1,12) is refused for its 2! * 14! determinant terms before a
    single multiplicativity equation is built."""
    def unreachable(*args):
        raise AssertionError("multiplicativity equations built before the guard")

    monkeypatch.setattr(ringaut, "multiplicativity_ideal", unreachable)
    monkeypatch.setattr(ringaut, "variable_product_ideal", unreachable)
    problem = tmp_path / "p1112.toml"
    problem.write_text("vars = 3\nQ = [[1, 1, 12]]\nideal = []\n"
                       "[grading]\nfree_rank = 1\ntorsion = []\n")
    assert main(["autks", "--input", str(problem)]) == 3


def test_substitution_against_identity_pattern(quadric8_basis, quadric8_group,
                                               quadric8_ideal):
    m = structured_matrix(quadric8_basis,
                          GroupAutomorphism.identity(quadric8_group))
    image = substitute_polynomial(quadric8_basis, quadric8_ideal.generators[0], m)
    y = lambda i: Polynomial._of({((i - 1, 1),): Fraction(1)})
    expect = {
        (1, 0, 0, 0, 0, 1, 0, 0): poly_mul(y(1), y(46)),
        (0, 1, 0, 0, 1, 0, 0, 0): poly_mul(y(10), y(37)),
        (0, 0, 1, 1, 0, 0, 0, 0): poly_mul(y(19), y(28)),
        (0, 0, 0, 0, 0, 0, 1, 1): poly_mul(y(55), y(64)),
    }
    assert image == expect


# P(1,1,3), the Hirzebruch surface F_2, and seeded gradings of three
# variables with a component of two or more monomials
CLOSED_FORM_RINGS = [
    ((1, 1, 3),),
    ((1, 1, 0, -2), (0, 0, 1, 1)),
    *((w,) for w in sorted({tuple(sorted(random.Random(seed).choices(
        range(1, 5), k=3))) for seed in range(12)})),
]


@pytest.mark.parametrize("rows", CLOSED_FORM_RINGS, ids=str)
def test_closed_form_matches_repeated_products(rows):
    """The closed-form images agree with the images built by repeated
    products, on the structured matrix of the identity and on a seeded
    zero pattern, for terms with an exponent of 3 or more."""
    basis = ActionBasis(zring(*rows))
    assert max(len(b) for b in basis.blocks) >= 2
    n, r = basis.n, basis.ring.variable_count
    rng = random.Random(repr(rows))
    identity = GroupAutomorphism.identity(basis.ring.grading)
    seeded = SymbolicMatrix(tuple(
        tuple(i * n + j + 1 if rng.random() < 0.5 else 0 for j in range(n))
        for i in range(n)))
    terms = {}
    for _ in range(4):
        mono = [0] * r
        mono[rng.randrange(r)] = rng.randint(3, 4)
        mono[rng.randrange(r)] += rng.randint(0, 1)
        terms[tuple(mono)] = Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 2)))
    f = Polynomial(terms)
    for matrix in (structured_matrix(basis, identity), seeded):
        assert (substitute_polynomial(basis, f, matrix)
                == reference_substitution(basis, f, matrix))
        assert (variable_product_ideal(basis, matrix)
                == reference_variable_product_ideal(basis, matrix))
    assert multiplicativity_ideal(basis) == reference_multiplicativity_ideal(basis)


def test_closed_form_matches_repeated_products_at_degree_400():
    basis = ActionBasis(zring((1, 1)))
    f = Polynomial({(400, 0): 1, (0, 400): 1})
    matrix = structured_matrix(
        basis, GroupAutomorphism.identity(basis.ring.grading))
    image = substitute_polynomial(basis, f, matrix)
    assert len(image) == 401
    assert image == reference_substitution(basis, f, matrix)


def _row_power_by_products(basis, row, e, cols):
    """The e-th power of sum_j Y(row, j) flat_j, j in cols, by e - 1
    products of the test-side poly_mul, keyed as _row_power's terms by
    (T exponents, Y pairs), over the roster of the T variables then the
    slots."""
    r, n = basis.ring.variable_count, basis.n
    slot = lambda j: tuple(int(v == row * n + j) for v in range(n * n))
    line = Polynomial({basis.flat[j] + slot(j): 1 for j in cols})
    power = line
    for _ in range(e - 1):
        power = poly_mul(power, line)
    return {(m[:r], tuple((v, a) for v, a in enumerate(m[r:]) if a)): c
            for m, c in power.terms.items()}


def test_row_powers_match_repeated_products():
    """On seeded rows of k <= 5 columns and e <= 5, the closed form has
    C(k + e - 1, e) terms, its multinomials sum to k^e, and it is the
    power the row reaches by repeated multiplication."""
    basis = ActionBasis(zring((1, 1, 2)))
    assert basis.n == 6
    rng = random.Random(37)
    for k in range(6):
        for e in range(1, 6):
            row = rng.randrange(basis.n)
            cols = tuple(sorted(rng.sample(range(basis.n), k)))
            terms = ringaut._row_power(basis, row, e, cols)
            assert len(terms) == math.comb(k + e - 1, e)
            assert sum(m for _, _, m in terms) == k ** e
            assert ({(mono, ys): m for mono, ys, m in terms}
                    == _row_power_by_products(basis, row, e, cols))


def test_row_power_cost_follows_the_support():
    basis = ActionBasis(zring((1,)))
    # one column: one term, at once, whatever the exponent
    start = time.perf_counter()
    assert ringaut._row_power(basis, 0, 10 ** 8, (0,)) == [
        ((10 ** 8,), ((0, 10 ** 8),), 1)]
    assert time.perf_counter() - start < 0.5
    assert ringaut._row_power(basis, 0, 3, ()) == []


def test_aut_ks_quadric8(quadric8_presentation, quadric8_ring):
    pres = quadric8_presentation
    assert len(pres.triples) == 4
    shown = tuple(t.weight_aut.matrix for t in pres.triples)
    assert shown == QUADRIC8_AUT_MATRICES
    assert all(len(t.ideal) == 57 for t in pres.triples)
    assert len(pres.slot_names()) == 65
    assert pres.basis.flat_degree(1) == quadric8_ring.degrees.columns[1]
    group = quadric8_ring.grading
    assert pres.witness_degree() == group.element((0, 0, -8), (0,))


def test_ring_presentation_keeps_all_quadric8_symmetries(quadric8_presentation,
                                                         quadric8_Q):
    pres = quadric8_presentation
    auts = weightsym.aut_gen_weights(quadric8_Q)
    assert len(pres.triples) == 4
    assert [t.weight_aut for t in pres.triples] == list(auts)
    maps = [weightsym.block_permutation(t.weight_aut, pres.basis.weights,
                                        pres.basis.dims)
            for t in pres.triples]
    assert maps[1] == (0, 4, 7, 6, 1, 5, 3, 2)
    assert maps[0] == tuple(range(8))


def test_ring_presentation_drops_dimension_mismatch():
    z2 = GradingGroup(2)
    cols = (z2.element((1, 0)), z2.element((0, 1)), z2.element((0, 1)))
    Q = DegreeMatrix(cols)
    auts = weightsym.aut_gen_weights(Q)
    swap = [a for a in auts if a.free_block == ((0, 1), (1, 0))]
    assert swap, "the coordinate swap preserves the weight set"
    kept = {t.weight_aut for t in aut_ks(GradedPolyRing(Q)).triples}
    assert swap[0] not in kept
    assert any(map(is_identity, kept))


def test_aut_ks_maps_blocks_once(monkeypatch, quadric8_ring):
    # the block map that keeps a symmetry also builds its matrix
    calls = []
    block_permutation = weightsym.block_permutation

    def counted(*args):
        calls.append(args[0])
        return block_permutation(*args)

    monkeypatch.setattr(weightsym, "block_permutation", counted)
    monkeypatch.setattr(ringaut, "block_permutation", counted)
    pres = aut_ks(quadric8_ring)
    assert calls == [t.weight_aut for t in pres.triples]


def test_aut_ks_single_variable():
    pres = aut_ks(zring((1,)))
    assert len(pres.triples) == 1
    gens = pres.triples[0].ideal
    assert [polynomial_to_str(g, yz_names(1)) for g in gens] == ["Y(1)*Z - 1"]


def test_aut_ks_mixed_block_sizes():
    ring = zring((1, 2, 1))
    pres = aut_ks(ring)
    assert len(pres.triples) == 1
    assert pres.basis.n == 6
    det_gen = [g for g in pres.triples[0].ideal
               if g.substitute_values([Fraction(0)] * 37) == Fraction(-1)]
    assert len(det_gen) == 1
    # 2 x 2 and 4 x 4 diagonal blocks give 2! * 4! determinant terms
    assert len(det_gen[0].terms) == 49


def test_aut_ks_validation_gate():
    with pytest.raises(ValidationError):
        aut_ks(zring((1, -1)))


def test_torus_points_satisfy_identity_triple(quadric8_presentation):
    pres = quadric8_presentation
    identity_triple = pres.triples[0]
    n = pres.n
    rng = random.Random(20260822)
    pool = [Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3)]
    for _ in range(100):
        free = tuple(rng.choice(pool) for _ in range(3))
        signs = (rng.choice((1, -1)),)
        diag = [torus_character(pres.basis.flat_degree(i), free, signs)
                for i in range(n)]
        values = [Fraction(0)] * (n * n + 1)
        det = Fraction(1)
        for i, d in enumerate(diag):
            values[i * n + i] = d
            det *= d
        values[n * n] = 1 / det
        for g in identity_triple.ideal:
            assert g.substitute_values(values) == 0


def _rendered(pres):
    pieces = []
    render_presentation(pres, pieces.append)
    return "".join(pieces)


def test_render_presentation(quadric8_presentation):
    text = _rendered(quadric8_presentation)
    assert "action basis size n = 8" in text
    assert "triple 4" in text
    assert "deg Y(1..8) = (1, 0, 1; 1)" in text
    assert "Y(1)*Y(10)*Y(19)*Y(28)*Y(37)*Y(46)*Y(55)*Y(64)*Z - 1" in text
    assert text.count("weight symmetry") == 4


def test_render_notes_larger_blocks():
    text = _rendered(aut_ks(zring((1, 2))))
    assert "several monomials" in text
