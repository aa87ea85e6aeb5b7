import random
from collections import Counter
from fractions import Fraction
from itertools import product
from time import perf_counter

import pytest

from oracles import (as_pairs, bundle_to_data, poly_add, poly_mul, poly_sub,
                     random_pointed_grading, reference_annihilator_forms,
                     reference_parse, total_degree)
from gradedaut import linalg, polynomials
from gradedaut.errors import InputError, StructuralError, ValidationError
from gradedaut.grading import DegreeMatrix, GradingGroup, degree_of_exponent
from gradedaut.inout import ProblemInput, parse_input
from gradedaut.polynomials import (GradedPolyRing, Ideal, Polynomial,
                                   annihilator_forms, component_dimension,
                                   default_names, degree_of, distinct_term_degrees,
                                   grlex_key, ideal_component_basis,
                                   monomial_basis, pairs_key, parse_polynomial,
                                   polynomial_to_str, _tokenize)
from gradedaut.report import ResultBundle
from gradedaut.ringaut import aut_ks, yz_names


TINY_IDEAL = "vars = 2\nQ = [[1, 1]]\nideal = [{}]\n\n[grading]\nfree_rank = 1\n"


def T(i, nvars=8):
    return Polynomial.from_term(tuple(int(j == i - 1) for j in range(nvars)), 1)


def test_ring_arithmetic():
    """The test-side arithmetic the references are built on obeys the
    ring laws, on both monomial keys."""
    t1, t2 = T(1, 2), T(2, 2)
    assert (poly_mul(poly_add(t1, t2), poly_sub(t1, t2))
            == poly_sub(poly_mul(t1, t1), poly_mul(t2, t2)))
    f = Polynomial({(1, 1): 3, (0, 1): Fraction(-1, 2)})
    assert poly_mul(f, Polynomial({(0, 0): 1})) == f
    t7 = T(7)
    lhs = poly_mul(poly_add(poly_mul(T(1), T(6)), poly_mul(T(2), T(5))), t7)
    assert lhs == poly_add(poly_mul(poly_mul(T(1), T(6)), t7),
                           poly_mul(poly_mul(T(2), T(5)), t7))
    assert poly_sub(t1, t1).is_zero()
    assert as_pairs(lhs) == poly_mul(
        poly_add(poly_mul(as_pairs(T(1)), as_pairs(T(6))),
                 poly_mul(as_pairs(T(2)), as_pairs(T(5)))), as_pairs(t7))


def test_print_canonical_order():
    f = Polynomial({(0, 1): 1, (2, 0): 2, (1, 1): -1})
    assert polynomial_to_str(f, default_names(2)) == "2*T(1)^2 - T(1)*T(2) + T(2)"
    assert polynomial_to_str(Polynomial({}), default_names(2)) == "0"
    g = Polynomial({(1, 1): -1, (0, 0): Fraction(-3, 2)})
    assert polynomial_to_str(g, default_names(2)) == "-T(1)*T(2) - 3/2"


def test_pairs_key_sorts_as_grlex_on_exponent_tuples():
    """Seeded sets of exponent tuples, sparse and dense, with repeated
    degrees: sorting their (index, exponent) pairs by pairs_key gives
    exactly the descending grlex order of the tuples, and a polynomial
    keyed either way lists, prints, evaluates and multiplies alike."""
    rng = random.Random(3101)
    for _ in range(150):
        nvars = rng.randint(1, 30)
        weights = rng.choice(((0, 0, 0, 0, 1, 2), (0, 1, 1, 2, 3, 7)))
        monos = list({tuple(rng.choice(weights) for _ in range(nvars))
                      for _ in range(rng.randint(1, 25))})
        pairs = {m: tuple((i, e) for i, e in enumerate(m) if e) for m in monos}
        assert (sorted(monos, key=grlex_key, reverse=True)
                == sorted(monos, key=lambda m: pairs_key(pairs[m]),
                          reverse=True))
        f = Polynomial({m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 3))
                        for m in monos})
        g = as_pairs(f)
        assert [pairs[m] for m, _ in f.sorted_terms()] == [
            m for m, _ in g.sorted_terms()]
        names = default_names(nvars)
        assert polynomial_to_str(g, names) == polynomial_to_str(f, names)
        assert total_degree(g) == total_degree(f)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(nvars)]
        assert g.substitute_values(point) == f.substitute_values(point)
        assert (as_pairs(poly_add(poly_mul(f, f), f))
                == poly_add(poly_mul(g, g), g))


def test_kept_order_never_goes_stale():
    """The kept canonical order is a fresh sort's, for both monomial
    keys, and every new polynomial starts without one, even from a
    polynomial whose order is kept."""
    rng = random.Random(3701)
    for _ in range(60):
        nvars = rng.randint(1, 8)
        names = default_names(nvars)
        f = Polynomial({tuple(rng.randint(0, 3) for _ in range(nvars)):
                        Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 3))
                        for _ in range(rng.randint(1, 12))})
        g = Polynomial({tuple(rng.randint(0, 3) for _ in range(nvars)): 1})
        for p, key in ((f, grlex_key), (g, grlex_key),
                       (as_pairs(f), pairs_key), (as_pairs(g), pairs_key)):
            assert p._sorted is None
            fresh = sorted(p.terms.items(), key=lambda kv: key(kv[0]),
                           reverse=True)
            assert list(p.sorted_terms()) == fresh
            assert list(p.sorted_terms()) == fresh
            assert p._sorted is not None
        for made in (Polynomial._of(dict(f.terms)), Polynomial(f.terms),
                     parse_polynomial(polynomial_to_str(f, names), names)):
            assert made._sorted is None
            assert made.sorted_terms() == tuple(sorted(
                made.terms.items(), key=lambda kv: grlex_key(kv[0]),
                reverse=True))


def test_parse_examples():
    names = default_names(8)
    f = parse_polynomial("T(1)*T(6) + T(2)*T(5) + T(3)*T(4) + T(7)*T(8)", names)
    assert f.terms == {(1, 0, 0, 0, 0, 1, 0, 0): 1, (0, 1, 0, 0, 1, 0, 0, 0): 1,
                       (0, 0, 1, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 0, 1, 1): 1}
    yz = tuple(f"Y({i})" for i in range(1, 3)) + ("Z",)
    g = parse_polynomial("-Y(1)*Z - 1", yz)
    assert g.terms == {(1, 0, 1): -1, (0, 0, 0): -1}
    h = parse_polynomial("1/2*T(1)^3 - 2", default_names(1))
    assert h.terms == {(3,): Fraction(1, 2), (0,): Fraction(-2)}


def test_parse_huge_power_is_one_monomial():
    # a power of a variable is its monomial, not e multiplications
    start = perf_counter()
    problem = parse_input(TINY_IDEAL.format('"T(1)^99999999"'))
    f = parse_polynomial("2*T(1)^99999999*T(2)^0*T(1) - T(2)^0",
                         default_names(2))
    assert perf_counter() - start < 1
    assert problem.ideal_gens == ("T(1)^99999999",)
    assert len(problem.ideal().generators[0].terms) == 1
    assert f.terms == {(100000000, 0): Fraction(2), (0, 0): Fraction(-1)}


def test_parse_round_trip_random():
    rng = random.Random(21)
    names = default_names(4)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, 3) for _ in range(4))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        f = Polynomial(terms)
        if f.is_zero():
            continue
        assert parse_polynomial(polynomial_to_str(f, names), names) == f


def test_parse_errors_carry_positions():
    names = default_names(2)
    with pytest.raises(InputError) as exc:
        parse_polynomial("T(1) + T(9)", names)
    (line, col, msg) = exc.value.diagnostics[0]
    assert line == 1 and col == 8 and "T(9)" in msg
    with pytest.raises(InputError):
        parse_polynomial("T(1) * * T(2)", names)
    with pytest.raises(InputError):
        parse_polynomial("T(1) T(2)", names)


def _seeded_text(rng, names):
    """A polynomial text over `names` with repeated variables, ^0 and
    huge powers, integer, fractional, long and zero coefficients, terms
    that cancel, an optional leading sign and line breaks."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        factors = [rng.choice(names) + rng.choice(
                       ("", "", "^0", "^1", "^2", "^3", f"^{10 ** rng.randint(5, 40)}"))
                   for _ in range(rng.randint(0, 4))]
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            factors.insert(rng.randint(0, len(factors)), rng.choice(
                ("0", "1", str(rng.randint(2, 99)), str(rng.randint(0, 9)) + "/"
                 + str(rng.randint(1, 9)), str(rng.randint(10 ** 30, 10 ** 31)))))
        terms.append((rng.choice("+-"), factors or [str(rng.randint(0, 5))]))
    for _ in range(rng.choice((0, 1, 1, 2))):
        # the same product with the other sign, its factors reordered
        sign, factors = rng.choice(terms)
        factors = rng.sample(factors, len(factors))
        terms.insert(rng.randint(0, len(terms)), ("+-"[sign == "+"], factors))
    seps = (" ", "", "\n", "  ")
    text = "".join(rng.choice(seps) + sign + rng.choice(seps) + "*".join(factors)
                   for sign, factors in terms)
    return text.lstrip("+") if rng.random() < 0.5 else text


def _one_token_inserted(rng, text, names):
    """text with one token put in at a token boundary."""
    cuts = [tok[2] for tok in _tokenize(text)]
    cut = rng.choice(cuts)
    token = rng.choice(("+", "-", "*", "/", "^", "(", ")", "0", "7", "T", "Y",
                        "Q(1)", "T(9)", "1/0", "$", rng.choice(names)))
    return text[:cut] + rng.choice(("", " ")) + token + text[cut:]


def _parsed(parse, text, names):
    try:
        return "terms", parse(text, names).terms
    except InputError as exc:
        return "diagnostics", exc.diagnostics


def test_parser_matches_reference():
    """The one-dict parser against the parser as first written, whose
    every factor is a polynomial and every product and sum one step of
    the test-side arithmetic: equal terms or equal diagnostics on 6,000
    seeded texts over the T roster and over the Y and Z roster, half of
    them with one token inserted."""
    rng = random.Random(4001)
    seen = {"terms": 0, "diagnostics": 0, "zero": 0}
    for names in (default_names(4), yz_names(2)):
        for _ in range(1500):
            text = _seeded_text(rng, names)
            for case in (text, _one_token_inserted(rng, text, names)):
                kind, got = _parsed(parse_polynomial, case, names)
                assert (kind, got) == _parsed(reference_parse, case, names), case
                seen[kind] += 1
                seen["zero"] += kind == "terms" and not got
    assert min(seen.values()) >= 300, seen


def test_parse_builds_one_polynomial(monkeypatch):
    """A parse sums its terms into one dict and wraps it once, whatever
    its term count: no Polynomial per factor, product or partial sum."""
    built = []
    init, of = Polynomial.__init__, Polynomial._of.__func__

    def counted_init(self, terms=None):
        built.append(terms)
        init(self, terms)

    def counted_of(cls, clean):
        built.append(clean)
        return of(cls, clean)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "_of", classmethod(counted_of))
    for text, nvars, size in (
            ("T(1)*T(2) + 3*T(3) - 1/2", 3, 3),
            ("T(1)*T(6) + T(2)*T(5) + T(3)*T(4) + T(7)*T(8)", 8, 4),
            ("T(1) - T(1)", 1, 0),
            (" + ".join(f"2*T(1)^{a}*T(2)^{b}*T(3)" for a in range(20)
                        for b in range(25)), 3, 500)):
        built.clear()
        f = parse_polynomial(text, default_names(nvars))
        assert len(built) == 1, (text[:40], len(built))
        assert len(f.terms) == size


def _reference_to_str(f, names):
    """The renderer as first written: every exponent of every term is
    scanned and coefficients are compared as Fractions."""
    if f.is_zero():
        return "0"
    chunks = []
    ordered = sorted(f.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                     reverse=True)
    for idx, (mono, coeff) in enumerate(ordered):
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        mag = abs(coeff)
        shown = (str(mag.numerator) if mag.denominator == 1
                 else f"{mag.numerator}/{mag.denominator}")
        if not factors:
            body = shown
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([shown] + factors)
        if idx == 0:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)


def test_rendering_matches_reference():
    rng = random.Random(71)
    seen = set()
    for _ in range(400):
        nvars = rng.randint(1, 6)
        stem = rng.choice("TY")
        names = tuple(f"{stem}({i + 1})" for i in range(nvars))
        terms = {}
        for _ in range(rng.randint(0, 7)):
            mono = tuple(rng.choice((0, 0, 1, 1, 2, 5)) for _ in range(nvars))
            terms[mono] = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 7)))
        f = Polynomial(terms)
        assert polynomial_to_str(f, names) == _reference_to_str(f, names)
        if f.is_zero():
            seen.add("zero")
            continue
        coeffs = f.terms.values()
        cases = {"constant": (0,) * nvars in f.terms,
                 "power": any(max(m) > 1 for m in f.terms),
                 "fraction": any(c.denominator > 1 for c in coeffs),
                 "unit": any(abs(c) == 1 for c in coeffs),
                 "negative lead": f.sorted_terms()[0][1] < 0}
        seen.update(case for case, hit in cases.items() if hit)
    assert seen == {"zero", "constant", "power", "fraction", "negative lead",
                    "unit"}


def _tiny_report_data():
    """A report on Q[T(1), T(2)], both of degree 1: its last equation is
    Y(1)*Y(4)*Z - Y(2)*Y(3)*Z - 1 in five slot variables."""
    problem = ProblemInput(1, (), 2, ((1, 1),))
    bundle = ResultBundle(problem, presentation=aut_ks(problem.ring()))
    return bundle_to_data(bundle)


def _checked(encoded) -> Polynomial:
    """The polynomial of a report's encoded terms, through the checking
    constructor."""
    return Polynomial({tuple(mono): Fraction(num, den)
                       for mono, (num, den) in encoded})


def test_checking_constructor_boundary():
    names = default_names(2)
    # zero coefficients are dropped, on every checked path
    assert Polynomial({(1, 0): 0, (0, 1): Fraction(2)}).terms == {(0, 1): 2}
    assert Polynomial({(0, 0): 0}).is_zero()
    f = parse_polynomial("T(1) - T(1) + 0*T(2) + 2*T(2)", names)
    assert f.terms == {(0, 1): 2}
    data = _tiny_report_data()
    det = data["presentation"]["triples"][0]["equations"][-1]
    assert len(det) == 3
    det[0][1] = [0, 1]
    decoded = _checked(det)
    assert len(decoded.terms) == 2
    assert all(type(e) is int for m in decoded.terms for e in m)
    # mixed arity, negative and non-int exponents are rejected
    with pytest.raises(StructuralError, match="mixed exponent lengths"):
        Polynomial({(1, 0): 1, (1,): 1})
    with pytest.raises(StructuralError, match="negative exponent"):
        Polynomial({(1, -1): 1})
    with pytest.raises(StructuralError, match="must be integers"):
        Polynomial({(1, 0.5): 1})
    for bad in ([0, 0, 0, 0, 0, 0], [2, 0, 0, -1, 0], [2, 0, 0, "1", 0],
                [2, 0, 0, 1.5, 0], [2, 0, 0, True, 0]):
        det = _tiny_report_data()["presentation"]["triples"][0]["equations"][-1]
        det[1][0] = bad
        with pytest.raises(StructuralError):
            _checked(det)


def test_degree_of(quadric8_ring):
    g = quadric8_ring.parse("T(1)*T(6) + T(2)*T(5) + T(3)*T(4) + T(7)*T(8)")
    assert degree_of(quadric8_ring, g) == quadric8_ring.grading.element((0, 0, 2), (1,))
    t3 = quadric8_ring.parse("T(3)")
    assert degree_of(quadric8_ring, t3) == quadric8_ring.degrees.columns[2]
    mixed = quadric8_ring.parse("T(1) + T(2)")
    with pytest.raises(ValidationError):
        degree_of(quadric8_ring, mixed)
    assert len(distinct_term_degrees(quadric8_ring, mixed)) == 2
    with pytest.raises(StructuralError):
        degree_of(quadric8_ring, Polynomial({}))


def test_monomial_basis_quadric8(quadric8_ring):
    for i, q in enumerate(quadric8_ring.degrees.columns):
        expo = tuple(int(j == i) for j in range(8))
        assert monomial_basis(quadric8_ring, q) == (expo,)
    zero = quadric8_ring.grading.zero()
    assert monomial_basis(quadric8_ring, zero) == ((0,) * 8,)
    u = quadric8_ring.grading.element((0, 0, 2), (1,))
    pairs = monomial_basis(quadric8_ring, u)
    def pair(a, b):
        return tuple(int(j == a - 1) + int(j == b - 1) for j in range(8))
    assert pairs == (pair(1, 6), pair(2, 5), pair(3, 4), pair(7, 8))
    assert component_dimension(quadric8_ring, u) == 4


def test_monomial_basis_mixed_weights():
    z = GradingGroup(1)
    ring = GradedPolyRing(DegreeMatrix((z.element((1,)), z.element((2,)))))
    basis = monomial_basis(ring, z.element((2,)))
    assert basis == ((2, 0), (0, 1))


def test_monomial_basis_refuses_unpointed():
    z = GradingGroup(1)
    ring = GradedPolyRing(DegreeMatrix((z.element((1,)), z.element((-1,)))))
    with pytest.raises(ValidationError):
        monomial_basis(ring, z.element((0,)))


def _reference_monomial_basis(ring, w):
    """The descent on GroupElements, pruned by its budget."""
    phi = ring.degrees.positive_functional
    cols = ring.degrees.columns
    r = ring.variable_count
    phi_vals = [linalg.dot(phi, q.free_part) for q in cols]
    out = []
    expo = [0] * r

    def descend(i, remaining, budget):
        if budget < 0:
            return
        if i == r:
            if remaining.is_zero():
                out.append(tuple(expo))
            return
        top = budget // phi_vals[i]
        for e in range(top, -1, -1):
            expo[i] = e
            descend(i + 1, remaining - cols[i].scale(e), budget - e * phi_vals[i])
        expo[i] = 0

    descend(0, w, linalg.dot(phi, w.free_part))
    out.sort(key=grlex_key, reverse=True)
    return tuple(out)


def test_integer_descent_matches_group_element_descent():
    rng = random.Random(1030)
    seen = {"torsion": 0, "empty": 0}
    for _ in range(60):
        Q = random_pointed_grading(rng, kmax=3, lmax=2, rmax=5)
        ring = GradedPolyRing(Q)
        seen["torsion"] += bool(Q.group.torsion_orders)
        degrees = [ring.grading.zero()]
        for _ in range(3):
            u = ring.grading.zero()
            for q in rng.sample(Q.columns, rng.randint(1, min(3, len(Q.columns)))):
                u = u + q.scale(rng.randint(1, 2))
            degrees += [u, u + ring.grading.element(
                (0,) * Q.group.free_rank,
                tuple(rng.randrange(a) for a in Q.group.torsion_orders))]
        for u in degrees:
            basis = monomial_basis(ring, u)
            assert basis == _reference_monomial_basis(ring, u)
            seen["empty"] += not basis
    assert min(seen.values()) >= 10, seen


def naive_basis_oracle(ring, w):
    phi = ring.degrees.positive_functional
    assert phi is not None
    cap = linalg.dot(phi, w.free_part)
    step = min(linalg.dot(phi, q.free_part) for q in ring.degrees.columns)
    bound = max(0, cap // step)
    hits = set()
    r = ring.variable_count
    for e in product(range(bound + 1), repeat=r):
        if sum(e) <= bound and degree_of_exponent(ring.degrees, e) == w:
            hits.add(e)
    return hits


def test_monomial_basis_matches_oracle():
    rng = random.Random(22)
    checked = 0
    while checked < 30:
        k = rng.randint(1, 2)
        l = rng.randint(0, 1)
        orders = tuple(rng.choice((2, 3)) for _ in range(l))
        group = GradingGroup(k, orders)
        r = rng.randint(1, 4)
        cols = tuple(group.element(tuple(rng.randint(-2, 2) for _ in range(k)),
                                   tuple(rng.randint(0, a - 1) for a in orders))
                     for _ in range(r))
        Q = DegreeMatrix(cols)
        if Q.positive_functional is None:
            continue
        ring = GradedPolyRing(Q)
        e = tuple(rng.randint(0, 3) for _ in range(r))
        w = degree_of_exponent(Q, e)
        got = monomial_basis(ring, w)
        assert set(got) == naive_basis_oracle(ring, w)
        assert list(got) == sorted(got, key=lambda m: (sum(m), m), reverse=True)
        for m in got:
            assert degree_of_exponent(Q, m) == w
        checked += 1


def test_ideal_component_basis(quadric8_ring, quadric8_ideal):
    u = quadric8_ring.grading.element((0, 0, 2), (1,))
    basis = ideal_component_basis(quadric8_ideal, u)
    assert basis == [(1, 1, 1, 1)]
    for i in range(8):
        qi = quadric8_ring.degrees.columns[i]
        assert ideal_component_basis(quadric8_ideal, qi) == []


def test_ideal_component_basis_univariate():
    z = GradingGroup(1)
    ring = GradedPolyRing(DegreeMatrix((z.element((1,)),)))
    I = Ideal(ring, (ring.parse("T(1)^2"),))
    assert ideal_component_basis(I, z.element((2,))) == [(1,)]
    assert ideal_component_basis(I, z.element((1,))) == []
    assert ideal_component_basis(I, z.element((5,))) == [(1,)]


def test_ideal_component_basis_echelon_and_membership():
    z = GradingGroup(1)
    g = GradedPolyRing(DegreeMatrix(tuple(z.element((1,)) for _ in range(3))))
    I = Ideal(g, (g.parse("T(1)*T(2) - T(3)^2"), g.parse("T(1)^2 + T(2)^2")))
    u = z.element((3,))
    basis = ideal_component_basis(I, u)
    mons = monomial_basis(g, u)
    spanning = []
    for gen in I.generators:
        gen_deg = degree_of(g, gen)
        for m in monomial_basis(g, u - gen_deg):
            prod = poly_mul(Polynomial.from_term(m, 1), gen)
            spanning.append([prod.terms.get(mono, Fraction(0)) for mono in mons])
    rank_span = linalg.rank(spanning)
    assert len(basis) == rank_span
    assert linalg.rank(spanning + [list(v) for v in basis]) == rank_span
    # echelon: pivot columns strictly increase and carry unit entries
    pivots = []
    for v in basis:
        lead = next(i for i, x in enumerate(v) if x)
        assert v[lead] == 1
        pivots.append(lead)
    assert pivots == sorted(pivots)


def test_ideal_component_basis_enumerates_each_shift_once(monkeypatch):
    # two generators of degree 2 around one of degree 3: S_1 is read once
    # for both quadrics, then S_0 for the cubic, then the target S_3
    z = GradingGroup(1)
    g = GradedPolyRing(DegreeMatrix(tuple(z.element((1,)) for _ in range(3))))
    I = Ideal(g, (g.parse("T(1)*T(2) - T(3)^2"), g.parse("T(1)^3"),
                  g.parse("T(1)^2 + T(2)^2")))
    u = z.element((3,))
    expected = ideal_component_basis(I, u)
    asked = []

    def counted(ring, w):
        asked.append(w.free_part)
        return monomial_basis(ring, w)
    monkeypatch.setattr(polynomials, "monomial_basis", counted)
    assert ideal_component_basis(I, u) == expected
    assert asked == [(1,), (0,), (3,)]
    assert len(expected) == 7


def test_annihilator_forms():
    h = [(1, 1, 1, 1)]
    forms = annihilator_forms(h, 4)
    assert len(forms) == 3
    for f in forms:
        assert linalg.dot(f, h[0]) == 0
    assert linalg.rank(forms) == 3
    assert annihilator_forms([], 3) == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    full = [(1, 0), (0, 1)]
    assert annihilator_forms(full, 2) == []
    # canonical: any basis of the same span yields the same forms
    other = [(2, 2, 2, 2)]
    assert annihilator_forms(other, 4) == forms


def test_annihilator_forms_match_two_eliminations():
    # seeded spans in Q^1..Q^6: random rows, rows repeated or rescaled,
    # no rows, and full rank; each must give the reduced echelon basis
    # of the kernel that nullspace then rref gives
    rng = random.Random(41)

    def entry():
        return (Fraction(0) if rng.random() < 0.4
                else Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    kinds = Counter()
    for k in range(2400):
        d = rng.randint(1, 6)
        kind = ("random", "repeated", "none", "full")[k % 4]
        if kind == "none":
            rows = []
        elif kind == "full":
            # upper triangular with a nonzero diagonal, rows shuffled
            rows = [[entry() if j > i else Fraction(rng.choice((-2, 1, 3)))
                     if j == i else Fraction(0) for j in range(d)]
                    for i in range(d)]
            rng.shuffle(rows)
        else:
            rows = [[entry() for _ in range(d)]
                    for _ in range(rng.randint(1, d + 1))]
            if kind == "repeated":
                rows += [[rng.choice((1, -2)) * x for x in rng.choice(rows)]
                         for _ in range(rng.randint(1, 3))]
                rng.shuffle(rows)
        forms = annihilator_forms(rows, d)
        assert forms == reference_annihilator_forms(rows, d), (rows, d)
        kinds[kind, min(len(forms), 2)] += 1
    # full rank leaves no form; the other kinds often leave two or more,
    # whose order the test pins
    assert kinds["full", 0] == 600
    assert kinds["none", 2] > 400
    assert kinds["random", 2] > 100 and kinds["repeated", 2] > 100


def test_annihilator_rank_bookkeeping():
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(1, 5)
        nvecs = rng.randint(0, d)
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(nvecs)]
        reduced, pivots = linalg.rref(vecs) if vecs else ([], [])
        basis = [tuple(reduced[i]) for i in range(len(pivots))]
        forms = annihilator_forms(basis, d)
        assert len(basis) + len(forms) == d
        for f in forms:
            for h in basis:
                assert linalg.dot(f, h) == 0
