"""Brute-force reference implementations used by several test modules.

Each oracle decides its question by exhaustive enumeration with none of
the search-space reductions used by the library, so agreement is
meaningful evidence.
"""

from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import gcd, lcm

from gradedaut import linalg, report
from gradedaut.cones import (RationalCone, cone_from_rays,
                             generators_from_halfspaces)
from gradedaut.errors import StructuralError
from gradedaut.grading import (DegreeMatrix, GradingGroup, GroupAutomorphism,
                               degree_of_exponent)
from gradedaut.polynomials import (Polynomial, _err, _int_token, _pairs,
                                   _tokenize)


def solve(M, b):
    """One rational solution of M x = b, free variables set to zero, or
    None if the system is inconsistent: one rref of [M | b]."""
    if not M:
        return None
    R, pivots = linalg.rref([list(row) + [bv] for row, bv in zip(M, b)])
    ncols = len(M[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = R[r][-1]
    return tuple(x)


def det_oracle(A):
    """Determinant by Laplace expansion along the rows, one leaf per
    permutation that avoids every zero entry: exact for int and Fraction
    entries, and quick on the block patterns of the slot ring."""
    def expand(i, free):
        if i == len(A):
            return 1
        return sum((-1) ** t * A[i][j] * expand(i + 1, free[:t] + free[t + 1:])
                   for t, j in enumerate(free) if A[i][j])
    return expand(0, tuple(range(len(A))))


def naive_monomial_basis(ring, w):
    """All monomials of degree w, by filtering every exponent vector in
    a box that provably contains them.

    A positive functional phi gives each variable the weight
    phi(q_i) >= 1, and any monomial of degree w satisfies
    sum e_i * phi(q_i) = phi(w); so e_i <= phi(w) / phi(q_i) bounds the
    box.  Inside it every vector is checked outright.
    """
    phi = ring.degrees.positive_functional
    assert phi is not None, "oracle needs a pointed grading"
    cap = linalg.dot(phi, w.free_part)
    if cap < 0:
        return set()
    steps = [linalg.dot(phi, q.free_part) for q in ring.degrees.columns]
    bounds = [cap // s for s in steps]
    hits = set()
    for e in product(*(range(b + 1) for b in bounds)):
        if (sum(ei * s for ei, s in zip(e, steps)) == cap
                and degree_of_exponent(ring.degrees, e) == w):
            hits.add(e)
    return hits


def naive_basis_box_size(ring, w):
    """Number of vectors naive_monomial_basis would scan."""
    phi = ring.degrees.positive_functional
    assert phi is not None
    cap = linalg.dot(phi, w.free_part)
    if cap < 0:
        return 0
    size = 1
    for q in ring.degrees.columns:
        size *= cap // linalg.dot(phi, q.free_part) + 1
    return size


def extendable_bijections(Q: DegreeMatrix):
    """Every automorphism of the grading group preserving the weight set,
    found by testing all weight bijections for extendability and all
    torsion blocks outright.

    Requires the free parts to span the free quotient (so the free block
    is forced by the bijection).
    """
    group = Q.group
    k = group.free_rank
    orders = group.torsion_orders
    l = len(orders)
    weights = list(dict.fromkeys(Q.columns))
    s = len(weights)
    torsion = list(product(*(range(a) for a in orders)))
    found = set()
    c_space = list(product(*(range(orders[i]) for i in range(l) for _ in range(k))))
    d_space = list(product(*(range(orders[i]) for i in range(l) for _ in range(l))))
    for sigma in permutations(range(s)):
        if k:
            rows, rhs = [], []
            for j in range(s):
                f = weights[j].free_part
                g = weights[sigma[j]].free_part
                for i in range(k):
                    row = [0] * (k * k)
                    for t in range(k):
                        row[i * k + t] = f[t]
                    rows.append(row)
                    rhs.append(g[i])
            sol = solve(rows, rhs)
            if sol is None or any(x.denominator != 1 for x in sol):
                continue
            A = tuple(tuple(int(sol[i * k + t]) for t in range(k)) for i in range(k))
            if abs(det_oracle(A)) != 1:
                continue
        else:
            A = ()
        for c_flat in c_space:
            C = tuple(tuple(c_flat[i * k + t] for t in range(k)) for i in range(l))
            for d_flat in d_space:
                D = tuple(tuple(d_flat[i * l + j] for j in range(l)) for i in range(l))
                if any((orders[j] * D[i][j]) % orders[i] != 0
                       for i in range(l) for j in range(l)):
                    continue
                # D is bijective iff its image is all of T
                if len({tuple(linalg.dot(row, t) % a for row, a in zip(D, orders))
                        for t in torsion}) < len(torsion):
                    continue
                good = True
                for j in range(s):
                    lhs = tuple(
                        (linalg.dot(C[i], weights[j].free_part)
                         + linalg.dot(D[i], weights[j].torsion_part)) % orders[i]
                        for i in range(l))
                    if lhs != weights[sigma[j]].torsion_part:
                        good = False
                        break
                if good:
                    found.add(GroupAutomorphism(
                        group, tuple(row + (0,) * l for row in A)
                        + tuple(c + d for c, d in zip(C, D))))
    return found


def random_pointed_grading(rng, kmax=3, lmax=1, rmax=6, span=2):
    """A random degree matrix that is pointed and contains a lattice
    basis among its free parts."""
    while True:
        k = rng.randint(1, kmax)
        l = rng.randint(0, lmax)
        orders = tuple(rng.choice((2, 3)) for _ in range(l))
        group = GradingGroup(k, orders)
        r = rng.randint(k, rmax)
        cols = tuple(group.element(tuple(rng.randint(-span, span) for _ in range(k)),
                                   tuple(rng.randint(0, a - 1) for a in orders))
                     for _ in range(r))
        Q = DegreeMatrix(cols)
        if Q.positive_functional is None:
            continue
        if Q.lattice_basis is None:
            continue
        return Q


def torus_character(element, free_values, torsion_signs):
    """chi^element evaluated at a rational torus point.

    free_values are nonzero rationals, one per free coordinate;
    torsion_signs are +-1, one per torsion coordinate of order 2.
    """
    val = Fraction(1)
    for t, e in zip(free_values, element.free_part):
        val *= Fraction(t) ** e
    for s, c in zip(torsion_signs, element.torsion_part):
        val *= Fraction(s) ** c
    return val


def as_pairs(f):
    """f with each exponent tuple keyed by its (index, exponent) pairs,
    as the slot ring keys its monomials."""
    return Polynomial._of({tuple((i, e) for i, e in enumerate(m) if e): c
                           for m, c in f.terms.items()})


def total_degree(f):
    """The largest total degree of a term of f, for either monomial key;
    0 for the zero polynomial."""
    return max((sum(e for _, e in m) if m and type(m[0]) is tuple else sum(m)
                for m in f.terms), default=0)


def is_identity(a: GroupAutomorphism) -> bool:
    return a == GroupAutomorphism.identity(a.group)


def span_equal(gens_a, gens_b):
    """Whether two polynomial lists span the same rational vector space."""
    monos = list(dict.fromkeys(m for g in (*gens_a, *gens_b) for m in g.terms))
    if not monos:
        return True

    def rows(gens):
        return [[g.terms.get(m, 0) for m in monos] for g in gens]

    ra, rb = rows(gens_a), rows(gens_b)
    both = linalg.rank(ra + rb)
    return linalg.rank(ra) == both and linalg.rank(rb) == both


def dual_cone(cone: RationalCone) -> RationalCone:
    """The dual cone: the forms nonnegative on `cone`, as rays."""
    return cone_from_rays(cone.forms, cone.dim)


def intersect_cones(a: RationalCone, b: RationalCone) -> RationalCone:
    """The intersection of two cones in one dimension, from their forms."""
    if a.dim != b.dim:
        raise StructuralError("cones live in different dimensions")
    gens = generators_from_halfspaces(tuple(a.forms) + tuple(b.forms), a.dim)
    return cone_from_rays(gens, a.dim)


def encode_poly(f, nvars):
    """f's terms as a report stores them, [exponents, [num, den]], each
    exponent vector dense over the `nvars` variables of f's ring."""
    out = []
    for m, c in f.sorted_terms():
        expo = [0] * nvars
        for i, e in _pairs(m):
            expo[i] = e
        out.append([expo, [c.numerator, c.denominator]])
    return out


def bundle_to_data(bundle):
    """The report as a JSON tree, whose json.dumps(indent=2) plus a
    newline is the report's text: the writer's tree with each list of
    polynomials as plain lists.  When the stabilizer's base is the
    presentation itself, one encoded dict stands under both keys."""
    return report._bundle_tree(bundle, lambda gens, nvars: [
        encode_poly(f, nvars) for f in gens])


def every_face(Q: DegreeMatrix):
    """Every nonempty subset of the weights, the 2^r - 1 faces of the
    full coordinate space, with 1-based indices as `orbit_cones` takes
    them: by size, then in lexicographic order."""
    r = Q.var_count
    return [F for size in range(1, r + 1)
            for F in combinations(range(1, r + 1), size)]


def cone_member(rays, x):
    """x in the nonnegative span of rays, via Caratheodory: membership
    is witnessed on a linearly independent subset, where coefficients
    are unique, so every subset is checked by exact solving."""
    rays = list(rays)
    dim = len(x)
    if not any(x):
        return True
    for size in range(1, min(len(rays), dim) + 1):
        for sub in combinations(rays, size):
            M = [[r[t] for r in sub] for t in range(dim)]
            if linalg.rank(M) < size:
                continue
            sol = solve(M, list(x))
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


# --- polynomial arithmetic, for references ------------------------------

def _mono_mul(a, b):
    """The product of two monomials of one key: exponent tuples add
    entrywise, (index, exponent) pairs merge by index."""
    if a and type(a[0]) is int:
        assert len(a) == len(b), "exponent tuples of different lengths"
        return tuple(x + y for x, y in zip(a, b))
    merged = dict(a)
    for i, e in b:
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items()))


def _collect(terms):
    """The polynomial of (monomial, coefficient) pairs, like monomials
    summed and zero sums dropped."""
    out = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return Polynomial._of({m: Fraction(c) for m, c in out.items() if c})


def poly_add(f, g):
    return _collect(chain(f.terms.items(), g.terms.items()))


def poly_sub(f, g):
    return _collect(chain(f.terms.items(),
                          ((m, -c) for m, c in g.terms.items())))


def poly_mul(f, g):
    """f * g, every pair of terms multiplied out and collected."""
    return _collect((_mono_mul(a, b), c * d) for a, c in f.terms.items()
                    for b, d in g.terms.items())


def reference_parse(text, names):
    """parse_polynomial as first written, with the package's tokens and
    diagnostics: each factor is a polynomial, each product of factors
    and each signed sum of terms one step of the arithmetic above."""
    roster = {name: i for i, name in enumerate(names)}
    nvars = len(roster)
    tokens = _tokenize(text)
    k = 0

    def peek():
        return tokens[k]

    def take(kind=None, value=None):
        nonlocal k
        tok = tokens[k]
        if kind is not None and tok[0] != kind:
            raise _err(text, tok[2], f"expected {kind}, found {tok[1]!r}" if tok[1]
                       else f"expected {kind}, found end of input")
        if value is not None and tok[1] != value:
            raise _err(text, tok[2], f"expected {value!r}, found {tok[1]!r}")
        k += 1
        return tok

    def parse_factor():
        tok = peek()
        if tok[0] == "int":
            take()
            num = _int_token(text, tok)
            if peek()[0] == "op" and peek()[1] == "/":
                take()
                den_tok = take("int")
                den = _int_token(text, den_tok)
                if den == 0:
                    raise _err(text, den_tok[2], "division by zero")
                return Polynomial({(0,) * nvars: Fraction(num, den)})
            return Polynomial({(0,) * nvars: num})
        if tok[0] == "name":
            take()
            name = tok[1]
            if peek()[0] == "op" and peek()[1] == "(":
                take()
                idx_tok = take("int")
                take("op", ")")
                name = f"{name}({idx_tok[1]})"
            if name not in roster:
                raise _err(text, tok[2], f"unknown variable {name!r}")
            expo = [0] * nvars
            expo[roster[name]] = 1
            if peek()[0] == "op" and peek()[1] == "^":
                take()
                expo[roster[name]] = _int_token(text, take("int"))
            return Polynomial({tuple(expo): 1})
        raise _err(text, tok[2], f"expected a term, found {tok[1]!r}" if tok[1]
                   else "expected a term, found end of input")

    def parse_term():
        acc = parse_factor()
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            acc = poly_mul(acc, parse_factor())
        return acc

    result = Polynomial({})
    step = poly_add
    tok = peek()
    if tok[0] == "op" and tok[1] in "+-":
        take()
        step = poly_sub if tok[1] == "-" else poly_add
    while True:
        result = step(result, parse_term())
        tok = peek()
        if tok[0] == "end":
            break
        if tok[0] == "op" and tok[1] in "+-":
            take()
            step = poly_sub if tok[1] == "-" else poly_add
            continue
        raise _err(text, tok[2], f"expected + or -, found {tok[1]!r}")
    return result


def _ys_add(P, Q):
    """Sum of two maps T-monomial -> Y-coefficient, zeros dropped."""
    out = dict(P)
    for mono, poly in Q.items():
        acc = poly_add(out[mono], poly) if mono in out else poly
        if acc.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = acc
    return out


def _ys_mul(P, Q):
    """Product of two maps T-monomial -> Y-coefficient, every pair of
    terms multiplied out and collected."""
    out = {}
    for ma, pa in P.items():
        for mb, pb in Q.items():
            key = _mono_mul(ma, mb)
            acc = poly_mul(pa, pb)
            if key in out:
                acc = poly_add(out[key], acc)
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def reference_row_image(basis, row, matrix=None):
    """The image of the row-th basis element, sum_j Y(row, j) flat_j,
    over every column or over those `matrix` leaves free."""
    n = basis.n
    return {basis.flat[j]: Polynomial._of({((row * n + j, 1),): Fraction(1)})
            for j in range(n)
            if matrix is None or matrix.pattern[row][j]}


def reference_substitution(basis, f, matrix=None):
    """The image of f with each T_t replaced by its row, by repeated
    products: T_t^e by square and multiply on the row of T_t."""
    r = basis.ring.variable_count
    rows = [reference_row_image(basis, basis.flat.index(
                tuple(int(i == t) for i in range(r))), matrix)
            for t in range(r)]
    result = {}
    for mono, coeff in f.terms.items():
        acc = {(0,) * r: Polynomial._of({(): Fraction(coeff)})}
        for row, e in zip(rows, mono):
            while e:
                if e & 1:
                    acc = _ys_mul(acc, row)
                e >>= 1
                if e:
                    row = _ys_mul(row, row)
        result = _ys_add(result, acc)
    return result


def _matched(direct, product_side, seen, out):
    """Product minus direct side per T-monomial, largest first in grlex,
    each nonzero difference kept once."""
    zero = Polynomial({})
    for mu in sorted(set(direct) | set(product_side),
                     key=lambda m: (sum(m), m), reverse=True):
        gen = poly_sub(product_side.get(mu, zero), direct.get(mu, zero))
        if not gen.is_zero() and gen not in seen:
            seen.add(gen)
            out.append(gen)


def reference_multiplicativity_ideal(basis):
    """The multiplicativity equations from repeated products: for each
    pair of basis elements whose product is a basis element, the product
    of their rows against the row of the product."""
    out, seen = [], set()
    for fm, mono in enumerate(basis.flat):
        direct = reference_row_image(basis, fm)
        for fa in range(basis.n):
            for fb in range(fa, basis.n):
                if _mono_mul(basis.flat[fa], basis.flat[fb]) == mono:
                    _matched(direct, _ys_mul(reference_row_image(basis, fa),
                                             reference_row_image(basis, fb)),
                             seen, out)
    return out


def reference_variable_product_ideal(basis, matrix):
    """The equations for the composites of degree > 1 that are no
    product of two basis elements: their row against the product of the
    rows of their variables, both over the free slots of `matrix`."""
    flat = set(basis.flat)
    out, seen = [], set()
    for fm, mono in enumerate(basis.flat):
        if sum(mono) < 2 or any(
                all(a <= b for a, b in zip(d, mono))
                and tuple(b - a for a, b in zip(d, mono)) in flat
                for d in basis.flat):
            continue
        _matched(reference_row_image(basis, fm, matrix),
                 reference_substitution(basis, Polynomial.from_term(mono, 1),
                                        matrix),
                 seen, out)
    return out


# --- del Pezzo surfaces from points in P^2 -------------------------------

# Points of P^2 with no three on a line and not all six on a conic; the
# surface of degree 9 - r blows up the first r of them.
DEL_PEZZO_POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3),
                    (2, -1, 5))


def _plane_mul(f, g):
    """Product of two plane polynomials, maps from exponent triples in
    x, y, z to Fractions."""
    out = {}
    for a, c in f.items():
        for b, d in g.items():
            m = tuple(x + y for x, y in zip(a, b))
            out[m] = out.get(m, 0) + c * d
    return {m: c for m, c in out.items() if c}


def _through(points, degree):
    """The plane curve of `degree` through `points`, which must be one:
    the kernel of the evaluation matrix of the degree's monomials."""
    monos = [m for m in product(range(degree + 1), repeat=3)
             if sum(m) == degree]
    rows = [[Fraction(p[0] ** m[0] * p[1] ** m[1] * p[2] ** m[2])
             for m in monos] for p in points]
    (kernel,) = linalg.nullspace(rows, ncols=len(monos))
    return {m: c for m, c in zip(monos, kernel) if c}


def del_pezzo_cox_ring(r):
    """The Cox ring of P^2 blown up in the first r <= 6 points of
    DEL_PEZZO_POINTS as (Q rows, ideal strings), in the basis L, E_1,
    ..., E_r of the Picard group.

    Generators, in order: e_i of class E_i with plane polynomial 1;
    l_ij (i < j) of class L - E_i - E_j, the line through p_i and p_j;
    q_S of class 2L - sum_S E, the conic through the five points S.
    Relations: for each conic class C (C.C = 0 and -K.C = 2), the pairs
    of generators whose classes sum to C have products of one plane
    degree, and the linear relations among those plane polynomials,
    the kernel of their coefficient matrix, are the quadrics of C:
    #pairs - 2 of them.  Classes go by first pair, pairs by generator
    index, and each kernel vector is scaled to primitive integers."""
    pts = DEL_PEZZO_POINTS[:r]
    gens = [({i: 1}, {(0, 0, 0): Fraction(1)}) for i in range(1, r + 1)]
    gens += [({0: 1, i: -1, j: -1}, _through((pts[i - 1], pts[j - 1]), 1))
             for i, j in combinations(range(1, r + 1), 2)]
    gens += [({0: 2, **dict.fromkeys(five, -1)},
              _through([pts[i - 1] for i in five], 2))
             for five in combinations(range(1, r + 1), 5)]
    classes = [tuple(c.get(i, 0) for i in range(r + 1)) for c, _ in gens]

    def form(a, b):  # the intersection form: L.L = 1, E_i.E_i = -1
        return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))

    anti = (3,) + (-1,) * r
    pencils = {}
    for a, b in combinations(range(len(gens)), 2):
        c = tuple(x + y for x, y in zip(classes[a], classes[b]))
        if form(c, c) == 0 and form(anti, c) == 2:
            pencils.setdefault(c, []).append((a, b))
    ideal = []
    for pairs in pencils.values():
        prods = [_plane_mul(gens[a][1], gens[b][1]) for a, b in pairs]
        monos = sorted({m for p in prods for m in p})
        for v in linalg.nullspace([[p.get(m, 0) for p in prods] for m in monos],
                                  ncols=len(pairs)):
            scale = lcm(*(x.denominator for x in v))
            ints = [int(x * scale) for x in v]
            g = gcd(*ints)
            terms = [(c // g, a, b) for c, (a, b) in zip(ints, pairs) if c]
            text = " ".join(
                ("- " if c < 0 else "+ ") + ("" if abs(c) == 1 else f"{abs(c)}*")
                + f"T({a + 1})*T({b + 1})" for c, a, b in terms)
            ideal.append(text[2:] if text[0] == "+" else "-" + text[2:])
    rows = [[cls[i] for cls in classes] for i in range(r + 1)]
    return rows, ideal
