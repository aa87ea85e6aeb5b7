"""Presentation of the graded automorphism group of the polynomial ring.

The graded components attached to the distinct generator weights are
concatenated into one action basis of size n.  A weight symmetry B only
allows a linear map to send block i into the block of B(w_i), so the
generic matrix has a forced zero pattern; the remaining freedom is one
coordinate Y per possibly nonzero slot, numbered row major, plus one
witness variable Z whose equation det * Z = 1 keeps the matrix
invertible.  Together with the equations forcing multiplicativity on
composite basis monomials this presents the graded automorphisms of S as
an affine variety over the rationals.

The zero slots and the witness det * Z - 1 are kept as the zero pattern
of the matrix: an `EquationList` holds them as the columns each row may
take, writes the witness by walking its Leibniz terms from the pattern,
and expands it only when it is read as a polynomial.  Every other
slot-ring term is keyed by its (index, exponent) pairs, so it costs what
its nonzero slots cost.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import comb, factorial, prod
from operator import mul

from .errors import GuardError, StructuralError
from .grading import GroupAutomorphism, GroupElement
from .polynomials import (EquationList, GradedPolyRing, Polynomial,
                          grlex_key, monomial_basis, monomial_mul,
                          polynomial_to_str)
from .validation import Stages
from .weightsym import block_permutation

# Leibniz terms the determinant witness may have.  Like every guard
# bound it is read when the guard runs, so a caller may set it.
DET_TERM_BOUND = 10 ** 6

_ONE = Fraction(1)


class ActionBasis:
    """Concatenated monomial bases of the components S_w, w a generator
    weight, in canonical block order: first occurrence along the
    variable list.

    Everything the later stages read of the basis is made here, once:
    the block sizes `dims` and their flat `starts`, the block of each
    row, the row of each variable, and `factors[m]`, the pairs (a, b),
    a <= b, with flat[a] * flat[b] = flat[m], in (a, b) order.  A
    composite row with no pair is the product of its variables' rows
    (Hausen-Keicher-Wolf).
    """

    def __init__(self, ring: GradedPolyRing):
        self.ring = ring
        self.weights = ring.degrees.distinct_weights()
        self.blocks = tuple(monomial_basis(ring, w) for w in self.weights)
        self.flat = flat = tuple(m for b in self.blocks for m in b)
        self.dims = tuple(map(len, self.blocks))
        self.starts = (0, *accumulate(self.dims))
        self.row_block = tuple(i for i, d in enumerate(self.dims)
                               for _ in range(d))
        index = {m: i for i, m in enumerate(flat)}
        # every variable occurs in the action basis, which pins its row
        r = ring.variable_count
        self.variable_rows = tuple(index[tuple(int(i == t) for i in range(r))]
                                   for t in range(r))
        self.factors = factors = [[] for _ in flat]
        for a, ma in enumerate(flat):
            for b in range(a, len(flat)):
                m = index.get(monomial_mul(ma, flat[b]))
                if m is not None:
                    factors[m].append((a, b))
        self._powers = {}  # (row, e, columns) -> _row_power's terms

    @property
    def n(self) -> int:
        return len(self.flat)

    def flat_degree(self, idx: int) -> GroupElement:
        return self.weights[self.row_block[idx]]


def yz_names(n: int) -> tuple[str, ...]:
    """Variable roster of the presentation ring: Y(1..n^2) then Z."""
    return tuple(f"Y({i})" for i in range(1, n * n + 1)) + ("Z",)


class SymbolicMatrix:
    """n x n matrix whose entries are either 0 or the variable Y(index).

    pattern[i][j] holds the 1-based Y index (i*n + j + 1) or 0.
    """

    def __init__(self, pattern: tuple[tuple[int, ...], ...]):
        self.n = len(pattern)
        self.pattern = pattern

    @cached_property
    def free_columns(self) -> tuple[tuple[int, ...], ...]:
        """The columns each row may take."""
        return tuple(tuple(j for j, v in enumerate(row) if v)
                     for row in self.pattern)

    def __str__(self):
        cells = [[f"Y({v})" if v else "0" for v in row] for row in self.pattern]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[" + ", ".join(c.rjust(width) for c in row) + "]"
                         for row in cells)


def structured_matrix(basis: ActionBasis, B: GroupAutomorphism) -> SymbolicMatrix:
    """Zero pattern of a graded map for the weight symmetry B: the rows
    of block i are free exactly on the columns of the block B sends
    block i to."""
    block_map = block_permutation(B, basis.weights, basis.dims)
    if block_map is None:
        raise StructuralError("automorphism is not admissible: it pairs "
                              "components of different dimensions")
    return _pattern(basis, block_map)


def _pattern(basis: ActionBasis, block_map) -> SymbolicMatrix:
    """The structured matrix of a block map: block i lands in block
    block_map[i], 0-based."""
    starts = basis.starts
    n = basis.n
    rows = []
    for i, j in enumerate(block_map):
        for fi in range(starts[i], starts[i + 1]):
            rows.append(tuple(fi * n + fj + 1 if starts[j] <= fj < starts[j + 1]
                              else 0 for fj in range(n)))
    return SymbolicMatrix(tuple(rows))


def _require_det_terms(count: int):
    if count > DET_TERM_BOUND:
        raise GuardError(
            f"symbolic determinant has {count} terms, above the bound "
            f"{DET_TERM_BOUND} (ringaut.DET_TERM_BOUND)")


def zero_pattern_ideal(matrix: SymbolicMatrix) -> EquationList:
    """One vanishing generator per zero slot, then the invertibility
    witness det(A) * Z - 1, as an `EquationList` over the pattern.

    The rows grouped by support must form a block permutation of full
    square blocks, of sizes k_i; det(A) then has prod(k_i!) terms.  The
    count is refused above `DET_TERM_BOUND`.  The list keeps the columns
    each row may take, and the witness's terms are walked only when it
    is written or read.
    """
    n = matrix.n
    allowed = matrix.free_columns
    rows = Counter(allowed)  # rows per support
    # square blocks with k_i rows each: disjoint exactly when they cover n columns
    if (any(len(cols) != k for cols, k in rows.items())
            or len(set().union(*rows)) != n):
        raise StructuralError("the zero pattern is not a block permutation "
                              "of full square blocks")
    _require_det_terms(prod(map(factorial, rows.values())))
    return EquationList(allowed)


# --- substitution: S' coefficients against T monomials -----------------
#
# Row i is sum_j Y(i, j) flat_j over its free columns j, and its e-th
# power is the sum over the compositions alpha of e of
# (e choose alpha) prod_j Y(i, j)^alpha_j flat_j^alpha_j.  A Y-monomial
# records alpha on every row it meets, and different variables have
# different rows, so each term of an image is written once: none meet.
# Row i holds the slot indices i*n to i*n + n - 1, so the pairs of the
# rows, joined by ascending row, are the sorted pairs of the term.

def _compositions(e: int, k: int):
    """Each alpha in N^k with |alpha| = e, the last part taking what is
    left, with its multinomial coefficient as a product of binomials;
    none for k = 0."""
    if k == 1:
        yield (e,), 1
    elif k > 1:
        for a in range(e + 1):
            head = comb(e, a)
            for rest, m in _compositions(e - a, k - 1):
                yield (a, *rest), head * m


def _row_power(basis: ActionBasis, row: int, e: int, cols):
    """The terms of the e-th power of a row over the columns `cols`:
    (T-monomial, (Y index, exponent) pairs, multinomial coefficient)."""
    by_variable = tuple(zip(*(basis.flat[c] for c in cols)))
    return [(tuple(sum(map(mul, alpha, v)) for v in by_variable),
             tuple([(row * basis.n + c, a) for c, a in zip(cols, alpha) if a]),
             m)
            for alpha, m in _compositions(e, len(cols))]


def _image(basis: ActionBasis, columns, terms):
    """The image of sum c * prod row^e, one (c, [(row, e), ...]) per
    term with distinct rows, row i spanning the columns columns[i]: a
    map from T-monomials to polynomials in the Y variables."""
    constant = (0,) * basis.ring.variable_count
    memo = basis._powers
    out = {}
    for coeff, powers in terms:
        parts = []
        for row, e in sorted(powers):
            key = (row, e, columns[row])
            part = memo.get(key)
            if part is None:
                part = memo[key] = _row_power(basis, row, e, columns[row])
            parts.append(part)
        for picks in product(*parts):
            mono, ys, c = constant, (), coeff
            for part, slots, m in picks:
                mono = monomial_mul(mono, part)
                ys += slots
                if m != 1:  # most compositions have multinomial 1
                    c *= m
            out.setdefault(mono, {})[ys] = c
    return {mono: Polynomial._of(ys) for mono, ys in out.items()}


def substitute_polynomial(basis: ActionBasis, f: Polynomial,
                          matrix: SymbolicMatrix):
    """Image of f in S under T_t -> sum_j Y_ij flat_j, i the row of T_t,
    over the slots `matrix` leaves free.

    Returns a map from T-monomials to polynomials in the Y variables.
    """
    rows = basis.variable_rows
    return _image(basis, matrix.free_columns,
                  ((c, [(i, e) for i, e in zip(rows, mono) if e])
                   for mono, c in f.terms.items()))


def _match_rows(direct, prod, seen, out):
    """Append product minus direct side, one generator per T-monomial in
    descending grlex order, skipping zeros and generators seen before."""
    keys = sorted(set(direct) | set(prod), key=grlex_key, reverse=True)
    for mu in keys:
        zero = Polynomial.zero()
        gen = prod.get(mu, zero) - direct.get(mu, zero)
        if gen.is_zero() or gen in seen:
            continue
        seen.add(gen)
        out.append(gen)


def multiplicativity_ideal(basis: ActionBasis):
    """Coefficient equations forcing images of composite basis monomials
    to equal products of images of their factors.

    For every pair (a, b) in `basis.factors[m]` the image of flat[m] and
    the product of the images of flat[a] and flat[b] are expanded over
    T-monomials and matched coefficient by coefficient; generators are
    the differences, product side minus direct side, deduplicated in
    scan order.  Composites without a pair are left to
    `variable_product_ideal`.
    """
    every = (range(basis.n),) * basis.n
    out = []
    seen = set()
    for fm, pairs in enumerate(basis.factors):
        if not pairs:
            continue
        direct = _image(basis, every, [(_ONE, [(fm, 1)])])
        for fa, fb in pairs:
            # a square is one row at power 2, whose cross terms come
            # with their coefficient 2
            powers = [(fa, 2)] if fa == fb else [(fa, 1), (fb, 1)]
            _match_rows(direct, _image(basis, every, [(_ONE, powers)]),
                        seen, out)
    return out


def variable_product_ideal(basis: ActionBasis, matrix: SymbolicMatrix):
    """Equations for the composite basis monomials m (total degree > 1)
    with no pair in `basis.factors`, e.g. T(1)^3 in P(1,1,3): the row of
    m must equal the product of the rows of its variables, which fix
    every row (Hausen-Keicher-Wolf).  Both sides keep only the slots
    `matrix` leaves free, so each product has no more terms than the
    structured rows allow."""
    columns = matrix.free_columns
    out = []
    seen = set()
    for fm, mono in enumerate(basis.flat):
        if sum(mono) < 2 or basis.factors[fm]:
            continue
        _match_rows(_image(basis, columns, [(_ONE, [(fm, 1)])]),
                    substitute_polynomial(basis, Polynomial.from_term(mono, 1),
                                          matrix),
                    seen, out)
    return out


class AutTriple:
    """One weight symmetry with its structured matrix and equations."""

    def __init__(self, matrix: SymbolicMatrix, weight_aut: GroupAutomorphism,
                 ideal: EquationList):
        self.matrix = matrix
        self.weight_aut = weight_aut
        self.ideal = ideal


class AutPresentation:
    """Everything the polynomial-ring stage produces: the action basis
    and one triple, with its equations, per admissible weight symmetry."""

    def __init__(self, basis: ActionBasis, triples: tuple[AutTriple, ...]):
        self.ring = basis.ring
        self.basis = basis
        self.triples = triples

    @property
    def n(self) -> int:
        return self.basis.n

    def slot_names(self) -> tuple[str, ...]:
        return yz_names(self.basis.n)

    def witness_degree(self) -> GroupElement:
        """Degree making each det * Z - 1 generator homogeneous; the
        combined roster instead grades Z by zero."""
        total = self.ring.grading.zero()
        for i in range(self.n):
            total = total + self.basis.flat_degree(i)
        return -total


def _build_triple(basis, B, block_map, mult_gens):
    matrix = _pattern(basis, block_map)
    gens = (zero_pattern_ideal(matrix) + mult_gens
            + variable_product_ideal(basis, matrix))
    return AutTriple(matrix, B, gens)


def aut_ks(ring: GradedPolyRing) -> AutPresentation:
    """The full presentation: admissible weight symmetries, structured
    matrices, and per-symmetry equation lists.

    Requires an effective pointed grading with a lattice basis among the
    free parts; the ideal of the algebra plays no role at this stage.
    """
    return Stages(ring).presentation


def ring_presentation(ring: GradedPolyRing, auts) -> AutPresentation:
    """The presentation of `aut_ks` from the weight symmetries `auts`
    of the ring's degree matrix; the ring is not validated again.

    A symmetry is kept when its block permutation pairs components of
    equal dimension.  This is deliberately the coarse dimension filter:
    the finer product compatibility is enforced by the multiplicativity
    equations.
    """
    basis = ActionBasis(ring)
    block_maps = [(B, block_permutation(B, basis.weights, basis.dims))
                  for B in auts]
    # every structured matrix has the same determinant term count
    _require_det_terms(prod(map(factorial, basis.dims)))
    mult_gens = tuple(multiplicativity_ideal(basis))
    triples = tuple(_build_triple(basis, B, block_map, mult_gens)
                    for B, block_map in block_maps if block_map is not None)
    return AutPresentation(basis, triples)


# --- rendering ---------------------------------------------------------

def render_presentation(pres: AutPresentation, write) -> None:
    """Plain-text report, passed to `write` in pieces: variable weight
    table, then each triple with its weight symmetry, structured matrix,
    and equations."""
    n = pres.n
    names = pres.slot_names()
    flat = (polynomial_to_str(Polynomial.from_term(m, 1), pres.ring.var_names())
            for m in pres.basis.flat)
    write(f"action basis size n = {n}\nflat basis: " + ", ".join(flat))
    if any(d > 1 for d in pres.basis.dims):
        write("\nnote: some components contain several monomials; the "
              "admissibility filter compares dimensions only and the "
              "multiplicativity equations carry the rest")
    write("\nslot degrees, one block of Y variables per basis row:")
    for i in range(n):
        write(f"\n  deg Y({i * n + 1}..{(i + 1) * n}) = "
              f"{pres.basis.flat_degree(i)}")
    write(f"\n  deg Z = {pres.ring.grading.zero()} "
          f"(per triple: {pres.witness_degree()})")
    for idx, triple in enumerate(pres.triples, start=1):
        write(f"\n\ntriple {idx}: weight symmetry\n{triple.weight_aut}"
              f"\nstructured matrix:\n{triple.matrix}"
              f"\nequations ({len(triple.ideal)} generators):\n  ")
        triple.ideal.write(names, write, "\n  ")
