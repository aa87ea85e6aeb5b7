"""Sparse multivariate polynomials over the rationals, graded pieces of
polynomial rings, and linear algebra inside graded ideal components.

Monomial bases come from a descent on plain ints: the positive weight
functional is scaled to a primitive integer vector, so each budget and
step is an int, and the remaining degree is a coordinate tuple whose
torsion entries are read modulo the orders at the end.

A `Polynomial` is an immutable canonical map from monomials to
coefficients, with no arithmetic: each builder writes one term dict and
wraps it once, and the parser sums each signed product of its text into
one dict.

A monomial has one of two keys, which matter only to the term order and
the rendering.  In a ring Q[T(1..r)] it is its exponent tuple, of
length r: these rings are small, and monomial bases index them.  In the
slot ring Q[Y(1..n^2), Z] of the structured matrices it is the tuple of
its (index, exponent) pairs with positive exponent, by ascending 0-based
index, so memory and time follow the slots a term meets, not the
n^2 + 1 variables.  The canonical term order used for
every printed or listed output is graded lexicographic, largest first,
with the first variable strongest; all listings in this package are
sorted by it so identical inputs print identically.  On pairs it is the
order of (degree, ((-index, exponent), ...)).

An `EquationList` keeps two kinds of slot-ring generator as the zero
pattern of their matrix and never as terms: the generators Y(k) of the
zero slots and the witness det * Z - 1.  It writes them from the
pattern, and expands one only when it is read as a polynomial.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from operator import add

from . import linalg
from .errors import InputError, StructuralError, ValidationError
from .grading import DegreeMatrix, GroupElement, degree_of_exponent

Monomial = tuple  # exponent tuples or pairs; the alias marks intent

_ONE = Fraction(1)


def grlex_key(mono: Monomial):
    return (sum(mono), mono)


def pairs_key(mono: Monomial):
    """The canonical order on (index, exponent) pairs: it sorts as
    grlex_key sorts the exponent tuples they stand for."""
    return (sum([e for _, e in mono]), tuple([(-i, e) for i, e in mono]))


def _is_pairs(mono: Monomial) -> bool:
    """Is mono a tuple of (index, exponent) pairs?  An exponent tuple
    is never empty: every ring has a variable."""
    return not mono or type(mono[0]) is tuple


def _pairs(mono: Monomial):
    """The (index, exponent) pairs of a monomial of either key."""
    return mono if _is_pairs(mono) else [(i, e) for i, e in enumerate(mono) if e]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two exponent tuples."""
    return tuple(map(add, a, b))


class Polynomial:
    """Finite map from monomials, all of one key (see the module
    docstring), to nonzero rational coefficients.

    Immutable and without arithmetic: each builder in the package
    writes one term dict and wraps it once.  The hash and the canonical
    term order are kept once computed.
    """

    __slots__ = ("terms", "_hash", "_sorted")

    def __init__(self, terms=None):
        """The checking constructor, for exponent tuples: the exponents
        must be nonnegative ints, in tuples of one length; zero
        coefficients are dropped."""
        clean = {}
        for mono, coeff in (terms or {}).items():
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[tuple(mono)] = c
        if len(set(map(len, clean))) > 1:
            raise StructuralError("mixed exponent lengths in one polynomial")
        # one pass: a Python loop is faster here than a type set and a min
        for e in chain.from_iterable(clean):
            if type(e) is not int or e < 0:
                if set(map(type, chain.from_iterable(clean))) <= {int}:
                    raise StructuralError("negative exponent in a polynomial")
                raise StructuralError("exponents must be integers")
        self.terms = clean
        self._hash = self._sorted = None

    @classmethod
    def _of(cls, clean: dict) -> "Polynomial":
        """The trusted constructor for the builders of the package:
        `clean` maps monomials of one key and, for exponent tuples, one
        length to nonzero Fractions and becomes the terms as it is."""
        f = object.__new__(cls)
        f.terms = clean
        f._hash = f._sorted = None
        return f

    @classmethod
    def from_term(cls, mono: Monomial, coeff) -> "Polynomial":
        return cls({tuple(mono): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def sorted_terms(self) -> tuple:
        """Terms largest-first in the canonical order, sorted once."""
        if self._sorted is None:
            key = (pairs_key if _is_pairs(next(iter(self.terms), ()))
                   else grlex_key)
            self._sorted = tuple(sorted(self.terms.items(),
                                        key=lambda kv: key(kv[0]),
                                        reverse=True))
        return self._sorted

    def substitute_values(self, values):
        """Exact evaluation at a point given as a sequence of Fractions,
        one per variable of the ring."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            prod = coeff
            for i, e in _pairs(mono):
                prod *= Fraction(values[i]) ** e
            total += prod
        return total

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


def _leibniz(allowed, cell, empty):
    """The Leibniz terms of a matrix whose row i may take the columns
    allowed[i], ascending by column tuple, in groups (head, parity,
    tails): (tail, p) in tails is the term head + tail, of sign
    (-1)^(parity + p).  A term sums cell(i, c) over its row-column pairs
    onto `empty`; its sign is the parity of the sum over the rows of the
    position of the row's column among those still unused."""
    n = len(allowed)
    cells = [{c: cell(i, c) for c in cols} for i, cols in enumerate(allowed)]
    memo = {(): [(empty, 0)]}
    stack = [(tuple(range(n)), empty, 0)]
    while stack:
        unused, head, parity = stack.pop()
        if len(unused) <= 6:  # at most 6! terms, kept for each such set
            yield head, parity, _tails(cells, unused, memo)
            continue
        row = cells[n - len(unused)]
        # pushed in reverse, so the smallest column is walked first
        stack += [(unused[:k] + unused[k + 1:], head + row[c], (parity + k) & 1)
                  for k, c in reversed(tuple(enumerate(unused))) if c in row]


def _tails(cells, unused, memo):
    """The terms over the last len(unused) rows as (tail, parity), made
    once per set of unused columns; memo[()] holds the empty term."""
    tails = memo.get(unused)
    if tails is None:
        row = cells[len(cells) - len(unused)]
        tails = memo[unused] = [
            (row[c] + tail, (k + p) & 1) for k, c in enumerate(unused) if c in row
            for tail, p in _tails(cells, unused[:k] + unused[k + 1:], memo)]
    return tails


class EquationList:
    """The equations of one structured matrix in the slot ring, variable
    i*n + j holding A[i][j] and variable n*n holding Z: Y(k) for each
    zero slot k, row major, then the witness det(A) * Z - 1, then the
    polynomials `rest`.  The zero slots and the witness are read off
    `allowed`, the columns each row may take, ascending; each becomes a
    polynomial only when it is read one generator at a time.  Its
    length, iteration and indexing are those of the tuple of its
    generators."""

    __slots__ = ("allowed", "rest")

    def __init__(self, allowed, rest=()):
        self.allowed = allowed
        self.rest = tuple(rest)

    def zero_slots(self) -> list[int]:
        """The 0-based variable indices of the zero slots, ascending."""
        n = len(self.allowed)
        return [i * n + j for i, cols in enumerate(self.allowed)
                for j in range(n) if j not in cols]

    def witness(self) -> Polynomial:
        """det(A) * Z - 1 expanded.  Each Leibniz term is one slot per
        row times Z, so `_leibniz` walks them in the canonical,
        descending grlex order, and the constant -1 comes last."""
        n = len(self.allowed)
        signs = (_ONE, -_ONE)
        z = ((n * n, 1),)
        terms = {}
        for head, parity, tails in _leibniz(self.allowed,
                                            lambda i, c: ((i * n + c, 1),), ()):
            for tail, p in tails:
                terms[head + tail + z] = signs[parity ^ p]
        terms[()] = signs[1]
        return Polynomial._of(terms)

    def write(self, names, write, sep: str, texts: dict) -> None:
        """Pass the generators' text, `sep` between two, to `write`: the
        zero slots by name, the witness one group of its Leibniz terms
        at a time, never expanded, then `rest`.  `texts`, the rendering
        pass's dict from id(g) to (g, text), renders a generator of
        `rest` that lists share (the multiplicativity equations) once;
        holding g keeps its id from reuse while the pass runs."""
        write("".join([names[v] + sep for v in self.zero_slots()]))
        # one slot name per row, then Z; the first group sheds the
        # " + " or " - " before its first term, keeping a minus
        n = len(self.allowed)
        stars = ["*"] * (n - 1) + ["*" + names[n * n]]
        lead = 3
        for head, parity, tails in _leibniz(
                self.allowed, lambda i, c: names[i * n + c] + stars[i], ""):
            signs = (" + " + head, " - " + head)
            text = "".join([signs[parity ^ p] + tail for tail, p in tails])
            write(("-" if lead and text[1] == "-" else "") + text[lead:])
            lead = 0
        write(" - 1")
        for g in self.rest:
            kept = texts.get(id(g))
            if kept is None:
                kept = texts[id(g)] = (g, polynomial_to_str(g, names))
            write(sep + kept[1])

    def __len__(self):
        n = len(self.allowed)
        return n * n - sum(map(len, self.allowed)) + 1 + len(self.rest)

    def __iter__(self):
        for v in self.zero_slots():
            yield Polynomial._of({((v, 1),): _ONE})
        yield self.witness()
        yield from self.rest

    def __getitem__(self, key):
        """The generator at a position, or a tuple of them for a slice."""
        if isinstance(key, slice):
            return tuple(self[i] for i in range(len(self))[key])
        zeros = self.zero_slots()
        pos = range(len(self))[key]
        if pos < len(zeros):
            return Polynomial._of({((zeros[pos], 1),): _ONE})
        if pos == len(zeros):
            return self.witness()
        return self.rest[pos - len(zeros) - 1]

    def __add__(self, other):
        return EquationList(self.allowed, self.rest + tuple(other))


def default_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"T({i + 1})" for i in range(nvars))


def polynomial_to_str(f: Polynomial, names) -> str:
    """Canonical rendering: terms in descending order, `*` products,
    `^` powers, unit coefficients suppressed."""
    if f.is_zero():
        return "0"
    chunks = []
    for mono, coeff in f.sorted_terms():
        num, den = coeff.numerator, coeff.denominator
        factors = [names[i] if e == 1 else f"{names[i]}^{e}"
                   for i, e in _pairs(mono)]
        if den != 1:
            factors.insert(0, f"{abs(num)}/{den}")
        elif abs(num) != 1 or not factors:
            factors.insert(0, str(abs(num)))
        chunks.append(("- " if num < 0 else "+ ") + "*".join(factors))
    first = chunks[0]
    chunks[0] = ("-" if first[0] == "-" else "") + first[2:]
    return " ".join(chunks)


def _joined(render, *args) -> str:
    """The text that render(*args, write) passes to `write`, whole."""
    out = []
    render(*args, out.append)
    return "".join(out)


def _blocks(sink):
    """(write, flush) over `sink`: write gathers text and passes it on
    to sink joined, 64 KiB or more at a time, and flush passes on what
    it holds, if it was given anything since.  Each piece of a renderer
    is small, and a file or stream write per piece costs more than the
    join."""
    pending = []
    size = 0

    def flush():
        nonlocal size
        if pending:
            sink("".join(pending))
            pending.clear()
            size = 0

    def write(text):
        nonlocal size
        pending.append(text)
        size += len(text)
        if size >= 1 << 16:
            flush()

    return write, flush


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)"
                    r"|(?P<op>[()^*/+-])|(?P<bad>\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _err(text, m.start(kind),
                       f"unexpected character {m[kind]!r}")
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _line_starts(text: str) -> list[int]:
    """The offset at which each line of text starts."""
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _line_col(starts: list[int], pos: int):
    """The 1-based line and column of offset pos, from the line starts
    of its text."""
    line = bisect_right(starts, pos)
    return line, pos - starts[line - 1] + 1


def _err(text: str, pos: int, message: str) -> InputError:
    line, col = _line_col(_line_starts(text), pos)
    return InputError([(line, col, message)])


def _long_integer_message() -> str:
    """The diagnostic for an integer literal that int() refuses as too
    long."""
    return f"integer longer than {sys.get_int_max_str_digits()} digits"


def _int_token(text: str, tok) -> int:
    try:
        return int(tok[1])
    except ValueError:
        raise _err(text, tok[2], _long_integer_message()) from None


def parse_polynomial(text: str, names) -> Polynomial:
    """Parse the plain-text grammar, e.g. `T(1)*T(6) + 2*T(7)^2 - 1/2`.

    `names` is the variable roster; indexed names like `Y(13)` and bare
    names like `Z` are both resolved against it.  Each signed product is
    read as one coefficient and one exponent vector and summed into one
    term dict, which the checking constructor wraps once.
    """
    roster = {name: i for i, name in enumerate(names)}
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

    def at(op):
        return peek()[0] == "op" and peek()[1] == op

    def parse_term(num):
        """The product of factors at the cursor, as (numerator,
        denominator, exponents), its numerator started at num."""
        den = 1
        expo = [0] * len(roster)
        while True:
            tok = peek()
            if tok[0] == "int":
                take()
                num *= _int_token(text, tok)
                if at("/"):
                    take()
                    den_tok = take("int")
                    d = _int_token(text, den_tok)
                    if d == 0:
                        raise _err(text, den_tok[2], "division by zero")
                    den *= d
            elif tok[0] == "name":
                take()
                name = tok[1]
                if at("("):
                    take()
                    idx_tok = take("int")
                    take("op", ")")
                    name = f"{name}({idx_tok[1]})"
                if name not in roster:
                    raise _err(text, tok[2], f"unknown variable {name!r}")
                # a power of one variable is one exponent, however large
                if at("^"):
                    take()
                    expo[roster[name]] += _int_token(text, take("int"))
                else:
                    expo[roster[name]] += 1
            else:
                raise _err(text, tok[2], f"expected a term, found {tok[1]!r}"
                           if tok[1] else "expected a term, found end of input")
            if not at("*"):
                return num, den, expo
            take()

    terms = {}
    sign = 1
    if at("+") or at("-"):
        sign = -1 if take()[1] == "-" else 1
    while True:
        num, den, expo = parse_term(sign)
        mono = tuple(expo)
        c = Fraction(num, den)
        terms[mono] = terms[mono] + c if mono in terms else c
        tok = peek()
        if tok[0] == "end":
            break
        if at("+") or at("-"):
            sign = -1 if take()[1] == "-" else 1
            continue
        raise _err(text, tok[2], f"expected + or -, found {tok[1]!r}")
    return Polynomial(terms)


class GradedPolyRing:
    """S = Q[T_1, ..., T_r] with deg(T_i) the i-th column of `degrees`:
    r and the grading group are read off the degree matrix."""

    def __init__(self, degrees: DegreeMatrix):
        self.variable_count = degrees.var_count
        self.grading = degrees.group
        self.degrees = degrees

    def var_names(self) -> tuple[str, ...]:
        return default_names(self.variable_count)

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self.var_names())


class Ideal:
    """The ideal of `ring` that `generators` generate."""

    def __init__(self, ring: GradedPolyRing, generators):
        self.ring = ring
        self.generators = tuple(generators)
        for g in self.generators:
            if g.is_zero():
                raise StructuralError("zero generator in ideal")
            for mono in g.terms:
                if len(mono) != ring.variable_count:
                    raise StructuralError("generator arity differs from the ring")


def distinct_term_degrees(ring: GradedPolyRing, f: Polynomial):
    """The distinct degrees among the terms of f, in canonical term order."""
    return tuple(dict.fromkeys(degree_of_exponent(ring.degrees, mono)
                               for mono, _ in f.sorted_terms()))


def degree_of(ring: GradedPolyRing, f: Polynomial) -> GroupElement:
    """Common degree of all terms of a homogeneous polynomial."""
    if f.is_zero():
        raise StructuralError("the zero polynomial has no degree")
    degrees = distinct_term_degrees(ring, f)
    if len(degrees) > 1:
        raise ValidationError(
            "polynomial is not homogeneous; term degrees "
            + ", ".join(str(d) for d in degrees))
    return degrees[0]


def is_homogeneous(ring: GradedPolyRing, f: Polynomial) -> bool:
    return f.is_zero() or len(distinct_term_degrees(ring, f)) == 1


def monomial_basis(ring: GradedPolyRing, w: GroupElement):
    """All monomials of degree w, canonically ordered, largest first.

    The descent is bounded by the grading's positive functional, an
    integer phi with phi . q_i^0 >= 1, so every budget and step is an
    int; it exists only for a pointed grading.  Each call enumerates; a
    stage that needs a component again keeps what it read.
    """
    if w.group != ring.grading:
        raise StructuralError("degree lives in a different group")
    phi = ring.degrees.positive_functional
    if phi is None:
        raise ValidationError(
            "grading is not pointed; graded components may be infinite "
            "dimensional and monomial enumeration would not terminate")
    cols = [q.coordinates for q in ring.degrees.columns]
    steps = [linalg.dot(phi, q.free_part) for q in ring.degrees.columns]
    r = ring.variable_count
    k = ring.grading.free_rank
    orders = ring.grading.torsion_orders
    out = []
    expo = [0] * r

    def descend(i: int, remaining: tuple, budget: int):
        if i == r:
            if not any(remaining[:k]) and all(
                    x % a == 0 for x, a in zip(remaining[k:], orders)):
                out.append(tuple(expo))
            return
        col, step = cols[i], steps[i]
        if i < r - 1:
            exponents = range(budget // step, -1, -1)
        else:
            # the free part left must vanish, and phi of it is the budget
            # left, so only budget - e * step = 0 can be a monomial
            exponents = () if budget % step else (budget // step,)
        for e in exponents:
            expo[i] = e
            descend(i + 1, tuple(x - e * y for x, y in zip(remaining, col)),
                    budget - e * step)
        expo[i] = 0

    budget = linalg.dot(phi, w.free_part)
    if budget >= 0:
        descend(0, w.coordinates, budget)
    out.sort(key=grlex_key, reverse=True)
    return tuple(out)


def component_dimension(ring: GradedPolyRing, w: GroupElement) -> int:
    return len(monomial_basis(ring, w))


def ideal_component_basis(I: Ideal, u: GroupElement, target=None):
    """Echelon basis of the degree-u piece of I, as coefficient vectors
    over `target`, which is monomial_basis(ring, u) and is enumerated
    only when not given and some product lands in degree u.

    The spanning set is every product m * g_j with deg(m) = u - deg(g_j),
    written as the terms of g_j shifted by m; these span I_u because the
    g_j generate I as a module over S.  Each S_(u - d) is enumerated
    once, for the generators of degree d to share.
    """
    ring = I.ring
    degrees = [degree_of(ring, g) for g in I.generators]
    shifts = {d: monomial_basis(ring, u - d) for d in dict.fromkeys(degrees)}
    products = [(m, g) for g, d in zip(I.generators, degrees)
                for m in shifts[d]]
    if not products:
        return []
    if target is None:
        target = monomial_basis(ring, u)
    index = {mono: i for i, mono in enumerate(target)}
    rows = []
    for m, g in products:
        row = [Fraction(0)] * len(target)
        for mono, coeff in g.terms.items():
            row[index[monomial_mul(m, mono)]] = coeff
        rows.append(row)
    reduced, pivots = linalg.rref(rows)
    return [tuple(reduced[i]) for i in range(len(pivots))]


def annihilator_forms(rows, dimension: int):
    """Linear forms on Q^dimension vanishing exactly on the span of
    `rows`, as the reduced echelon kernel basis, from one elimination:
    the kernel of the rows with their columns reversed has one vector
    per free column, with a 1 there and nothing at the other free
    columns, so reversed back each vector leads with its 1 at a column
    no other vector touches."""
    return [v[::-1] for v in reversed(
        linalg.nullspace([r[::-1] for r in rows], ncols=dimension))]
