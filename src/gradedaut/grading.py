"""Finitely generated abelian grading groups and their automorphisms.

A grading group K splits as Z^k + Z/a_1 + ... + Z/a_l.  Elements carry a
free part in Z^k and a torsion part with entry j reduced into [0, a_j).
An automorphism of K is stored as its display matrix, the (k+l) x (k+l)
integer matrix whose column j is the image of the j-th unit vector, its
last l rows reduced modulo the torsion orders.  A matrix displays an
endomorphism when a_j times each torsion column j vanishes in K:
exactly in the free rows, so the matrix is [[A, 0], [C, D]], and modulo
a_i in torsion row i.  The endomorphism is bijective exactly when its
columns generate K, since an onto endomorphism of a finitely generated
abelian group is injective (Vasconcelos, 1969).
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import index

from . import linalg
from .cones import RationalCone, cone_from_rays
from .errors import StructuralError


class GradingGroup:
    """K = Z^free_rank + Z/a_1 + ... + Z/a_l."""

    __slots__ = ("free_rank", "torsion_orders")

    def __init__(self, free_rank: int, torsion_orders=()):
        self.free_rank = index(free_rank)
        self.torsion_orders = tuple(map(index, torsion_orders))
        if free_rank < 0:
            raise StructuralError("free rank must be nonnegative")
        if any(a < 2 for a in self.torsion_orders):
            raise StructuralError("torsion orders must be integers >= 2")

    def __eq__(self, other):
        return self is other or (
            type(other) is GradingGroup and self.free_rank == other.free_rank
            and self.torsion_orders == other.torsion_orders)

    def __hash__(self):
        return hash((self.free_rank, self.torsion_orders))

    @property
    def torsion_rank(self) -> int:
        return len(self.torsion_orders)

    @property
    def coordinate_count(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def element(self, free, torsion=()) -> "GroupElement":
        return GroupElement(self, tuple(free), tuple(torsion))

    def from_coordinates(self, coords) -> "GroupElement":
        """Element from a single (k+l)-vector, free entries first."""
        coords = tuple(map(index, coords))
        if len(coords) != self.coordinate_count:
            raise StructuralError(
                f"expected {self.coordinate_count} coordinates, got {len(coords)}")
        k = self.free_rank
        return GroupElement(self, coords[:k], coords[k:])

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.free_rank,
                            (0,) * len(self.torsion_orders))

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{a}" for a in self.torsion_orders]
        return " + ".join(parts) if parts else "0"


class GroupElement:
    """An element of `group`: a free part in Z^k and a torsion part
    reduced into [0, a_j)."""

    __slots__ = ("group", "free_part", "torsion_part")

    def __init__(self, group: GradingGroup, free_part, torsion_part=()):
        orders = group.torsion_orders
        free = tuple(map(index, free_part))
        tors = tuple(map(index, torsion_part))
        if len(free) != group.free_rank or len(tors) != len(orders):
            raise StructuralError("coordinate count does not match the group")
        self.group = group
        self.free_part = free
        self.torsion_part = tuple(x % a for x, a in zip(tors, orders))

    def __eq__(self, other):
        return self is other or (
            type(other) is GroupElement and self.free_part == other.free_part
            and self.torsion_part == other.torsion_part
            and self.group == other.group)

    def __hash__(self):
        return hash((self.group, self.free_part, self.torsion_part))

    def _require_same_group(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise StructuralError("elements belong to different grading groups")

    def __add__(self, other):
        self._require_same_group(other)
        return GroupElement(
            self.group,
            tuple(a + b for a, b in zip(self.free_part, other.free_part)),
            tuple(a + b for a, b in zip(self.torsion_part, other.torsion_part)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GroupElement(self.group,
                            tuple(-a for a in self.free_part),
                            tuple(-a for a in self.torsion_part))

    def scale(self, m: int) -> "GroupElement":
        return GroupElement(self.group,
                            tuple(m * a for a in self.free_part),
                            tuple(m * a for a in self.torsion_part))

    def is_zero(self) -> bool:
        return not any(self.free_part) and not any(self.torsion_part)

    @property
    def coordinates(self) -> tuple[int, ...]:
        return self.free_part + self.torsion_part

    def __str__(self):
        free = ", ".join(str(x) for x in self.free_part)
        tors = ", ".join(str(x) for x in self.torsion_part)
        if not self.group.torsion_orders:
            return f"({free})"
        if self.group.free_rank == 0:
            return f"(; {tors})"
        return f"({free}; {tors})"


class DegreeMatrix:
    """The generator degrees q_1, ..., q_r as columns."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        if not self.columns:
            raise StructuralError("a degree matrix needs at least one column")
        g = self.columns[0].group
        if any(c.group != g for c in self.columns):
            raise StructuralError("degree matrix columns lie in different groups")

    def __eq__(self, other):
        return self is other or (type(other) is DegreeMatrix
                                 and self.columns == other.columns)

    @classmethod
    def from_rows(cls, group: GradingGroup, rows) -> "DegreeMatrix":
        """Build from the printed layout: k free rows, then l torsion rows."""
        rows = [list(r) for r in rows]
        if len(rows) != group.coordinate_count:
            raise StructuralError(
                f"expected {group.coordinate_count} rows, got {len(rows)}")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise StructuralError("ragged degree matrix rows")
        cols = list(zip(*rows))
        return cls(tuple(group.from_coordinates(c) for c in cols))

    @property
    def group(self) -> GradingGroup:
        return self.columns[0].group

    @property
    def var_count(self) -> int:
        return len(self.columns)

    def free_parts(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.free_part for c in self.columns)

    @cached_property
    def weight_cone(self) -> RationalCone:
        """The cone over the free parts q_i^0 in Q^k."""
        return cone_from_rays(self.free_parts(), self.group.free_rank)

    @cached_property
    def lattice_basis(self):
        """The first k distinct free parts, in combinations order, that
        form a lattice basis of Z^k, or None."""
        frees = tuple(dict.fromkeys(self.free_parts()))
        subset = linalg.unimodular_subset(frees, self.group.free_rank)
        return None if subset is None else tuple(frees[i] for i in subset)

    @cached_property
    def positive_functional(self):
        """A primitive integer phi with phi . q_i^0 >= 1 for all i, or
        None when some free part is zero or the weight cone holds a line.

        phi is the sum of the generators of the dual cone, its lineality
        pairs cancelling: a positive combination of all of them lies in
        the interior of the dual of a pointed cone, so it is positive on
        every nonzero integer point of the weight cone.
        """
        if not all(map(any, self.free_parts())):
            return None
        cone = self.weight_cone
        if not cone.is_pointed():
            return None
        return linalg.primitive([sum(col) for col in zip(*cone.forms)])

    def distinct_weights(self) -> tuple[GroupElement, ...]:
        """Distinct columns, ordered by first occurrence."""
        return tuple(dict.fromkeys(self.columns))

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*(c.coordinates for c in self.columns)))


def degree_of_exponent(Q: DegreeMatrix, exponents) -> GroupElement:
    """Sum of e_i * q_i over the columns q_i of Q."""
    exponents = tuple(exponents)
    if len(exponents) != Q.var_count:
        raise StructuralError(
            f"exponent vector has length {len(exponents)}, expected {Q.var_count}")
    total = Q.group.zero()
    for e, q in zip(exponents, Q.columns):
        if e:
            total = total + q.scale(e)
    return total


def subgroup_presentation(group: GradingGroup, elements):
    """The index of the subgroup the elements generate, and a section.

    Decided by one column Hermite form H = A V of the elements, as
    columns, next to the torsion relations: the index is the product of
    the first n diagonal entries of H, 0 when some row has no pivot.
    At index 1 H is [I | 0] and the section is an integer matrix S, one
    row per element, with e_c = sum_j S[j][c] * elements[j] for every
    unit vector e_c of K: the first n columns of the elements' rows of
    V.  A homomorphism sending elements[j] to h_j has the display
    matrix P S, P the images as columns.  Otherwise the section is
    None.
    """
    n = group.coordinate_count
    if n == 0:
        return 1, tuple(() for _ in elements)
    cols = [x.coordinates for x in elements]
    for j, a in enumerate(group.torsion_orders):
        cols.append(tuple(a * (i == group.free_rank + j) for i in range(n)))
    if len(cols) < n:
        return 0, None
    H, V = linalg.hermite(list(zip(*cols)))
    index = prod(H[i][i] for i in range(n))
    if index != 1:
        return index, None
    return 1, tuple(tuple(row[:n]) for row in V[:len(elements)])


def check_effective(Q: DegreeMatrix) -> bool:
    """Do the columns of Q generate K as a group?"""
    return subgroup_presentation(Q.group, Q.columns)[0] == 1


def check_pointed(Q: DegreeMatrix) -> bool:
    """Is the configuration of free parts pointed?

    True exactly when no nonnegative rational combination of the free
    parts q_i^0 vanishes except the trivial one: the weight cone is
    pointed and no free part is zero, in particular no column when the
    free rank is 0.  Certified by Q.positive_functional.
    """
    return Q.positive_functional is not None


class GroupAutomorphism:
    """An automorphism of the group by its display matrix [[A, 0], [C, D]]."""

    __slots__ = ("group", "matrix")

    def __init__(self, group: GradingGroup, matrix):
        k, n = group.free_rank, group.coordinate_count
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise StructuralError("display matrix has the wrong shape")
        cols = [group.from_coordinates(col) for col in zip(*matrix)]
        for j, a in enumerate(group.torsion_orders):
            if not cols[k + j].scale(a).is_zero():
                raise StructuralError(
                    f"torsion column {j + 1} does not define a homomorphism: "
                    f"{a} times it is not zero")
        if subgroup_presentation(group, cols)[0] != 1:
            raise StructuralError("the columns do not generate the group")
        self.group = group
        self.matrix = tuple(zip(*(c.coordinates for c in cols)))

    def __eq__(self, other):
        return self is other or (
            type(other) is GroupAutomorphism and self.matrix == other.matrix
            and self.group == other.group)

    def __hash__(self):
        return hash((self.group, self.matrix))

    @classmethod
    def identity(cls, group: GradingGroup) -> "GroupAutomorphism":
        n = group.coordinate_count
        return cls(group, tuple(tuple(int(i == j) for j in range(n))
                                for i in range(n)))

    @property
    def free_block(self) -> tuple[tuple[int, ...], ...]:
        """A, the action on the free quotient Z^k."""
        k = self.group.free_rank
        return tuple(row[:k] for row in self.matrix[:k])

    def apply(self, x: GroupElement) -> GroupElement:
        if x.group != self.group:
            raise StructuralError("element belongs to a different group")
        return self.group.from_coordinates(linalg.mat_vec(self.matrix, x.coordinates))

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """self after other: compose(self, other).apply(x) = self.apply(other.apply(x))."""
        if other.group != self.group:
            raise StructuralError("automorphisms of different groups")
        return GroupAutomorphism(self.group, linalg.mat_mul(self.matrix, other.matrix))

    def __str__(self):
        rows = self.matrix
        if not rows:
            return "[]"
        w = max(len(str(x)) for row in rows for x in row)
        return "\n".join("[" + "  ".join(str(x).rjust(w) for x in row) + "]"
                         for row in rows)
