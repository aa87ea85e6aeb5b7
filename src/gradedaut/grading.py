"""Finitely generated abelian grading groups and their automorphisms.

A grading group K splits as Z^k + Z/a_1 + ... + Z/a_l.  Elements carry a
free part in Z^k and a torsion part with entry j reduced into [0, a_j).
Automorphisms of K are stored in lower block triangular form

    (x_free, x_tors)  |->  (A x_free, C x_free + D x_tors)

with A a k x k integer matrix of determinant +-1, C an l x k mixing
block read modulo the row's order, and D an l x l torsion block with
entry (i, j) modulo a_i.  This shape is forced: the torsion subgroup is
characteristic and Z^k is free, so nothing can map a free generator's
image outside the displayed triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from . import linalg
from .cones import RationalCone, cone_from_rays
from .errors import StructuralError


@dataclass(frozen=True)
class GradingGroup:
    """K = Z^free_rank + Z/a_1 + ... + Z/a_l."""

    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion_orders",
                           tuple(int(a) for a in self.torsion_orders))
        if self.free_rank < 0:
            raise StructuralError("free rank must be nonnegative")
        if any(a < 2 for a in self.torsion_orders):
            raise StructuralError("torsion orders must be integers >= 2")

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
        coords = tuple(int(c) for c in coords)
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


@dataclass(frozen=True)
class GroupElement:
    group: GradingGroup
    free_part: tuple[int, ...]
    torsion_part: tuple[int, ...] = ()

    def __post_init__(self):
        k, orders = self.group.free_rank, self.group.torsion_orders
        free = tuple(int(x) for x in self.free_part)
        tors = tuple(int(x) for x in self.torsion_part)
        if len(free) != k or len(tors) != len(orders):
            raise StructuralError("coordinate count does not match the group")
        object.__setattr__(self, "free_part", free)
        object.__setattr__(self, "torsion_part",
                           tuple(x % a for x, a in zip(tors, orders)))

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


@dataclass(frozen=True)
class DegreeMatrix:
    """The generator degrees q_1, ..., q_r as columns."""

    columns: tuple[GroupElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise StructuralError("a degree matrix needs at least one column")
        g = self.columns[0].group
        if any(c.group != g for c in self.columns):
            raise StructuralError("degree matrix columns lie in different groups")

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


def _reduce_rows(block, orders):
    return tuple(tuple(x % a for x in row) for row, a in zip(block, orders))


def torsion_block_bijective(D_block, orders) -> bool:
    """Does D define a bijection of Z/a_1 + ... + Z/a_l?

    An endomorphism of a finite group is bijective iff it is onto, that
    is iff the columns of D generate the group: subgroup index 1.
    """
    group = GradingGroup(0, orders)
    images = [group.element((), col) for col in zip(*D_block)]
    return subgroup_presentation(group, images)[0] == 1


def invert_torsion_block(D_block, orders):
    """An integer X with D X = identity modulo the row orders: the
    section of the columns of D from subgroup_presentation, reduced;
    only valid when the block is bijective.
    """
    group = GradingGroup(0, orders)
    images = [group.element((), col) for col in zip(*D_block)]
    index, section = subgroup_presentation(group, images)
    if index != 1:
        raise StructuralError("torsion block is not invertible")
    return _reduce_rows(section, orders)


@dataclass(frozen=True)
class GroupAutomorphism:
    group: GradingGroup
    free_block: tuple[tuple[int, ...], ...]
    mixing_block: tuple[tuple[int, ...], ...] = ()
    torsion_block: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        k = self.group.free_rank
        orders = self.group.torsion_orders
        l = len(orders)
        A = tuple(tuple(int(x) for x in row) for row in self.free_block)
        C = tuple(tuple(int(x) for x in row) for row in self.mixing_block)
        D = tuple(tuple(int(x) for x in row) for row in self.torsion_block)
        if len(A) != k or any(len(r) != k for r in A):
            raise StructuralError("free block must be k x k")
        if len(C) != l or any(len(r) != k for r in C):
            raise StructuralError("mixing block must be l x k")
        if len(D) != l or any(len(r) != l for r in D):
            raise StructuralError("torsion block must be l x l")
        if abs(linalg.det(A)) != 1:
            raise StructuralError("free block must have determinant +-1")
        for i in range(l):
            for j in range(l):
                if (orders[j] * D[i][j]) % orders[i] != 0:
                    raise StructuralError(
                        f"torsion block entry ({i + 1},{j + 1}) does not define "
                        f"a homomorphism: {orders[j]}*{D[i][j]} != 0 mod {orders[i]}")
        if not torsion_block_bijective(D, orders):
            raise StructuralError("torsion block is not bijective")
        object.__setattr__(self, "free_block", A)
        object.__setattr__(self, "mixing_block", _reduce_rows(C, orders))
        object.__setattr__(self, "torsion_block", _reduce_rows(D, orders))

    @classmethod
    def identity(cls, group: GradingGroup) -> "GroupAutomorphism":
        k, l = group.free_rank, group.torsion_rank
        eye = lambda n: tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls(group, eye(k), tuple((0,) * k for _ in range(l)), eye(l))

    def is_identity(self) -> bool:
        """True for the identity automorphism of the group."""
        return self == GroupAutomorphism.identity(self.group)

    def apply(self, x: GroupElement) -> GroupElement:
        if x.group != self.group:
            raise StructuralError("element belongs to a different group")
        free = linalg.mat_vec(self.free_block, x.free_part)
        tors = tuple(a + b for a, b in zip(linalg.mat_vec(self.mixing_block, x.free_part),
                                           linalg.mat_vec(self.torsion_block, x.torsion_part)))
        return GroupElement(self.group, free, tors)

    def compose(self, other: "GroupAutomorphism") -> "GroupAutomorphism":
        """self after other: compose(self, other).apply(x) = self.apply(other.apply(x))."""
        if other.group != self.group:
            raise StructuralError("automorphisms of different groups")
        A = linalg.mat_mul(self.free_block, other.free_block)
        CA = linalg.mat_mul(self.mixing_block, other.free_block)
        DC = linalg.mat_mul(self.torsion_block, other.mixing_block)
        C = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(CA, DC))
        D = linalg.mat_mul(self.torsion_block, other.torsion_block)
        return GroupAutomorphism(self.group, A, C, D)

    def inverse(self) -> "GroupAutomorphism":
        orders = self.group.torsion_orders
        Ainv = linalg.unimodular_inverse(self.free_block)
        Dinv = invert_torsion_block(self.torsion_block, orders)
        CA = linalg.mat_mul(linalg.mat_mul(Dinv, self.mixing_block), Ainv)
        Cinv = tuple(tuple(-x for x in row) for row in CA)
        return GroupAutomorphism(self.group, Ainv, Cinv, Dinv)

    def display_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The (k+l) x (k+l) integer matrix [[A, 0], [C, D]].

        The last l rows are read modulo the torsion orders, matching the
        printed convention for Q itself.
        """
        k, l = self.group.free_rank, self.group.torsion_rank
        top = tuple(row + (0,) * l for row in self.free_block)
        bottom = tuple(c_row + d_row for c_row, d_row
                       in zip(self.mixing_block, self.torsion_block))
        return top + bottom

    @classmethod
    def from_display(cls, group: GradingGroup, matrix) -> "GroupAutomorphism":
        rows = [tuple(int(x) for x in row) for row in matrix]
        k, l = group.free_rank, group.torsion_rank
        if len(rows) != k + l or any(len(r) != k + l for r in rows):
            raise StructuralError("display matrix has the wrong shape")
        if any(rows[i][k + j] != 0 for i in range(k) for j in range(l)):
            raise StructuralError("upper right block must vanish")
        A = tuple(r[:k] for r in rows[:k])
        C = tuple(r[:k] for r in rows[k:])
        D = tuple(r[k:] for r in rows[k:])
        return cls(group, A, C, D)

    def __str__(self):
        rows = self.display_matrix()
        if not rows:
            return "[]"
        w = max(len(str(x)) for row in rows for x in row)
        return "\n".join("[" + "  ".join(str(x).rjust(w) for x in row) + "]"
                         for row in rows)

