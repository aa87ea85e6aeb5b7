"""Exact convex polyhedral cones over the rationals.

Both descriptions of a cone are kept exact: generating rays as primitive
integer vectors, and supporting halfspaces as primitive integer forms.
Conversion reads the lineality and a basis of the forms' row space off
one `integer_rref` of the forms, then runs the double description method
on the pointed part in that basis, with the classical zero-set adjacency
test, so no numerical tolerance enters anywhere.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from . import linalg
from .errors import StructuralError
from .linalg import dot, primitive


def _dd_pointed(rows, d):
    """Rays of the pointed cone {y : row . y >= 0}, rows of full rank d:
    the forms in coordinates of a basis of their row space.

    Incremental double description: start from the first d independent
    halfspaces, the pivot columns of one `integer_rref` of the rows as
    columns, whose basic cone is spanned by the columns of the inverse
    matrix, then cut with the remaining halfspaces.  Adjacency of a
    positive and a negative ray is decided by the zero-set inclusion
    test.
    """
    chosen_idx = linalg.integer_rref(list(zip(*rows)))[1]
    inv = linalg.inverse([rows[i] for i in chosen_idx])
    rays = [primitive(tuple(inv[i][j] for i in range(d))) for j in range(d)]
    processed = list(chosen_idx)
    for ia, a in enumerate(rows):
        if ia in chosen_idx:
            continue
        vals = {r: dot(a, r) for r in rays}
        if all(v >= 0 for v in vals.values()):
            processed.append(ia)
            continue
        zset = {r: frozenset(i for i in processed if dot(rows[i], r) == 0)
                for r in rays}
        keep = [r for r in rays if vals[r] >= 0]
        for rp in rays:
            if vals[rp] <= 0:
                continue
            for rn in rays:
                if vals[rn] >= 0:
                    continue
                common = zset[rp] & zset[rn]
                blocked = any(r3 is not rp and r3 is not rn
                              and common <= zset[r3] for r3 in rays)
                if blocked:
                    continue
                combo = primitive(tuple(vals[rp] * rn[t] - vals[rn] * rp[t]
                                        for t in range(d)))
                if combo not in keep:
                    keep.append(combo)
        processed.append(ia)
        rays = keep
    return rays


def generators_from_halfspaces(forms, dim: int):
    """Primitive generators of {x : f . x >= 0 for every f}.

    Lineality comes out as pairs of opposite vectors; together with the
    rays of the pointed part the result generates the cone.  The output
    is sorted, so equal inputs give identical tuples.  One `integer_rref`
    of the forms gives both parts: its pivot rows b, primitive with
    positive pivots b_c, are a basis of the row space, in which the
    pointed part is described, and the kernel has one vector per free
    column f, with s at f and -s b_f / b_c at each c, s the lcm of the
    pivots.
    """
    rows = list(dict.fromkeys(p for p in map(primitive, forms) if any(p)))
    R, pivots = linalg.integer_rref(rows)
    B = [primitive(row if row[c] > 0 else [-x for x in row])
         for row, c in zip(R, pivots)]
    projected = [tuple(dot(f, b) for b in B) for f in rows]
    columns = tuple(zip(*B))
    out = {primitive(linalg.mat_vec(columns, y))
           for y in _dd_pointed(projected, len(B))}
    s = lcm(*(b[c] for b, c in zip(B, pivots)))
    for f in set(range(dim)).difference(pivots):
        v = [s * (t == f) for t in range(dim)]
        for b, c in zip(B, pivots):
            v[c] = -b[f] * (s // b[c])
        out.update((primitive(v), primitive([-x for x in v])))
    out.discard((0,) * dim)
    return tuple(sorted(out))


class RationalCone:
    """A cone given by primitive generating rays; halfspaces on demand.

    Equality compares the stored ray tuples.
    """

    def __init__(self, dim: int, rays: tuple):
        self.dim = dim
        self.rays = rays

    def __eq__(self, other):
        return self is other or (type(other) is RationalCone
                                 and self.dim == other.dim
                                 and self.rays == other.rays)

    @cached_property
    def forms(self):
        """Primitive inequalities cutting the cone out: generators of
        the dual cone."""
        return generators_from_halfspaces(self.rays, self.dim)

    def contains(self, x) -> bool:
        if len(x) != self.dim:
            raise StructuralError("point has the wrong dimension")
        return all(dot(f, x) >= 0 for f in self.forms)

    def is_pointed(self) -> bool:
        """True when the cone contains no line: its forms have full rank."""
        return linalg.rank([list(f) for f in self.forms]) == self.dim


def cone_from_rays(vectors, dim: int) -> RationalCone:
    rays = set()
    for v in vectors:
        if len(v) != dim:
            raise StructuralError("ray has the wrong dimension")
        p = primitive(v)
        if any(p):
            rays.add(p)
    return RationalCone(dim, tuple(sorted(rays)))
