"""Exact convex polyhedral cones over the rationals.

Both descriptions of a cone are kept exact: generating rays as primitive
integer vectors, and supporting halfspaces as primitive integer forms.
Conversion runs the double description method on the pointed part after
splitting off lineality, with the classical zero-set adjacency test, so
no numerical tolerance enters anywhere.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .errors import StructuralError
from .linalg import dot, primitive


def _dd_pointed(rows, d):
    """Rays of the pointed cone {y : row . y >= 0}, rows of full rank d.

    Incremental double description: start from the first d independent
    halfspaces, the pivot columns of one rref of the rows as columns,
    whose basic cone is spanned by the columns of the inverse matrix,
    then cut with the remaining halfspaces.  Adjacency of a positive and
    a negative ray is decided by the zero-set inclusion test.
    """
    chosen_idx = linalg.rref(list(zip(*rows)))[1]
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
    is sorted, so equal inputs give identical tuples.
    """
    if dim == 0:
        return ()
    rows = []
    for f in forms:
        p = primitive(f)
        if any(p) and p not in rows:
            rows.append(p)
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    if not rows:
        return tuple(sorted(units + [tuple(-x for x in u) for u in units]))
    lineality = [primitive(v) for v in linalg.nullspace(rows, ncols=dim)]
    R, pivots = linalg.rref(rows)
    d = len(pivots)
    B = [primitive(R[i]) for i in range(d)]
    projected = [tuple(dot(f, b) for b in B) for f in rows]
    rays_y = _dd_pointed(projected, d)
    out = set()
    for y in rays_y:
        out.add(primitive(tuple(sum(y[i] * B[i][t] for i in range(d))
                                for t in range(dim))))
    for l in lineality:
        out.add(l)
        out.add(tuple(-x for x in l))
    out.discard((0,) * dim)
    return tuple(sorted(out))


class RationalCone:
    """A cone given by primitive generating rays; halfspaces on demand.

    Structural equality compares the stored ray tuples.  Geometric
    equality of differently presented cones is equal_cones.
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


def dual_cone(cone: RationalCone) -> RationalCone:
    """The dual cone: the forms nonnegative on `cone`, as rays."""
    return cone_from_rays(cone.forms, cone.dim)


def intersect_cones(a: RationalCone, b: RationalCone) -> RationalCone:
    """The intersection of two cones in one dimension, from their forms."""
    if a.dim != b.dim:
        raise StructuralError("cones live in different dimensions")
    gens = generators_from_halfspaces(tuple(a.forms) + tuple(b.forms), a.dim)
    return cone_from_rays(gens, a.dim)


def equal_cones(a: RationalCone, b: RationalCone) -> bool:
    if a.dim != b.dim:
        return False
    return (all(b.contains(r) for r in a.rays)
            and all(a.contains(r) for r in b.rays))
