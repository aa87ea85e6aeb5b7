"""Orbit cones of a weight configuration, the chamber of a class, and
the filter keeping only symmetries that fix that chamber.

Everything here lives in the free quotient: torsion dies in K tensor Q,
so cones see only the free parts of the weights.  A face family selects
which subsets of weights span orbit cones; the default family is every
nonempty subset, exact for the full coordinate space, while precomputed
families can be passed through for quotients whose relevant faces were
determined externally.  The chamber of a class in all-subsets mode needs
only the simplicial orbit cones (Carathéodory), so it is computed from
the subsets of at most k weights, one rref each deciding independence
and membership together, and one double description for their
intersection.  Every step runs serially in the calling process.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .algebraaut import StabilizerPresentation
from .cones import (RationalCone, cone_from_rays, equal_cones,
                    generators_from_halfspaces)
from .errors import GuardError, StructuralError, ValidationError
from .grading import DegreeMatrix, GroupElement

# Weights an all-subsets face family may range over; read when the
# guard runs.
SUBSET_BOUND = 20


def _face_family(Q: DegreeMatrix, faces, simplicial: bool = False):
    r = Q.var_count
    if faces is None:
        if r > SUBSET_BOUND:
            raise GuardError(
                f"all-subsets enumeration over {r} weights exceeds the bound "
                f"{SUBSET_BOUND} (gitfan.SUBSET_BOUND); supply explicit faces")
        top = Q.group.free_rank if simplicial else r
        return [F for size in range(1, top + 1)
                for F in combinations(range(r), size)]
    out = []
    seen = set()
    for face in faces:
        idx = tuple(int(i) for i in face)
        if not idx:
            raise StructuralError("empty face in the face list")
        if any(i < 1 or i > r for i in idx):
            raise StructuralError(
                f"face {idx} uses indices outside 1..{r}")
        key = tuple(sorted(set(idx)))
        if key not in seen:
            seen.add(key)
            out.append(tuple(i - 1 for i in key))
    return out


def _simplicial_cone_contains(vectors, w0) -> bool:
    """The vectors span a simplicial cone containing w0, read off one
    rref with the vectors as columns beside w0: every vector column is a
    pivot (they are independent), w0's column is not (the system is
    consistent), and the solution in the last column is nonnegative.  A
    lone zero vector spans the origin, which contains only w0 = 0."""
    R, pivots = linalg.rref([[*row, x] for row, x in zip(zip(*vectors), w0)])
    if pivots == list(range(len(vectors))):
        return all(row[-1] >= 0 for row in R)
    return len(vectors) == 1 and not any(vectors[0]) and not any(w0)


def orbit_cones(Q: DegreeMatrix, faces=None):
    """Cones spanned by the free parts of the weights along each face,
    geometrically deduplicated, first occurrence kept.

    Faces use 1-based weight indices, matching the printed variable
    numbering; None selects every nonempty subset.
    """
    family = _face_family(Q, faces)
    k = Q.group.free_rank
    cols = Q.columns
    out, seen = [], set()
    for F in family:
        cone = cone_from_rays([cols[i].free_part for i in F], k)
        if cone.forms not in seen:
            seen.add(cone.forms)
            out.append(cone)
    return tuple(out)


def git_cone(Q: DegreeMatrix, w: GroupElement, faces=None) -> RationalCone:
    """The chamber of w: intersection of the orbit cones containing the
    free part w0 of w.

    With user faces these are the orbit cones of the faces.  In
    all-subsets mode only simplicial orbit cones are tested: every orbit
    cone containing w0 contains one over linearly independent weights
    (or the origin, from a weight with zero free part) that contains w0
    too, so both families cut out the same chamber.  A lone containing
    cone is returned as it is, otherwise one double description over the
    union of their forms gives the chamber in canonical form.
    """
    if w.group != Q.group:
        raise StructuralError("w lives in a different grading group")
    w0 = w.free_part
    if not Q.weight_cone.contains(w0):
        raise ValidationError("w is not an effective class")
    k = Q.group.free_rank
    if faces is None:
        free = [c.free_part for c in Q.columns]
        spans = ([free[i] for i in F]
                 for F in _face_family(Q, None, simplicial=True))
        containing = [cone_from_rays(vectors, k) for vectors in spans
                      if _simplicial_cone_contains(vectors, w0)]
    else:
        containing = [cone for cone in orbit_cones(Q, faces)
                      if cone.contains(w0)]
    if len(containing) == 1:
        return containing[0]
    forms = [f for cone in containing for f in cone.forms]
    return cone_from_rays(generators_from_halfspaces(forms, k), k)


def map_cone(A, cone: RationalCone) -> RationalCone:
    """Image of a cone under the integer matrix A (rows), same ambient
    dimension."""
    return cone_from_rays([linalg.mat_vec(A, r) for r in cone.rays], cone.dim)


def chamber_fixers(stab: StabilizerPresentation, lam: RationalCone):
    """0-based indices of the triples whose free block maps the chamber
    lam onto itself."""
    return tuple(i for i, t in enumerate(stab.triples)
                 if equal_cones(map_cone(t.weight_aut.free_block, lam), lam))


def aut_xhat(stab: StabilizerPresentation, w: GroupElement, faces=None):
    """Filter the presentation down to the symmetries whose free block
    maps the chamber of w onto itself."""
    lam = git_cone(stab.ring.degrees, w, faces)
    return stab.restrict(chamber_fixers(stab, lam))


def render_cone(cone: RationalCone) -> str:
    """Primitive ray matrix, one ray per line."""
    if not cone.rays:
        return "origin (no rays)"
    return "\n".join("(" + ", ".join(str(x) for x in r) + ")"
                     for r in cone.rays)
