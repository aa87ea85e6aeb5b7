"""Orbit cones of a weight configuration, the chamber of a class, and
the filter keeping only symmetries that fix that chamber.

Everything here lives in the free quotient: torsion dies in K tensor Q,
so cones see only the free parts of the weights.  A face family selects
which subsets of weights span orbit cones; the default family is every
nonempty subset, exact for the full coordinate space, while precomputed
families can be passed through for quotients whose relevant faces were
determined externally.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

from . import linalg
from .algebraaut import StabilizerPresentation
from .cones import RationalCone, cone_from_rays, equal_cones, intersect_cones
from .errors import GuardError, StructuralError, ValidationError
from .grading import DegreeMatrix, GroupElement

SUBSET_BOUND = 20


def _face_family(Q: DegreeMatrix, faces, subset_bound: int):
    r = Q.var_count
    if faces is None:
        if r > subset_bound:
            raise GuardError(
                f"all-subsets enumeration over {r} weights exceeds the bound "
                f"{subset_bound}; raise subset_bound or supply explicit faces")
        out = []
        for size in range(1, r + 1):
            out.extend(combinations(range(r), size))
        return out
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


def _forms_of(cone: RationalCone):
    return cone.forms


def orbit_cones(Q: DegreeMatrix, faces=None, subset_bound: int = SUBSET_BOUND,
                jobs: int = 1):
    """Cones spanned by the free parts of the weights along each face,
    geometrically deduplicated, first occurrence kept.

    Faces use 1-based weight indices, matching the printed variable
    numbering; None selects every nonempty subset.
    """
    family = _face_family(Q, faces, subset_bound)
    k = Q.group.free_rank
    cols = Q.columns
    candidates = [cone_from_rays([cols[i].free_part for i in F], k)
                  for F in family]
    if jobs > 1 and len(candidates) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            keys = list(pool.map(_forms_of, candidates, chunksize=16))
    else:
        keys = [c.forms for c in candidates]
    out, seen = [], set()
    for cone, key in zip(candidates, keys):
        if key not in seen:
            seen.add(key)
            out.append(cone)
    return tuple(out)


def weight_cone(Q: DegreeMatrix) -> RationalCone:
    return cone_from_rays([c.free_part for c in Q.columns],
                          Q.group.free_rank)


def git_cone(Q: DegreeMatrix, w: GroupElement, faces=None,
             subset_bound: int = SUBSET_BOUND, jobs: int = 1) -> RationalCone:
    """The chamber of w: intersection of the orbit cones containing the
    free part of w."""
    if w.group != Q.group:
        raise StructuralError("w lives in a different grading group")
    w0 = w.free_part
    if not weight_cone(Q).contains(w0):
        raise ValidationError("w is not an effective class")
    k = Q.group.free_rank
    lam = None
    for cone in orbit_cones(Q, faces, subset_bound, jobs):
        if not cone.contains(w0):
            continue
        lam = cone if lam is None else intersect_cones(lam, cone)
    if lam is None:
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        lam = cone_from_rays(units + [tuple(-u for u in v) for v in units], k)
    return lam


def map_cone(A, cone: RationalCone) -> RationalCone:
    """Image of a cone under the integer matrix A (rows), same ambient
    dimension."""
    return cone_from_rays([linalg.mat_vec(A, r) for r in cone.rays], cone.dim)


def chamber_fixers(stab: StabilizerPresentation, lam: RationalCone):
    """0-based indices of the triples whose free block maps the chamber
    lam onto itself."""
    return tuple(i for i, t in enumerate(stab.triples)
                 if equal_cones(map_cone(t.weight_aut.free_block, lam), lam))


def aut_xhat(stab: StabilizerPresentation, w: GroupElement, faces=None,
             subset_bound: int = SUBSET_BOUND, jobs: int = 1):
    """Filter the presentation down to the symmetries whose free block
    maps the chamber of w onto itself."""
    lam = git_cone(stab.ring.degrees, w, faces, subset_bound, jobs)
    return stab.restrict(chamber_fixers(stab, lam))


def render_cone(cone: RationalCone) -> str:
    """Primitive ray matrix, one ray per line."""
    if not cone.rays:
        return "origin (no rays)"
    return "\n".join("(" + ", ".join(str(x) for x in r) + ")"
                     for r in cone.rays)
