"""Orbit cones of a weight configuration, the chamber of a class, and
the filter keeping only symmetries that fix that chamber.

Everything here lives in the free quotient: torsion dies in K tensor Q,
so cones see only the free parts of the weights.  In user-faces mode the
orbit cones are those of the given faces, for quotients whose relevant
faces were determined externally.  The chamber of a class in all-subsets
mode needs only the simplicial orbit cones (Carathéodory), so it is
computed from the subsets of at most k weights, one integer elimination
each deciding independence and membership and giving the cone's facet
forms.  In both modes one double description of the containing cones'
forms gives the chamber as its primitive extreme rays.  Every step runs
serially in the calling process.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import index

from . import linalg
from .algebraaut import StabilizerPresentation
from .cones import RationalCone, cone_from_rays, generators_from_halfspaces
from .errors import GuardError, StructuralError, ValidationError
from .grading import DegreeMatrix, GroupElement

# Candidate faces the all-subsets chamber may test, the subsets of at
# most k weights: 2^20 - 1, every nonempty subset of 20 weights when
# k >= 20.  Read when the guard runs.
FACE_BOUND = 2 ** 20 - 1


def _face_family(Q: DegreeMatrix):
    """The all-subsets chamber's candidates: every subset of at most k
    weights, k the free rank, as 0-based index tuples."""
    r = Q.var_count
    top = min(Q.group.free_rank, r)
    count = sum(comb(r, size) for size in range(1, top + 1))
    if count > FACE_BOUND:
        raise GuardError(
            f"all-subsets family over {r} weights has {count} faces, "
            f"above the bound {FACE_BOUND} (gitfan.FACE_BOUND); supply "
            "explicit faces")
    return [F for size in range(1, top + 1)
            for F in combinations(range(r), size)]


def _simplicial_forms(vectors, w0):
    """Facet forms of the cone the vectors span, when they are linearly
    independent and it contains w0; None otherwise.

    All is read off one `integer_rref` of [V | w0 | I_k], V the m
    vectors as columns.  Row r is u_r [V | w0 | I_k] for the identity
    part u_r, which is primitive as the row is, and the rows u_r form a
    basis.  The vectors are independent when the first m pivots are
    0..m-1; then u_r V = d_r e_r for r < m, with d_r the pivot, and u_r
    annihilates V for r >= m.  w0 lies in their span when its column is
    not a pivot, with coordinates u_r . w0 / d_r, so in their cone when
    each u_r . w0 for r < m is 0 or of the sign of d_r.  The dual cone
    is then generated by sign(d_r) u_r for r < m and by +-u_r for
    r >= m.  A lone zero vector spans the origin: it is read as m = 0,
    which contains only w0 = 0 and has every +-u_r as forms.
    """
    if len(vectors) == 1 and not any(vectors[0]):
        vectors = ()
    m, k = len(vectors), len(w0)
    R, pivots = linalg.integer_rref(
        [[*(v[i] for v in vectors), w0[i], *(int(i == j) for j in range(k))]
         for i in range(k)])
    if pivots[:m] != list(range(m)) or m in pivots:
        return None
    forms = []
    for r, row in enumerate(R):
        u = tuple(row[m + 1:])
        if r >= m:
            forms += (u, tuple(-x for x in u))
        elif row[m] and (row[m] > 0) != (row[r] > 0):
            return None
        else:
            forms.append(u if row[r] > 0 else tuple(-x for x in u))
    return forms


def orbit_cones(Q: DegreeMatrix, faces):
    """Cones spanned by the free parts of the weights along each face,
    geometrically deduplicated, first occurrence kept, so a face repeated
    in any order counts once.  Faces use 1-based weight indices, matching
    the printed variable numbering."""
    r, k, cols = Q.var_count, Q.group.free_rank, Q.columns
    out, seen = [], set()
    for face in faces:
        idx = tuple(map(index, face))
        if not idx:
            raise StructuralError("empty face in the face list")
        if any(i < 1 or i > r for i in idx):
            raise StructuralError(f"face {idx} uses indices outside 1..{r}")
        cone = cone_from_rays([cols[i - 1].free_part for i in idx], k)
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
    too, so both families cut out the same chamber, and the test of each
    gives the facet forms of a containing one.  In both modes one double
    description of the containing cones' forms gives the chamber as its
    primitive extreme rays, whatever the order of the faces.
    """
    if w.group != Q.group:
        raise StructuralError("w lives in a different grading group")
    w0 = w.free_part
    if not Q.weight_cone.contains(w0):
        raise ValidationError("w is not an effective class")
    k = Q.group.free_rank
    forms = []
    if faces is None:
        free = [c.free_part for c in Q.columns]
        for F in _face_family(Q):
            forms += _simplicial_forms([free[i] for i in F], w0) or ()
    else:
        for cone in orbit_cones(Q, faces):
            if cone.contains(w0):
                forms += cone.forms
    return RationalCone(k, generators_from_halfspaces(forms, k))


def chamber_fixers(stab: StabilizerPresentation, lam: RationalCone):
    """0-based indices of the triples whose free block A maps the chamber
    lam onto itself.  Into itself is enough, as A has finite order n and
    lam = A^n(lam) lies in A(lam): lam's forms test the image A r of
    each ray r, a vector whose scale does not matter to membership."""
    return tuple(i for i, A in enumerate(t.weight_aut.free_block
                                         for t in stab.triples)
                 if all(lam.contains(linalg.mat_vec(A, r)) for r in lam.rays))


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
