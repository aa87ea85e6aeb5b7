"""The finite symmetry group of the generator weight configuration.

A grading-group automorphism that permutes the set of generator weights
is determined on the free side by where it sends one lattice basis drawn
from the free parts.  The search below fixes such a basis once, runs
through the injective placements of it inside the weight set, solves for
the free block, and enumerates the finitely many torsion blocks, behind
a guard on their predicted number; every candidate is then screened
against the full weight set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import prod

from . import linalg
from .errors import GuardError, StructuralError, ValidationError
from .grading import DegreeMatrix, GroupAutomorphism
from .polynomials import GradedPolyRing, component_dimension

# Torsion blocks the weight-symmetry search may try, one Smith normal
# form each: (Z/3)^3 with its 3^9 = 19683 candidates stays below.
TORSION_BLOCK_BOUND = 20000


@dataclass(frozen=True)
class WeightSet:
    """Distinct generator weights with their variable occurrences."""

    weights: tuple
    occurrences: tuple[tuple[int, ...], ...]  # 1-based variable indices

    @classmethod
    def from_degree_matrix(cls, Q: DegreeMatrix) -> "WeightSet":
        weights = []
        occ = []
        for idx, q in enumerate(Q.columns, start=1):
            if q in weights:
                occ[weights.index(q)].append(idx)
            else:
                weights.append(q)
                occ.append([idx])
        return cls(tuple(weights), tuple(tuple(o) for o in occ))

    @property
    def size(self) -> int:
        return len(self.weights)


def _torsion_block_candidates(group):
    """All well defined bijective torsion blocks, in lexicographic order.

    Refuses before enumerating when the prod(a_i^l) candidates exceed
    TORSION_BLOCK_BOUND.
    """
    orders = group.torsion_orders
    l = len(orders)
    if l == 0:
        return [()]
    count = prod(orders) ** l
    if count > TORSION_BLOCK_BOUND:
        raise GuardError(
            f"weight symmetry search would try {count} torsion blocks, "
            f"above the bound {TORSION_BLOCK_BOUND}")
    from .grading import torsion_block_bijective
    out = []
    for flat in product(*(range(orders[i]) for i in range(l) for _ in range(l))):
        D = tuple(tuple(flat[i * l + j] for j in range(l)) for i in range(l))
        if any((orders[j] * D[i][j]) % orders[i] != 0 for i in range(l) for j in range(l)):
            continue
        if torsion_block_bijective(D, orders):
            out.append(D)
    return out


def _canonical_sort(group, auts):
    """Identity first, the rest by descending flattened display matrix."""
    ident = GroupAutomorphism.identity(group)
    rest = sorted({a for a in auts if a != ident},
                  key=lambda a: tuple(x for row in a.display_matrix() for x in row),
                  reverse=True)
    return (ident, *rest) if ident in auts else tuple(rest)


def aut_gen_weights(Q: DegreeMatrix) -> tuple[GroupAutomorphism, ...]:
    """All grading-group automorphisms permuting the weight set.

    The result always forms a finite group containing the identity,
    listed in canonical order.  The search runs once per degree matrix;
    later calls with an equal matrix return the same tuple.
    """
    return _weight_symmetries(Q)


@lru_cache(maxsize=32)
def _weight_symmetries(Q: DegreeMatrix) -> tuple[GroupAutomorphism, ...]:
    group = Q.group
    k = group.free_rank
    orders = group.torsion_orders
    weights = WeightSet.from_degree_matrix(Q).weights
    s = len(weights)
    weight_set = set(weights)

    basis_idx = linalg.unimodular_subset([w.free_part for w in weights], k)
    if basis_idx is None:
        raise ValidationError(
            "the free parts of the weights contain no lattice basis; "
            "validate_presentation reports this precondition")

    B0_inv_rows = linalg.unimodular_inverse(
        list(zip(*(weights[i].free_part for i in basis_idx))))
    basis_tors = [weights[i].torsion_part for i in basis_idx]

    d_candidates = _torsion_block_candidates(group)
    found = set()
    for images in permutations(range(s), k):
        img_free_cols = [weights[i].free_part for i in images]
        M_rows = tuple(tuple(col[row] for col in img_free_cols) for row in range(k))
        A = linalg.mat_mul(M_rows, B0_inv_rows)
        if abs(linalg.det(A)) != 1:
            continue
        img_tors_cols = [weights[i].torsion_part for i in images]
        for D in d_candidates:
            # mixing block from C * B0 = image torsion - D * basis torsion
            y_cols = []
            for t in range(k):
                dt = linalg.mat_vec(D, basis_tors[t])
                y_cols.append(tuple(a - b for a, b in zip(img_tors_cols[t], dt)))
            y_rows = tuple(tuple(col[row] for col in y_cols)
                           for row in range(len(orders)))
            C = linalg.mat_mul(y_rows, B0_inv_rows)
            try:
                cand = GroupAutomorphism(group, A, C, D)
            except StructuralError:
                continue
            if all(cand.apply(w) in weight_set for w in weights):
                found.add(cand)
    return _canonical_sort(group, found)


def block_permutation(B: GroupAutomorphism, weights, dims):
    """Where B sends the weight blocks: block i lands in block
    result[i], 0-based.  None when B pairs components of different
    dimensions; StructuralError when B does not permute the weights."""
    out = []
    for i, w in enumerate(weights):
        img = B.apply(w)
        if img not in weights:
            raise StructuralError("automorphism does not permute the weight set")
        j = weights.index(img)
        if dims[i] != dims[j]:
            return None
        out.append(j)
    return tuple(out)


@dataclass(frozen=True)
class AdmissibleAut:
    """A weight symmetry together with its induced block permutation."""

    aut: GroupAutomorphism
    block_map: tuple[int, ...]  # 0-based: block i lands in block block_map[i]


def admissible_automorphisms(auts, ring: GradedPolyRing) -> tuple[AdmissibleAut, ...]:
    """The subset whose induced block permutation matches component
    dimensions; each survivor is returned with that permutation.

    This is deliberately the coarse dimension filter.  The finer product
    compatibility is enforced later by the multiplicativity equations.
    """
    weights = ring.degrees.distinct_weights()
    dims = [component_dimension(ring, w) for w in weights]
    out = []
    for B in auts:
        block_map = block_permutation(B, weights, dims)
        if block_map is not None:
            out.append(AdmissibleAut(B, block_map))
    return tuple(out)
