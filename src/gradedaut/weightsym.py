"""The finite symmetry group of the generator weight configuration.

An automorphism of K = Z^k + Z/a_1 + ... + Z/a_l is fixed by where it
sends a generating set of K.  The set is drawn greedily: a lattice basis
among the free parts of the weights, then further weights, then torsion
unit vectors, each kept while it lowers the index of the subgroup
generated so far.  The search places the images of the basis among the
weights one column at a time.  A symmetry permutes the weights, so its
free block permutes the free parts with their multiplicities: once the
first j images are placed, every free part whose coordinates in the
basis use only the first j basis vectors must land on a free part of
the same multiplicity, and a partial placement is dropped at the first
one that does not.  Each full placement with |det| = 1 forces the free
part of every later generator's image, which leaves the weights of that
free part (or every torsion element, for a unit vector) as its
candidates.  Every tuple of distinct images gives one matrix through
the section of the generating set, kept when it is an automorphism
permuting the weights.  The predicted number of tuples is refused above
a bound before anything is placed.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import perm, prod

from . import linalg
from .errors import GuardError, StructuralError, ValidationError
from .grading import DegreeMatrix, GroupAutomorphism, subgroup_presentation

# Generator image tuples the weight-symmetry search may try; read when
# the guard runs.
PLACEMENT_BOUND = 10 ** 6


def _generating_set(group, weights, basis):
    """Generators of K: the basis, then weights, then torsion unit
    vectors, each kept while it lowers the subgroup index; returned with
    the section of their presentation."""
    n, k = group.coordinate_count, group.free_rank
    unit_vectors = [group.from_coordinates([int(i == k + j) for i in range(n)])
                    for j in range(group.torsion_rank)]
    gens = list(basis)
    index, section = subgroup_presentation(group, gens)
    for x in [w for w in weights if w not in basis] + unit_vectors:
        if index == 1:
            break
        trial = subgroup_presentation(group, gens + [x])
        if trial[0] < index:
            gens.append(x)
            index, section = trial
    return tuple(gens), section


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
    listed in canonical order.  Each call searches, refusing first
    when the predicted count exceeds `PLACEMENT_BOUND`.
    """
    group = Q.group
    k = group.free_rank
    orders = group.torsion_orders
    weights = Q.distinct_weights()
    weight_set = set(weights)
    frees = [w.free_part for w in weights]
    multiplicity = Counter(frees)

    if Q.lattice_basis is None:
        raise ValidationError(
            "the free parts of the weights contain no lattice basis; "
            "validate_presentation reports this precondition")
    # each basis free part is carried by its first distinct weight
    basis = [next(w for w in weights if w.free_part == v)
             for v in Q.lattice_basis]
    gens, section = _generating_set(group, weights, basis)
    # the generators that are not weights are torsion unit vectors, whose
    # images range over the whole torsion subgroup
    units = sum(g not in weight_set for g in gens)
    count = (perm(len(weights), k)
             * max(multiplicity.values()) ** (len(gens) - k - units)
             * prod(orders) ** units)
    if count > PLACEMENT_BOUND:
        raise GuardError(
            f"weight symmetry search would try {count} generator images, "
            f"above the bound {PLACEMENT_BOUND} (weightsym.PLACEMENT_BOUND)")
    torsion = [group.element((0,) * k, t)
               for t in product(*(range(a) for a in orders))] if units else []

    basis_inv = linalg.unimodular_inverse(
        list(zip(*(g.free_part for g in gens[:k]))))
    found = set()
    for placed in _placements(frees, multiplicity, basis_inv):
        A = linalg.mat_mul(tuple(zip(*(frees[i] for i in placed))), basis_inv)
        if abs(linalg.det(A)) != 1:
            continue
        head = tuple(weights[i] for i in placed)
        choices = []
        for g in gens[k:]:
            free = linalg.mat_vec(A, g.free_part)
            pool = weights if g in weight_set else torsion
            choices.append([x for x in pool if x.free_part == free])
        for rest in product(*choices):
            images = head + rest
            if len(set(images)) < len(images):
                continue
            matrix = linalg.mat_mul(tuple(zip(*(x.coordinates for x in images))),
                                    section)
            try:
                cand = GroupAutomorphism.from_display(group, matrix)
            except StructuralError:
                continue
            if all(cand.apply(w) in weight_set for w in weights):
                found.add(cand)
    return _canonical_sort(group, found)


def _placements(frees, multiplicity, basis_inv):
    """Index tuples of distinct basis images among the free parts, one
    column at a time: once column j is placed, every free part whose
    basis coordinates end at index j must land on a free part of the
    same multiplicity."""
    # checks[j]: (coordinates up to j, multiplicity); the zero free part
    # is fixed by every placement
    checks = [[] for _ in basis_inv]
    for v, m in multiplicity.items():
        c = linalg.mat_vec(basis_inv, v)
        last = max((i for i, x in enumerate(c) if x), default=None)
        if last is not None:
            checks[last].append((c[:last + 1], m))

    def extend(placed):
        j = len(placed)
        if j == len(checks):
            yield placed
            return
        for i in range(len(frees)):
            if i in placed:
                continue
            trial = placed + (i,)
            rows = tuple(zip(*(frees[t] for t in trial)))
            if all(multiplicity.get(linalg.mat_vec(rows, c)) == m
                   for c, m in checks[j]):
                yield from extend(trial)
    return extend(())


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
