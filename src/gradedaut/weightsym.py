"""The finite symmetry group of the generator weight configuration.

An automorphism of K = Z^k + Z/a_1 + ... + Z/a_l is fixed by where it
sends a generating set of K.  The set is drawn greedily: a lattice basis
among the free parts of the weights, then further weights, then torsion
unit vectors, each kept while it lowers the index of the subgroup
generated so far.  A symmetry's free block A permutes the free parts
with their multiplicities, so it keeps their Gram form G = sum m v v^T
and the integer colour c(u, v) = u^T M v of every pair, M the
primitive integer multiple of G^-1.  M is a positive multiple of
adj(G), which colours the pairs in Bremner, Dutour Sikirić, Pasechnik,
Rehn and Schürmann (2014), so both match the same pairs.  The basis
images are placed one basis vector per level, and a weight may stand
in for b_j only when its colour and multiplicity are b_j's and its
colour against each image placed so far is b_j's against that image's
basis vector.  Matching colours give A^T M A = M, so det A = +-1; a
full placement is kept when A permutes the free parts with their
multiplicities.  A forces the free part of every later
generator's image, which leaves the weights of that free part (or every
torsion element, for a unit vector) as its candidates.  Every tuple of
distinct images gives one matrix through the section of the generating
set, kept when it is an automorphism permuting the weights.  Each
level, and then the image tuples, are counted and refused above a
bound before they are tried.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod

from . import linalg
from .errors import GuardError, StructuralError, ValidationError
from .grading import DegreeMatrix, GroupAutomorphism, subgroup_presentation

# Placements or generator image tuples the weight-symmetry search may
# try at one step; read when the guard runs.
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
                  key=lambda a: tuple(x for row in a.matrix for x in row),
                  reverse=True)
    return (ident, *rest) if ident in auts else tuple(rest)


def _guard(count, what):
    if count > PLACEMENT_BOUND:
        raise GuardError(
            f"weight symmetry search would try {count} {what}, "
            f"above the bound {PLACEMENT_BOUND} (weightsym.PLACEMENT_BOUND)")


def aut_gen_weights(Q: DegreeMatrix) -> tuple[GroupAutomorphism, ...]:
    """All grading-group automorphisms permuting the weight set.

    The result always forms a finite group containing the identity,
    listed in canonical order.  Each call searches, refusing first
    when a level's predicted count exceeds `PLACEMENT_BOUND`.
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
    basis = [frees.index(v) for v in Q.lattice_basis]
    gens, section = _generating_set(group, weights,
                                    [weights[i] for i in basis])
    # the generators that are not weights are torsion unit vectors, last
    # in gens, whose images range over the whole torsion subgroup
    units = sum(g not in weight_set for g in gens)
    # G is positive definite, since the free parts contain a lattice
    # basis, so M, the primitive integer multiple of G^-1, is a positive
    # multiple of adj(G)
    gram = linalg.mat_mul(tuple(zip(*frees)), frees)
    M = linalg.primitive([x for row in linalg.inverse(gram) for x in row])
    M = [M[i * k:i * k + k] for i in range(k)]
    colour = [[linalg.dot(u, row) for u in frees]
              for row in linalg.mat_mul(frees, M)]
    vertex = [(colour[i][i], multiplicity[v]) for i, v in enumerate(frees)]

    # the lattice basis has |det| = 1, so its inverse is integral
    basis_inv = linalg.inverse(list(zip(*(g.free_part for g in gens[:k]))))
    if any(x.denominator != 1 for row in basis_inv for x in row):
        raise StructuralError("the lattice basis is not unimodular")
    basis_inv = [[x.numerator for x in row] for row in basis_inv]
    tries = []
    for placed in _placements(colour, vertex, basis):
        A = linalg.mat_mul(tuple(zip(*(frees[i] for i in placed))), basis_inv)
        if Counter(linalg.mat_vec(A, v) for v in frees) != multiplicity:
            continue
        tries.append((tuple(weights[i] for i in placed),
                      [[x for x in weights
                        if x.free_part == linalg.mat_vec(A, g.free_part)]
                       for g in gens[k:len(gens) - units]]))
    _guard(sum(prod(map(len, choices)) for _, choices in tries)
           * prod(orders) ** units, "generator images")
    torsion = [group.element((0,) * k, t)
               for t in product(*(range(a) for a in orders))] if units else []

    found = set()
    for head, choices in tries:
        for rest in product(*choices, *[torsion] * units):
            images = head + rest
            if len(set(images)) < len(images):
                continue
            matrix = linalg.mat_mul(tuple(zip(*(x.coordinates for x in images))),
                                    section)
            try:
                cand = GroupAutomorphism(group, matrix)
            except StructuralError:
                continue
            # without torsion the weights are their free parts, which
            # the Counter check above shows that A permutes
            if not orders or all(cand.apply(w) in weight_set
                                 for w in weights):
                found.add(cand)
    return _canonical_sort(group, found)


def _placements(colour, vertex, basis):
    """Index tuples of distinct basis images whose colours match the
    basis, one level per basis vector b_j; each level is guarded first
    on the nodes built so far times the size of b_j's colour class."""
    nodes = [()]
    for j, b in enumerate(basis):
        candidates = [i for i, c in enumerate(vertex) if c == vertex[b]]
        _guard(len(nodes) * len(candidates),
               f"placements of basis vector {j + 1}")
        nodes = [placed + (i,) for placed in nodes for i in candidates
                 if i not in placed
                 and all(colour[i][t] == colour[b][s]
                         for t, s in zip(placed, basis))]
    return nodes


def block_permutation(B: GroupAutomorphism, weights, dims):
    """Where B sends the weight blocks: block i lands in block
    result[i], 0-based.  None when B pairs components of different
    dimensions; StructuralError when B does not permute the weights."""
    index = {w: j for j, w in enumerate(weights)}
    out = []
    for i, w in enumerate(weights):
        j = index.get(B.apply(w))
        if j is None:
            raise StructuralError("automorphism does not permute the weight set")
        if dims[i] != dims[j]:
            return None
        out.append(j)
    return tuple(out)
