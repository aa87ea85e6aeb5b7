"""
Finite symmetries of a weight configuration
===========================================

"""

from gradedaut.grading import DegreeMatrix, GradingGroup
from gradedaut.weightsym import aut_gen_weights

# grading group Z^3 + Z/2 and eight weights, one repeated pair among them
K = GradingGroup(3, (2,))
Q = DegreeMatrix.from_rows(K, (
    (1, 1, 0, 0, -1, -1, 2, -2),
    (0, 1, 1, -1, -1, 0, 1, -1),
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 0, 1, 0, 1, 0, 1, 0),
))

auts = aut_gen_weights(Q)
print(f"{len(auts)} symmetries of the weight multiset")
for i, a in enumerate(auts, start=1):
    print(f"\nsymmetry {i}:")
    print(a)

# the composition table closes on the same four elements and every
# element squares to the identity, so the group is Klein four
index = {a.matrix: i + 1 for i, a in enumerate(auts)}
print("\ncomposition table (entries are list positions):")
for a in auts:
    row = [index[a.compose(b).matrix] for b in auts]
    print("  " + " ".join(str(x) for x in row))
