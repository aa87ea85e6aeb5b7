# Presentation of the automorphisms of a graded polynomial ring as an
# affine variety.  The input file next to this script carries the full
# configuration: eight variables over Z^3 + Z/2 and one quadric.

from pathlib import Path

from gradedaut.inout import read_input
from gradedaut.polynomials import polynomial_to_str
from gradedaut.ringaut import aut_ks

problem = read_input(Path(__file__).with_name("quadric8.toml"))
ring = problem.ring()

pres = aut_ks(ring)
basis = pres.basis
print(f"action basis size n = {basis.n}, "
      f"slot ring has {basis.n ** 2 + 1} variables")
print("block weights and sizes:")
for w, block in zip(basis.weights, basis.blocks):
    print(f"  {w}: dimension {len(block)}")
print(f"witness degree per triple: {pres.witness_degree()}")

print(f"\n{len(pres.triples)} triples, one per admissible weight symmetry")
for idx, t in enumerate(pres.triples, start=1):
    slots = sum(1 for row in t.matrix.pattern for v in row if v)
    print(f"  triple {idx}: {len(t.ideal)} equations, {slots} free slots")

# drill into the second triple: its symmetry swaps four of the weights
# in pairs, so the matrix is a permutation pattern
t2 = pres.triples[1]
print("\ntriple 2 weight symmetry:")
print(t2.weight_aut)
print("structured matrix:")
print(t2.matrix)

# the last equation forces the pattern determinant to be invertible
names = pres.slot_names()
print("\ninvertibility witness of triple 2:")
print("  " + polynomial_to_str(t2.ideal[-1], names))
