# Pick a chamber in the cone of effective classes and keep only the
# symmetries that fix it.  Ends by printing the computer algebra script
# for the surviving equations.

from pathlib import Path

from gradedaut.algebraaut import aut_grad_alg
from gradedaut.gitfan import chamber_fixers, git_cone, orbit_cones, render_cone
from gradedaut.inout import read_input
from gradedaut.report import FilterResult, ResultBundle, export_cas_script
from gradedaut.validation import validate_presentation

problem = read_input(Path(__file__).with_name("quadric8.toml"))
ring = problem.ring()
ideal = problem.ideal(ring)
w = problem.group().from_coordinates(problem.w)

cones = orbit_cones(ring.degrees)
print(f"{len(cones)} distinct orbit cones over all weight subsets")

lam = git_cone(ring.degrees, w)
print(f"\nchamber of w = {w}, rays:")
print(render_cone(lam))

stab = aut_grad_alg(ring, ideal)
retained = chamber_fixers(stab, lam)
print(f"\n{len(retained)} of {len(stab.triples)} "
      f"weight symmetries fix the chamber")
for i in retained:
    print(f"  triple {i + 1}: "
          + str(stab.triples[i].weight_aut.matrix))

# bundle everything and emit the script; the filter keeps only the
# retained equation lists, the comments keep the original numbering
report = validate_presentation(ring, ideal)
displays = tuple(t.weight_aut.matrix for t in stab.triples)
bundle = ResultBundle(problem, report, displays, stab.base, stab,
                      FilterResult(w.coordinates, retained, lam.rays))
print("\n" + export_cas_script(bundle))
