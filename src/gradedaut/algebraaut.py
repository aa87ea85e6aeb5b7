"""Cutting the automorphisms of the quotient algebra out of the
automorphisms of the polynomial ring.

A structured matrix descends to R = S/I exactly when it maps each graded
piece of I into I again.  Per weight symmetry B and per generator degree
u this is finitely many linear conditions: push an echelon basis of I_u
through the symbolic substitution `ringaut._image`, then require every
annihilator form of I at the target degree B(u) to kill the image.  The
conditions are polynomials in the matrix slots and join the earlier
equation lists.
"""

from __future__ import annotations

from .errors import StructuralError
from .grading import GroupElement
from .polynomials import (GradedPolyRing, Ideal, Polynomial,
                          annihilator_forms, degree_of, ideal_component_basis,
                          monomial_basis, polynomial_to_str)
from .ringaut import AutPresentation, AutTriple, _image, render_presentation
from .validation import Stages


def ideal_generator_degrees(ideal: Ideal) -> tuple[GroupElement, ...]:
    """Distinct degrees of the generators, by first occurrence."""
    return tuple(dict.fromkeys(degree_of(ideal.ring, g)
                               for g in ideal.generators))


class ComponentData:
    """One graded piece of the ambient ring together with the part of
    the ideal it contains."""

    def __init__(self, degree: GroupElement, monomials: tuple,
                 ideal_basis: tuple, forms: tuple):
        self.degree = degree
        self.monomials = monomials
        self.ideal_basis = ideal_basis
        self.forms = forms

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def component_data(ideal: Ideal, u: GroupElement) -> ComponentData:
    monomials = monomial_basis(ideal.ring, u)
    inside = ideal_component_basis(ideal, u, monomials)
    forms = annihilator_forms(inside, len(monomials))
    return ComponentData(u, tuple(monomials), tuple(tuple(v) for v in inside),
                         tuple(tuple(f) for f in forms))


def stabilizer_ideal_for_triple(presentation: AutPresentation, ideal: Ideal,
                                triple: AutTriple, components, degrees):
    """The linear conditions keeping the ideal invariant, as polynomials
    in the matrix slots.

    Scan order: generator degrees by first occurrence, then the echelon
    basis of I_u, then the annihilator forms at the target degree.
    Identical conditions are kept once.  `components` maps degrees to
    their `component_data` and gains those this triple reads first;
    `degrees` is ideal_generator_degrees(ideal).
    """
    basis = presentation.basis
    out = []
    seen = set()
    for u in degrees:
        if u not in components:
            components[u] = component_data(ideal, u)
        target_degree = triple.weight_aut.apply(u)
        if target_degree not in components:
            components[target_degree] = component_data(ideal, target_degree)
        src, tgt = components[u], components[target_degree]
        if src.dimension != tgt.dimension:
            raise StructuralError(
                f"internal error: components at {u} and {target_degree} have "
                f"dimensions {src.dimension} and {tgt.dimension}, a weight "
                "symmetry cannot change component dimensions")
        position = {m: i for i, m in enumerate(tgt.monomials)}
        for row in src.ideal_basis:
            image = _image(basis, triple.matrix.free_columns, (
                (c, [(i, e) for i, e in zip(basis.variable_rows, m) if e])
                for m, c in zip(src.monomials, row) if c))
            coeffs = [{}] * tgt.dimension
            for mono, ys in image.items():
                if mono not in position:
                    raise StructuralError(
                        "internal error: substitution left the target component")
                coeffs[position[mono]] = ys
            for form in tgt.forms:
                terms = {}
                for c, ys in zip(form, coeffs):
                    if c:
                        for mono, a in ys.items():
                            if c != 1:  # each form has its pivot entry 1
                                a *= c
                            terms[mono] = terms[mono] + a if mono in terms else a
                gen = Polynomial._of({m: a for m, a in terms.items() if a})
                if gen.is_zero() or gen in seen:
                    continue
                seen.add(gen)
                out.append(gen)
    return tuple(out)


class StabilizerTriple:
    """A weight symmetry with both equation layers: the polynomial-ring
    conditions and the ideal-stabilizing conditions."""

    def __init__(self, base: AutTriple, stabilizer_gens: tuple):
        self.base = base
        self.stabilizer_gens = stabilizer_gens

    @property
    def weight_aut(self):
        return self.base.weight_aut

    @property
    def ideal(self):
        return self.base.ideal + self.stabilizer_gens


class StabilizerPresentation:
    """Automorphisms of the graded quotient algebra as an affine variety:
    one equation list per admissible weight symmetry, all living in the
    common slot ring."""

    def __init__(self, ideal: Ideal, base: AutPresentation, triples: tuple,
                 degree_roster: tuple):
        self.ring = base.basis.ring
        self.ideal = ideal
        self.base = base
        self.triples = triples
        self.degree_roster = degree_roster

    @property
    def n(self) -> int:
        return self.base.n

    def slot_names(self):
        return self.base.slot_names()

    def restrict(self, indices) -> "StabilizerPresentation":
        """The presentation cut down to the triples at the given 0-based
        indices, in that order."""
        return StabilizerPresentation(self.ideal, self.base,
                                      tuple(self.triples[i] for i in indices),
                                      self.degree_roster)


def aut_grad_alg(ring: GradedPolyRing, ideal: Ideal) -> StabilizerPresentation:
    """Full pipeline for the quotient algebra R = S/I.

    Refuses any input failing a validation flag, in particular an ideal
    meeting a component S_q for a generator weight q; the message names
    the weight.  The ideal is gated before the weight search runs.
    """
    return Stages(ring, ideal).stabilizer


def stabilizer_presentation(base: AutPresentation,
                            ideal: Ideal) -> StabilizerPresentation:
    """The presentation of `aut_grad_alg` from the ring presentation
    `base` of the ideal's ring; nothing is validated again.  The
    generator degrees and the components they reach are computed once,
    for every triple."""
    degrees = ideal_generator_degrees(ideal)
    components = {}
    triples = tuple(StabilizerTriple(t, stabilizer_ideal_for_triple(
                        base, ideal, t, components, degrees))
                    for t in base.triples)
    return StabilizerPresentation(ideal, base, triples, degrees)


def render_stabilizer(pres: StabilizerPresentation, write) -> None:
    """Report for the quotient algebra, passed to `write` in pieces:
    the ambient presentation plus the stabilizing conditions per
    triple."""
    names = pres.slot_names()
    render_presentation(pres.base, write)
    write("\n\nideal generator degrees: "
          + ", ".join(str(u) for u in pres.degree_roster))
    for idx, t in enumerate(pres.triples, start=1):
        write(f"\nstabilizing conditions for triple {idx} "
              f"({len(t.stabilizer_gens)} generators):")
        for g in t.stabilizer_gens:
            write("\n  " + polynomial_to_str(g, names))
