"""Standing-assumption checks for a graded presentation R = S/I.

Every algorithm downstream assumes an effective pointed grading, a
lattice basis among the free parts of the generator weights, homogeneous
relations inside the square of the irrelevant ideal, and trivial ideal
components in the generator degrees.  The report collects all six flags
in one pass instead of failing at the first, so a bad input surfaces
every problem at once.

`Stages` is the one pipeline behind the command line, the report reader
and the entry points `aut_ks` and `aut_grad_alg`: it validates once and
runs each later stage at most once, behind the report's gates.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ValidationError
from .grading import check_effective, check_pointed
from .polynomials import (GradedPolyRing, Ideal, distinct_term_degrees,
                          ideal_component_basis, is_homogeneous)


class ValidationReport:
    """The six standing-assumption flags and the message of each failure."""

    # each flag's attribute and the label `check` prints, in the
    # report's order
    FLAGS = (("effective", "effective"),
             ("pointed", "pointed"),
             ("generators_homogeneous", "generators homogeneous"),
             ("contained_in_square", "relations in square of maximal ideal"),
             ("variable_components_trivial",
              "trivial components in generator degrees"),
             ("has_lattice_basis", "lattice basis among free parts"))

    def __init__(self, effective: bool, pointed: bool,
                 generators_homogeneous: bool, contained_in_square: bool,
                 variable_components_trivial: bool, has_lattice_basis: bool,
                 messages: tuple[str, ...] = ()):
        self.effective = effective
        self.pointed = pointed
        self.generators_homogeneous = generators_homogeneous
        self.contained_in_square = contained_in_square
        self.variable_components_trivial = variable_components_trivial
        self.has_lattice_basis = has_lattice_basis
        self.messages = messages

    def as_dict(self) -> dict:
        """The flags and messages by name, in the report's order."""
        return {**{attr: getattr(self, attr) for attr, _ in self.FLAGS},
                "messages": self.messages}

    def flag_items(self):
        """(label, flag) for each flag, in the report's order."""
        return tuple((label, getattr(self, attr))
                     for attr, label in self.FLAGS)

    @property
    def grading_ok(self) -> bool:
        """The ideal-free flags used by the polynomial-ring stage."""
        return self.effective and self.pointed and self.has_lattice_basis

    @property
    def ok(self) -> bool:
        """Do all six flags hold?"""
        return all(getattr(self, attr) for attr, _ in self.FLAGS)

    def require(self, verdict: bool) -> None:
        """Raise every message unless `verdict` (`grading_ok` or `ok`) holds."""
        if not verdict:
            raise ValidationError("; ".join(self.messages))


def validate_presentation(ring: GradedPolyRing, ideal: Ideal | None = None) -> ValidationReport:
    """All standing assumptions at once; no exception on failure."""
    messages = []
    effective = check_effective(ring.degrees)
    if not effective:
        messages.append("the generator degrees do not generate the grading group")
    pointed = check_pointed(ring.degrees)
    if not pointed:
        messages.append("the weight configuration is not pointed; no strictly "
                        "positive functional exists")
    lattice = ring.degrees.lattice_basis is not None
    if not lattice:
        messages.append("no subset of the free parts is a lattice basis")

    generators = ideal.generators if ideal is not None else ()
    homogeneous = True
    for idx, g in enumerate(generators, start=1):
        if not is_homogeneous(ring, g):
            homogeneous = False
            degs = ", ".join(str(d) for d in distinct_term_degrees(ring, g))
            messages.append(f"generator {idx} is not homogeneous; term degrees {degs}")

    in_square = True
    for idx, g in enumerate(generators, start=1):
        bad = min((sum(m) for m in g.terms), default=2)
        if bad < 2:
            in_square = False
            messages.append(f"generator {idx} has a term of total degree {bad}; "
                            "relations must lie in the square of the maximal ideal")

    components_trivial = True
    if generators and (not pointed or not homogeneous):
        components_trivial = False
        messages.append("components in generator degrees were not checked "
                        "(requires a pointed grading and homogeneous generators)")
    elif generators:
        for q in ring.degrees.distinct_weights():
            comp = ideal_component_basis(ideal, q)
            if comp:
                components_trivial = False
                messages.append(f"the ideal has a nontrivial component in the "
                                f"generator degree {q} (dimension {len(comp)})")

    return ValidationReport(effective, pointed, homogeneous, in_square,
                            components_trivial, lattice, tuple(messages))


class Stages:
    """The pipeline for one presentation, validated once: each later
    stage runs when its product is first read, on the product of the
    stage before, and imports its module then.

    `auts` passes the grading gate, then searches the weight
    symmetries; `presentation` builds the ring presentation from them;
    `stabilizer` passes the ideal gate before it reads `presentation`,
    so a caller that reads `stabilizer` first meets the ideal gate
    before the weight search."""

    def __init__(self, ring: GradedPolyRing, ideal: Ideal | None = None):
        self.ring = ring
        self.ideal = ideal
        self.report = validate_presentation(ring, ideal)

    @cached_property
    def auts(self):
        self.report.require(self.report.grading_ok)
        from .weightsym import aut_gen_weights
        return aut_gen_weights(self.ring.degrees)

    @property
    def displays(self):
        """The weight symmetries as display matrices, as reports hold them."""
        return tuple(a.matrix for a in self.auts)

    @cached_property
    def presentation(self):
        from .ringaut import ring_presentation
        return ring_presentation(self.ring, self.auts)

    @cached_property
    def stabilizer(self):
        self.report.require(self.report.ok)
        from .algebraaut import stabilizer_presentation
        return stabilizer_presentation(self.presentation, self.ideal)
