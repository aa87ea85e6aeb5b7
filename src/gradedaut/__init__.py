"""Exact computation of graded-automorphism groups of finitely generated
graded algebras, with GIT-cone filtering and CAS script export.

The public names load lazily (PEP 562): `import gradedaut` imports no
submodule, and the first access to a name imports the module that
defines it, so a caller loads only the stages it uses."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in (
    ("algebraaut", ("StabilizerPresentation", "StabilizerTriple",
                    "aut_grad_alg", "component_data",
                    "ideal_generator_degrees", "render_stabilizer")),
    ("cones", ("RationalCone", "cone_from_rays", "dual_cone", "equal_cones",
               "intersect_cones")),
    ("errors", ("GradedAutError", "GuardError", "InputError",
                "StructuralError", "ValidationError")),
    ("gitfan", ("aut_xhat", "git_cone", "map_cone", "orbit_cones",
                "render_cone")),
    ("grading", ("DegreeMatrix", "GradingGroup", "GroupAutomorphism",
                 "GroupElement", "check_effective", "check_pointed",
                 "degree_of_exponent")),
    ("inout", ("ProblemInput", "parse_input", "print_input", "read_input")),
    ("polynomials", ("GradedPolyRing", "Ideal", "Polynomial",
                     "component_dimension", "degree_of", "is_homogeneous",
                     "monomial_basis", "parse_polynomial",
                     "polynomial_to_str")),
    ("report", ("FilterResult", "ResultBundle", "export_cas_script",
                "read_report", "write_report")),
    ("ringaut", ("ActionBasis", "AutPresentation", "AutTriple", "aut_ks",
                 "build_action_basis", "render_presentation",
                 "structured_matrix", "zero_pattern_ideal")),
    ("validation", ("ValidationReport", "validate_presentation")),
    ("weightsym", ("aut_gen_weights",)),
) for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # an unknown name raises AttributeError, so `from gradedaut import
    # linalg` falls back to importing the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
