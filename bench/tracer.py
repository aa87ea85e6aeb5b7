"""Run one graded-aut command with every public gradedaut function traced.

    python3 bench/tracer.py SUMMARY_FILE <graded-aut arguments...>

The process behaves like the `graded-aut` console script: same argument
parsing, same stdout, same exit code.  Before the command runs, every
public function of every gradedaut module, every public method of the
classes defined there, and the arithmetic dunders of those classes are
replaced by wrappers that record a span (name, start, end, parent) in
memory.  One private function that decides a reported size,
`gitfan._face_family`, is wrapped too.  When the command ends, the spans
are reduced to per-module self time, inclusive times of selected
functions and exact counters, written as JSON to SUMMARY_FILE.  Nothing
is written to stdout, so digests of traced and untraced runs must agree.

Spans live in this file, not in the package: the program under test is
unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import types
from time import perf_counter

import gradedaut

# private functions wrapped because a reported size is decided there
EXTRA_PRIVATE = {"gitfan._face_family"}
# dunders worth a span: construction and arithmetic of exact objects
DUNDERS = {"__init__", "__add__", "__sub__", "__mul__", "__neg__", "__pow__"}

# inclusive time of these spans, outermost calls only
INCLUSIVE = {
    "linalg.rref": "linalg.rref_s",
    "linalg.smith_normal_form": "linalg.snf_s",
    "inout.parse_input": "inout.parse_s",
    "inout.write_report": "inout.report_write_s",
    "inout.report_from_text": "inout.report_read_s",
    "inout.export_cas_script": "inout.export_s",
    "polynomials.polynomial_to_str": "polynomials.to_str_s",
    "ringaut.render_presentation": "ringaut.render_s",
}


class Tracer:
    """Span store plus the counters read off arguments and results."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def add(self, key: str, amount: int = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1]
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result,
                     names[parent] if parent >= 0 else None)
            return result

        return traced

    def summary(self) -> dict:
        """Self time per module, selected inclusive times, counters."""
        n = len(self.names)
        covered = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = {}
        incl: dict[str, float] = {v: 0.0 for v in INCLUSIVE.values()}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            module = name.split(".", 1)[0]
            self_s[module] = self_s.get(module, 0.0) + dur - covered[i]
            key = INCLUSIVE.get(name)
            if key is not None and not self._inside_same(i):
                incl[key] += dur
        out = {f"{m}.self_s": v for m, v in self_s.items()}
        out.update(incl)
        return {"spans": n, "times": out, "counts": dict(self.counts)}

    def _inside_same(self, i: int) -> bool:
        name = self.names[i]
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False


# --- counters, keyed by span name -----------------------------------------

def _count(key):
    return lambda t, args, result, parent: t.add(key)


def _poly_init(t, args, result, parent):
    t.add("polynomials.poly_built")
    t.add("polynomials.terms_built", len(args[0].terms))


def _aut_ks(t, args, result, parent):
    t.add("ringaut.calls")
    t.counts["ringaut.n"] = max(t.counts.get("ringaut.n", 0), result.n)
    t.add("ringaut.triples", len(result.triples))
    t.add("ringaut.generators", sum(len(tr.ideal) for tr in result.triples))


def _zero_pattern(t, args, result, parent):
    # the last generator is det * Z - 1; its constant is not a det term
    t.add("ringaut.det_terms", len(result[-1].terms) - 1)


def _aut_grad_alg(t, args, result, parent):
    t.add("algebraaut.calls")
    t.add("algebraaut.stabilizer_generators",
          sum(len(tr.stabilizer_gens) for tr in result.triples))


def _aut_gen_weights(t, args, result, parent):
    t.add("weightsym.calls")
    t.add("weightsym.symmetries", len(result))


def _contains(t, args, result, parent):
    # inside git_cone: the effectiveness test, then one test per orbit cone
    if result and parent == "gitfan.git_cone":
        t.add("gitfan.cones_containing_w_or_effective")


def _git_cone(t, args, result, parent):
    t.add("gitfan.git_cone_calls")


def _add_len(key, encode=False):
    def hook(t, args, result, parent):
        t.add(key, len(result.encode()) if encode else len(result))
    return hook


HOOKS = {
    "polynomials.Polynomial.__init__": _poly_init,
    "validation.validate_presentation": _count("validation.calls"),
    "weightsym.aut_gen_weights": _aut_gen_weights,
    "ringaut.aut_ks": _aut_ks,
    "ringaut.zero_pattern_ideal": _zero_pattern,
    "algebraaut.aut_grad_alg": _aut_grad_alg,
    "algebraaut.component_data": _count("algebraaut.components"),
    "gitfan.git_cone": _git_cone,
    "gitfan._face_family": _add_len("gitfan.candidate_faces"),
    "gitfan.orbit_cones": _add_len("gitfan.orbit_cones"),
    "cones.RationalCone.contains": _contains,
    "cones.generators_from_halfspaces": _count("cones.halfspace_conversions"),
    "cones.intersect_cones": _count("cones.intersections"),
    "linalg.rref": _count("linalg.rref_calls"),
    "linalg.det": _count("linalg.det_calls"),
    "linalg.smith_normal_form": _count("linalg.snf_calls"),
    "grading.torsion_block_bijective": _count("grading.bijective_tests"),
    "inout.report_to_text": _add_len("inout.report_bytes", encode=True),
    "inout.export_cas_script": _add_len("inout.script_bytes", encode=True),
}


# --- installation ------------------------------------------------------------

def _modules():
    return [importlib.import_module(f"gradedaut.{info.name}")
            for info in pkgutil.iter_modules(gradedaut.__path__)]


def _own_function(obj, module) -> bool:
    return (isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
            and obj.__code__.co_filename == module.__file__)


def install(tracer: Tracer):
    """Wrap the traced callables and rebind every module-level reference
    to them, so calls made through `from .x import f` are traced too."""
    modules = _modules()
    replaced = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            span = f"{short}.{name}"
            if _own_function(obj, mod) and (not name.startswith("_")
                                            or span in EXTRA_PRIVATE):
                replaced[id(obj)] = tracer.wrap(span, obj)
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                _install_class(tracer, mod, obj, f"{short}.{name}")
    for mod in [gradedaut, *modules]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])


def _install_class(tracer: Tracer, mod, cls, prefix: str):
    for name, attr in list(vars(cls).items()):
        public = not name.startswith("_") or name in DUNDERS
        if not public:
            continue
        kind = type(attr)
        fn = attr.__func__ if kind in (classmethod, staticmethod) else attr
        if not _own_function(fn, mod):
            continue
        wrapped = tracer.wrap(f"{prefix}.{name}", fn)
        setattr(cls, name, kind(wrapped) if fn is not attr else wrapped)


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from gradedaut import cli
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
