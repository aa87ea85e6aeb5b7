"""Command line front end.

Subcommands mirror the library stages: `check` validates, `weights-aut`
lists the grading-group symmetries, `autks` and `autgradalg` print the
equation presentations, `autxhat` applies the chamber filter, and
`export` writes a CAS script, from a saved report or from the bundle
`autgradalg --out` would write.  Exit codes: 0 success, 1 validation
failure, 2 parse failure, 3 resource-guard refusal.  A reader that
closes stdout early, as `| head` does, ends a command with exit code 1
and nothing on stderr.

Each command reads its input once and reads the products it needs off
one `validation.Stages`, the pipeline that the report reader and the
library entry points share: it validates once and runs each stage at
most once, on the product of the stage before, serially in one
process.  The order in which a command reads the products fixes the
order of its refusals: the grading gate, the weight search, for
`autxhat` the class and its chamber, the ideal gate, then the
determinant guard.  All stdout output is a pure function of the input,
so repeated runs are byte-identical.  Each command imports only the
stages it runs: `check` never loads the symmetry, equation or chamber
modules.  Only `export` and `--out` load `report`, the report and
script writer, and with it `json`; the others never build a bundle.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import GuardError, InputError, StructuralError, ValidationError
from .inout import MODES, read_input
from .polynomials import _blocks
from .validation import Stages


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, metavar="FILE",
                        help="problem file (export also accepts a report)")
    common.add_argument("--w", metavar="LIST",
                        help="class to filter by, comma-separated integers")
    common.add_argument("--mode", choices=MODES,
                        help="orbit cone enumeration mode")
    common.add_argument("--out", metavar="PATH",
                        help="write a report (or the exported script) here")
    common.add_argument("--jobs", type=int, metavar="N",
                        help="accepted and ignored: every stage is serial")
    top = argparse.ArgumentParser(
        prog="graded-aut",
        description="automorphism presentations of graded affine algebras")
    sub = top.add_subparsers(dest="command", required=True)
    for name, text in (("check", "validate a problem file"),
                       ("weights-aut", "symmetries of the generator weights"),
                       ("autks", "equations for the polynomial ring"),
                       ("autgradalg", "equations for the quotient algebra"),
                       ("autxhat", "filter by the chamber of w"),
                       ("export", "write a CAS script")):
        sub.add_parser(name, parents=[common], help=text)
    return top


def _w_coords(args, problem):
    if args.w is not None:
        parts = [p.strip() for p in args.w.split(",")]
        try:
            coords = tuple(int(p) for p in parts)
        except ValueError:
            raise InputError([(1, 1, "--w must be a comma-separated integer "
                               f"list, got {args.w!r}")]) from None
    elif problem.w is not None:
        coords = problem.w
    else:
        raise InputError([(1, 1, "no class given: add a w key to the input "
                           "file or pass --w")])
    expected = problem.free_rank + len(problem.torsion)
    if len(coords) != expected:
        raise InputError([(1, 1, f"w has {len(coords)} coordinates, "
                           f"expected {expected}")])
    return coords


def _faces_used(args, problem):
    mode = args.mode if args.mode is not None else problem.mode
    if mode == "user-faces":
        if problem.faces is None:
            raise InputError([(1, 1, "mode user-faces needs faces in the "
                               "input file")])
        return problem.faces
    return None


def _emit(render, value, path=None, end=""):
    """render(value, write), then `end`, to the file at `path` or to
    stdout, in writes of 64 KiB or more: stdout may be unbuffered.  The
    file is opened for the first write, so a failed render leaves none."""
    out = None

    def sink(text):
        nonlocal out
        out = out or (open(path, "w", encoding="utf-8") if path
                      else sys.stdout)
        out.write(text)

    write, flush = _blocks(sink)
    render(value, write)
    write(end)
    flush()
    if path:
        out.close()


def _is_report(path) -> bool:
    """Is the first non-blank character of the file a `{`?  The file is
    read a character at a time up to it, not whole."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        ch = fh.read(1)
        while ch.isspace():
            ch = fh.read(1)
    return ch == "{"


def _run(args) -> int:
    command = args.command
    if command == "export" and _is_report(args.input):
        from .report import read_report, write_cas_script
        _emit(write_cas_script, read_report(args.input), args.out)
        return 0
    problem = read_input(args.input)
    ring = problem.ring()
    stages = Stages(ring, problem.ideal(ring))
    checks = stages.report
    fields = {}  # a report's stage products, as they are made

    if command == "check":
        for label, flag in checks.flag_items():
            print(f"{label}: {'pass' if flag else 'FAIL'}")
        for msg in checks.messages:
            print("note: " + msg)
    else:
        fields["weight_auts"] = stages.displays
    if command == "weights-aut":
        print(f"{len(stages.auts)} weight symmetries")
        for i, a in enumerate(stages.auts, start=1):
            print(f"\nsymmetry {i}:")
            print(str(a))
    if command == "autks":
        from .ringaut import render_presentation
        fields["presentation"] = stages.presentation
        _emit(render_presentation, stages.presentation, end="\n")
    if command == "autxhat":
        # the class and its chamber come before the ideal gate and the
        # heavy stages
        coords = _w_coords(args, problem)
        faces = _faces_used(args, problem)
        from .gitfan import chamber_fixers, git_cone, render_cone
        w = problem.group().from_coordinates(coords)
        lam = git_cone(ring.degrees, w, faces)
    if command in ("autgradalg", "autxhat", "export"):
        stab = fields["stabilizer"] = stages.stabilizer
        fields["presentation"] = stages.presentation
        from .algebraaut import render_stabilizer
    if command == "autgradalg":
        _emit(render_stabilizer, stab, end="\n")
    if command == "autxhat":
        retained = chamber_fixers(stab, lam)
        filtered = stab.restrict(retained)
        print(f"git chamber of w = {w}:")
        print(render_cone(lam))
        print(f"\n{len(filtered.triples)} of {len(stab.triples)} weight "
              "symmetries fix the chamber\n")
        _emit(render_stabilizer, filtered, end="\n")

    if command == "export" or args.out:
        from .report import (FilterResult, ResultBundle, write_cas_script,
                             write_report)
        if command == "autxhat":
            fields["filter_result"] = FilterResult(coords, retained, lam.rays)
        bundle = ResultBundle(problem, checks, **fields)
        if command == "export":
            _emit(write_cas_script, bundle, args.out)
        else:
            write_report(bundle, args.out)
    return 1 if command == "check" and not checks.ok else 0


def main(argv=None) -> int:
    """Run one command and return its exit code.  Automatic cyclic
    garbage collection is off while it runs: the stages build acyclic
    tuples, dicts and Fractions, which reference counting frees, and the
    collector's passes over them took ~40 ms of `export` from the 37.5 MB
    weights112 report.  The caller's setting is restored on return."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return _run(args)
    except InputError as exc:
        for line, col, msg in exc.diagnostics:
            print(f"{args.input}:{line}:{col}: {msg}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout's reader has gone, as under `| head`: exit quietly, with
        # stdout on devnull so that the flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValidationError, StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
