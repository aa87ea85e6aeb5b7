"""Compare what the command line writes under two checkouts.

    python3 tools/same_bytes.py PARENT_ROOT CHANGE_ROOT [--dp4]

Runs all six commands on every bench/problems/*.toml and demos/*.toml
file of CHANGE_ROOT, with and without --out, and `export` of each
report that --out writes: each run once on PARENT_ROOT/src and once on
CHANGE_ROOT/src, in a fresh process without PYTHONHASHSEED or
GRADED_AUT_JOBS.  Both sides read the same copies of the input files
from the same relative paths, so file names in messages agree.
demos/dp4.toml, which takes seconds per command, runs only with --dp4.
It also writes the running example with each ideal of INLINE_IDEALS,
most of which the parser refuses, into both sides' directories and
runs `check` and `autgradalg` on each, so the parser's diagnostics are
compared too.

Prints each run whose exit code, stdout, stderr or written file differs
between the two sides, then a summary line, and exits 1 if any run
differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("check", "weights-aut", "autks", "autgradalg", "autxhat",
            "export")
CLI = "import sys; from gradedaut.cli import main; sys.exit(main())"
DP4 = "demos/dp4.toml"
TIMEOUT_S = 600

# demos/quadric8.toml with one ideal generator in place of its quadric
QUADRIC8 = """vars = 8
Q = [
    [1, 1, 0, 0, -1, -1, 2, -2],
    [0, 1, 1, -1, -1, 0, 1, -1],
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 1, 0, 1, 0, 1, 0],
]
ideal = ["{ideal}"]
w = [1, 9, 16, 0]
mode = "all-subsets"

[grading]
free_rank = 3
torsion = [2]
"""
INLINE_IDEALS = {
    "unknown_variable": "T(1)*T(6) + T(2)*T(9)",
    "division_by_zero": "1/0",
    "trailing_plus": "T(1)*T(6) +",
    "missing_power": "T(1)^",
    "long_coefficient": "7" * 5000 + "*T(1)*T(6)",
    "zero": "T(1)*T(6) - T(6)*T(1)",
    "leading_star": "*T(1)*T(6)",
    "rescaled": "2*T(1)*T(6)*1/2 + T(2)*T(5) + T(3)*T(4) + T(7)*T(8)",
}
INLINE = {f"inline/quadric8_{name}.toml": QUADRIC8.format(ideal=ideal)
          for name, ideal in INLINE_IDEALS.items()}


def input_files(root: Path, dp4: bool) -> list[str]:
    """The problem files, relative to root, in a fixed order."""
    found = [f.relative_to(root).as_posix()
             for pattern in ("bench/problems/*.toml", "demos/*.toml")
             for f in sorted(root.glob(pattern))]
    return [f for f in found if dp4 or f != DP4]


def runs(files):
    """(argv, the file it writes, a file done with after it) of every
    run; the export of a report comes right after the run that writes
    it, and the inline problems come last."""
    for path in files:
        for command in COMMANDS:
            yield [command, "--input", path], None, None
            out = "out/" + path.replace("/", "_") + "." + command
            argv = [command, "--input", path, "--out", out]
            if command == "export":
                yield argv, out, out
            else:
                yield argv, out, None
                yield ["export", "--input", out], None, out
    for path in INLINE:
        for command in ("check", "autgradalg"):
            yield [command, "--input", path], None, None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Side:
    """One checkout's program, run in its own scratch directory."""

    def __init__(self, root: Path, change_root: Path, files, work: Path):
        self.work = work
        for path in files:
            (work / path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(change_root / path, work / path)
        for path, text in INLINE.items():
            (work / path).parent.mkdir(parents=True, exist_ok=True)
            (work / path).write_text(text)
        (work / "out").mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.pop("PYTHONHASHSEED", None)
        self.env.pop("GRADED_AUT_JOBS", None)
        self.env["PYTHONPATH"] = str(root.resolve() / "src")

    def run(self, argv, out) -> dict:
        try:
            proc = subprocess.run([sys.executable, "-c", CLI, *argv],
                                  cwd=self.work, env=self.env,
                                  capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"exit": f"killed after {TIMEOUT_S} s"}
        result = {"exit": proc.returncode, "stdout": digest(proc.stdout),
                  "stderr": digest(proc.stderr)}
        if out is not None:
            written = self.work / out
            result["file"] = (digest(written.read_bytes())
                              if written.exists() else None)
        return result

    def drop(self, out):
        (self.work / out).unlink(missing_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare CLI bytes between two checkouts")
    parser.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    parser.add_argument("change", type=Path, metavar="CHANGE_ROOT")
    parser.add_argument("--dp4", action="store_true",
                        help="also run demos/dp4.toml")
    args = parser.parse_args(argv)
    files = input_files(args.change, args.dp4)
    scratch = Path(tempfile.mkdtemp(prefix="same_bytes-"))
    try:
        parent = Side(args.parent, args.change, files, scratch / "a")
        change = Side(args.change, args.change, files, scratch / "b")
        total = differ = 0
        for argv_, out, done in runs(files):
            total += 1
            a, b = parent.run(argv_, out), change.run(argv_, out)
            if a != b:
                differ += 1
                print(" ".join(argv_) + ": "
                      + ", ".join(f"{k} {a.get(k)} != {b.get(k)}"
                                  for k in a if a[k] != b.get(k)),
                      flush=True)
            if done is not None:
                parent.drop(done)
                change.drop(done)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{total} runs on {len(files)} files and {len(INLINE)} inline "
          f"problems: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
