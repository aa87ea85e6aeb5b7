"""The benchmark's workloads: which `graded-aut` commands run on which
problem files, and the closed-form checks on their outputs.

A workload is a list of chains.  The ops of a chain run in order (an
export reads the report its producer wrote); the seed only shuffles the
order of the chains within a pass.  Every workload runs every command at
least once, so each per-command metric is defined on each workload; the
heavy ops are the ones that give the workload its purpose (README.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial
from typing import Callable

COMMANDS = ("check", "weights-aut", "autks", "autgradalg", "autxhat", "export")
PROBLEMS = "bench/problems"

# The four weight symmetries of quadric8 in display form and canonical
# order, as pinned in tests/conftest.py (QUADRIC8_AUT_MATRICES).
QUADRIC8_AUT_MATRICES = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, -2, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)),
    ((-1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1)),
    ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)),
)

# A check takes (stdout, stderr) and returns a problem description or None.
Check = Callable[[bytes, bytes], "str | None"]


@dataclass(frozen=True)
class Op:
    """One `graded-aut` invocation.  `out` is the file passed as --out,
    relative to the work directory; `expect_exit` 3 marks a refusal."""

    command: str
    problem: str
    out: str | None = None
    from_report: bool = False
    expect_exit: int = 0
    check: Check | None = None

    @property
    def key(self) -> str:
        """Stable name of the op, used for the frozen digests."""
        parts = [self.command, self.problem]
        if self.from_report:
            parts[1] = "report:" + self.problem
        if self.out:
            parts.append("--out " + self.out)
        return " ".join(parts)

    def argv(self, work_rel: str) -> list[str]:
        if self.from_report:
            source = f"{work_rel}/{self.problem}"
        else:
            source = f"{PROBLEMS}/{self.problem}"
        args = [self.command, "--input", source]
        if self.out:
            args += ["--out", f"{work_rel}/{self.out}"]
        return args + ["--jobs", "1"]


# --- closed-form checks ------------------------------------------------

def det_terms(expected: tuple[int, ...]) -> Check:
    """Each `det * Z - 1` generator printed has prod(k_i!) terms, k_i the
    block sizes of the structured matrix; one entry per triple."""
    def check(stdout: bytes, stderr: bytes):
        counts = tuple(line.count(b"*Z")
                       for line in stdout.splitlines()
                       if line.startswith(b"  ") and b"*Z" in line)
        if counts != expected:
            return f"determinant term counts {counts}, expected {expected}"
        return None
    return check


def quadric8_symmetries(stdout: bytes, stderr: bytes):
    found, current = [], None
    for line in stdout.decode().splitlines():
        if line.startswith("symmetry "):
            current = []
            found.append(current)
        elif line.startswith("[") and current is not None:
            current.append(tuple(int(x) for x in re.findall(r"-?\d+", line)))
    got = tuple(tuple(m) for m in found)
    if got != QUADRIC8_AUT_MATRICES:
        return f"weight symmetries {got} differ from the pinned four"
    return None


def names_term_bound(stdout: bytes, stderr: bytes):
    if b"1000000" not in stderr:
        return "refusal does not name the 1000000 term bound"
    return None


# Candidate faces per git_cone call in all-subsets mode over r weights:
# at most every nonempty subset.  Checked on traced runs, where the count
# is observable.
ALL_SUBSETS_FACES = {"chamber10": 2 ** 10 - 1}


# --- workloads ---------------------------------------------------------

DENSE8_DET = det_terms((factorial(8),))
W112_DET = det_terms((factorial(2) ** 2 * factorial(4) ** 2,) * 2)
W112X12_DET = det_terms((factorial(2) * factorial(4) * factorial(2),))

WORKLOADS: dict[str, list[list[Op]]] = {
    # The running example through every command.  Each op is dominated by
    # interpreter start and import, so startup and the cli/inout glue
    # show, as do repeated stages (validation 3x, weight symmetries 2x
    # per autgradalg; git_cone 2x per autxhat).
    "quadric8": [
        [Op("check", "quadric8.toml")],
        [Op("weights-aut", "quadric8.toml", check=quadric8_symmetries)],
        [Op("autks", "quadric8.toml")],
        [Op("autgradalg", "quadric8.toml")],
        [Op("autxhat", "quadric8.toml", out="quadric8.report.json"),
         Op("export", "quadric8.report.json", from_report=True)],
        [Op("export", "quadric8.toml")],
    ],
    # Determinant expansion, multiplicativity and a large report:
    # polynomials, ringaut and inout do the work, cones almost none.
    "dense-det": [
        [Op("check", "dense_quadric8.toml")],
        [Op("weights-aut", "dense_quadric8.toml")],
        [Op("autks", "dense_quadric8.toml", check=DENSE8_DET)],
        [Op("autgradalg", "weights112.toml", out="weights112.report.json",
            check=W112_DET),
         Op("export", "weights112.report.json", from_report=True)],
        [Op("autxhat", "weights112x12.toml", check=W112X12_DET)],
    ],
    # All-subsets chamber enumeration: cones, linalg and gitfan dominate,
    # polynomials is idle (one-term determinants).
    "chamber10": [
        [Op("check", "chamber10.toml")],
        [Op("weights-aut", "chamber10.toml")],
        [Op("autks", "chamber10.toml")],
        [Op("autgradalg", "chamber10.toml")],
        [Op("autxhat", "chamber10.toml", out="chamber10.report.json"),
         Op("export", "chamber10.report.json", from_report=True)],
    ],
    # Torsion block enumeration in weightsym/grading, with Smith normal
    # forms per candidate; cones are one-dimensional.
    "torsion": [
        [Op("check", "torsion.toml")],
        [Op("weights-aut", "torsion.toml")],
        [Op("autks", "torsion.toml")],
        [Op("autgradalg", "torsion.toml")],
        [Op("autxhat", "torsion.toml", out="torsion.report.json"),
         Op("export", "torsion.report.json", from_report=True)],
    ],
}

# Ops run once per run, before the passes, and kept out of every per-pass
# metric: the determinant guard enumerates 10^6 + 1 permutations before it
# refuses (about 7 s), which would leave room for one pass only.
ONCE: dict[str, list[Op]] = {
    "dense-det": [Op("autks", "linear10.toml", expect_exit=3,
                     check=names_term_bound)],
}
