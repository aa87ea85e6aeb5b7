"""Benchmark of the graded-aut command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --freeze

Run from the root of a checkout.  Every op is one fresh `graded-aut`
process (`python3 -c 'from gradedaut.cli import main; ...'` on ./src),
with `--jobs 1` and without GRADED_AUT_JOBS or PYTHONHASHSEED in its
environment.  The seed only shuffles the order of the op chains within a
pass; the inputs are the fixed files in bench/problems.

--trace 0 measures set-up time, then whole passes over the workload until
the next pass would end after --seconds, and reports the median over the
passes of each end-to-end metric.  Each op runs between two runs of a
fixed speed reference, and its wall time is scaled to the reference's
nominal speed (see REFERENCE below and bench/README.md).  --trace 1 runs
one untraced pass and two traced passes (bench/tracer.py) in the same
order and reports per-layer self times and exact counters of a traced
pass.

Every op's exit code and the sha256 of its stdout and of the file it
writes are compared with bench/expected.json; closed-form checks from
bench/workloads.py run on the outputs as well.  --freeze rewrites
bench/expected.json from the code in ./src, running every op twice and
refusing if the two runs differ.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

from workloads import (ALL_SUBSETS_FACES, COMMANDS, ONCE, PROBLEMS,
                       WORKLOADS, Op)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
EXPECTED = BENCH / "expected.json"
WORK_REL = ".bench_work"
WORK = ROOT / WORK_REL
TRACER = BENCH / "tracer.py"

SETUP_REPS = 5
DEADLINE_S = 170.0  # every run exits well within the 180 s allowed
FREEZE_OP_S = 3600.0
CLI = "import sys; from gradedaut.cli import main; sys.exit(main())"
SETUP = ("import sys; import gradedaut.cli; from gradedaut.inout import "
         "read_input\nfor p in sys.argv[1:]:\n    q = read_input(p); "
         "q.ideal(q.ring())")

# The speed reference: a fresh interpreter (isolated from ./src) that
# imports numpy and does exact Fraction and dict work, like an op.  This
# host's speed drifts by 15% and more over seconds to minutes, the same
# for wall and CPU time, which repetition within a run does not average
# out; op times divided by adjacent reference times track it.  Reported
# times are seconds at the speed at which the reference takes REFERENCE_S.
REFERENCE = """
import numpy
from fractions import Fraction
acc, table = Fraction(0), {}
for i in range(1, 20000):
    acc += Fraction(i % 97, i % 89 + 1)
    table[i % 1000, i % 7] = table.get((i % 1000, i % 7), 0) + i
"""
REFERENCE_S = 0.35

END_TO_END = {  # name -> unit
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    **{f"{c.replace('-', '_')}_s": "s" for c in COMMANDS},
}
SELF_TIMES = ("cli", "inout", "validation", "weightsym", "grading", "ringaut",
              "polynomials", "algebraaut", "linalg", "cones", "gitfan")
PER_LAYER = {
    **{f"{m}.self_s": "s" for m in SELF_TIMES},
    "validation.calls": "count", "weightsym.calls": "count",
    "ringaut.calls": "count", "algebraaut.calls": "count",
    "gitfan.git_cone_calls": "count",
    "ringaut.n": "count", "ringaut.triples": "count",
    "ringaut.det_terms": "count", "ringaut.generators": "count",
    "ringaut.render_s": "s",
    "polynomials.poly_built": "count", "polynomials.terms_built": "count",
    "polynomials.to_str_s": "s",
    "linalg.rref_calls": "count", "linalg.rref_s": "s",
    "linalg.snf_calls": "count", "linalg.snf_s": "s",
    "linalg.det_calls": "count",
    "cones.halfspace_conversions": "count", "cones.intersections": "count",
    "gitfan.candidate_faces": "count", "gitfan.orbit_cones": "count",
    "gitfan.useful_ratio": "ratio",
    "grading.bijective_tests": "count", "weightsym.symmetries": "count",
    "algebraaut.stabilizer_generators": "count",
    "algebraaut.components": "count",
    "inout.parse_s": "s", "inout.report_write_s": "s",
    "inout.report_read_s": "s", "inout.export_s": "s",
    "inout.report_bytes": "bytes", "inout.script_bytes": "bytes",
    "trace.overhead_s": "s",
}
MAX_COUNTS = {"ringaut.n"}  # sizes, not work: the largest one in the pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GRADED_AUT_JOBS", None)
    env.pop("PYTHONHASHSEED", None)  # hash order must not reach any output
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Starts the op processes and checks what they produce."""

    def __init__(self, expected: dict | None, deadline_s: float):
        self.env = child_env()
        self.expected = expected
        self.deadline = perf_counter() + deadline_s
        self.ntraced = 0
        self.refs: list[float] = []

    def remaining(self) -> float:
        return self.deadline - perf_counter()

    def spawn(self, argv: list[str], stdout, stderr):
        """Run argv to completion; return (wall seconds, exit code, peak
        RSS in MB).  The process is killed at the run deadline."""
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=stdout, stderr=stderr)
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def reference(self) -> float:
        """Wall time of one run of the speed reference."""
        wall, code, _ = self.spawn([sys.executable, "-I", "-c", REFERENCE],
                                   subprocess.DEVNULL, None)
        if code != 0:
            raise RuntimeError(f"reference process exited with {code}")
        self.refs.append(wall)
        return wall

    def between_references(self, work):
        """Call work() between two reference runs; the first is shared
        with the previous call."""
        if not self.refs:
            self.reference()
        result = work()
        self.reference()
        return result

    def scale(self) -> float:
        """Factor taking the last work's wall time to reference speed."""
        return 2 * REFERENCE_S / (self.refs[-2] + self.refs[-1])

    def run_op(self, workload: str, op: Op, traced: bool) -> dict:
        out_path = WORK / op.out if op.out else None
        if out_path is not None and out_path.exists():
            out_path.unlink()
        argv = [sys.executable, "-c", CLI]
        summary = None
        if traced:
            self.ntraced += 1
            summary = WORK / f"trace-{self.ntraced}.json"
            argv = [sys.executable, str(TRACER), str(summary)]
        argv += op.argv(WORK_REL)
        with open(WORK / "stdout", "wb") as so, \
                open(WORK / "stderr", "wb") as se:
            wall, code, rss = self.spawn(argv, so, se)
        stdout = (WORK / "stdout").read_bytes()
        stderr = (WORK / "stderr").read_bytes()
        got = {"exit": code, "stdout": sha256(stdout),
               "out": file_sha256(out_path) if out_path else None}
        problems = []
        if self.expected is not None:
            want = self.expected[workload].get(op.key)
            if want is None:
                problems.append("no frozen digests for this op")
            else:
                problems += [f"{k} {got[k]} != frozen {want[k]}"
                             for k in ("exit", "stdout", "out")
                             if got[k] != want[k]]
        if op.check is not None and code == op.expect_exit:
            problem = op.check(stdout, stderr)
            if problem:
                problems.append(problem)
        counts = times = None
        if summary is not None:
            try:
                data = json.loads(summary.read_text())
                counts, times = data["counts"], data["times"]
            except (OSError, ValueError, KeyError):
                problems.append("traced op wrote no summary")
            else:
                problems += face_check(workload, counts)
        return {"op": op, "wall": wall, "exit": code, "rss": rss,
                "digests": got, "problems": problems,
                "counts": counts, "times": times}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path):
    try:
        return sha256(path.read_bytes())
    except OSError:
        return None


def face_check(workload: str, counts: dict) -> list[str]:
    bound = ALL_SUBSETS_FACES.get(workload)
    calls = counts.get("gitfan.git_cone_calls", 0)
    faces = counts.get("gitfan.candidate_faces", 0)
    if bound is None or not calls or faces <= bound * calls:
        return []
    return [f"{faces} candidate faces over {calls} git_cone calls exceed "
            f"{bound} per call"]


# --- passes and metrics -------------------------------------------------

def run_pass(runner: Runner, workload: str, chains, traced: bool):
    """One pass over the chains, each op run between two runs of the speed
    reference (shared with the neighbouring ops).  An op's time is its
    wall time scaled by REFERENCE_S over the mean of the two."""
    t0 = perf_counter()
    results = []
    for op in (op for chain in chains for op in chain):
        r = runner.between_references(
            lambda: runner.run_op(workload, op, traced))
        r["time"] = r["wall"] * runner.scale()
        results.append(r)
    metrics = {name: 0.0 for name in END_TO_END if name != "setup_s"}
    refuse_s = 0.0
    for r in results:
        op = r["op"]
        metrics["pass_s"] += r["time"]
        metrics["peak_rss_mb"] = max(metrics["peak_rss_mb"], r["rss"])
        if op.expect_exit == 3:
            refuse_s += r["time"]
        else:
            metrics[f"{op.command.replace('-', '_')}_s"] += r["time"]
    return {"results": results, "metrics": metrics, "refuse_s": refuse_s,
            "wall": perf_counter() - t0}


def layer_metrics(p: dict) -> tuple[dict, dict]:
    """Counts and times of one traced pass, summed over its ops."""
    counts: dict[str, int] = {}
    times: dict[str, float] = {}
    for r in p["results"]:
        for k, v in (r["counts"] or {}).items():
            counts[k] = max(counts.get(k, 0), v) if k in MAX_COUNTS \
                else counts.get(k, 0) + v
        for k, v in (r["times"] or {}).items():
            times[k] = times.get(k, 0.0) + v
    return counts, times


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    layers = [layer_metrics(p) for p in traced]
    counts = layers[0][0]
    problems = [] if all(c == counts for c, _ in layers) else \
        ["count metrics differ between the two traced passes"]
    out = {}
    for name in PER_LAYER:
        if PER_LAYER[name] == "s":
            out[name] = statistics.fmean(t.get(name, 0.0) for _, t in layers)
        else:
            out[name] = counts.get(name, 0)
    faces = counts.get("gitfan.candidate_faces", 0)
    # contains() is true in git_cone once for the effectiveness test of w,
    # then once per orbit cone containing w
    useful = (counts.get("gitfan.cones_containing_w_or_effective", 0)
              - counts.get("gitfan.git_cone_calls", 0))
    out["gitfan.useful_ratio"] = useful / faces if faces else 0.0
    out["trace.overhead_s"] = (statistics.fmean(p["metrics"]["pass_s"]
                                                for p in traced)
                               - untraced["metrics"]["pass_s"])
    return out, problems


def parity(untraced: dict, traced: list[dict]) -> list[str]:
    """Traced ops must print and write exactly what untraced ones do."""
    base = {r["op"].key: r["digests"] for r in untraced["results"]}
    return [f"traced {r['op'].key}: digests differ from the untraced run"
            for p in traced for r in p["results"]
            if r["digests"] != base[r["op"].key]]


def measure_setup(runner: Runner, chains) -> float:
    """Median time of a fresh interpreter importing gradedaut.cli and
    parsing the workload's problem files, scaled like an op's time."""
    files = sorted({f"{PROBLEMS}/{op.problem}" for chain in chains
                    for op in chain if not op.from_report})
    times = []
    for _ in range(SETUP_REPS):
        wall, code, _ = runner.between_references(lambda: runner.spawn(
            [sys.executable, "-c", SETUP, *files], subprocess.DEVNULL, None))
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        times.append(wall * runner.scale())
    return statistics.median(times)


# --- context and output -----------------------------------------------------

def context(seed) -> dict:
    return {"commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": package_version("numpy"), "seed": seed}


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def package_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def report(workload, ctx, passes, metrics, units, notes, problems, attempted,
           failed):
    print(f"workload {workload}: "
          + " ".join(f"{k}={v}" for k, v in ctx.items()))
    print(f"passes: {passes}")
    for name, value in metrics.items():
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"  {name:36s} {shown} {units[name]}")
    for line in notes:
        print("  " + line)
    for p in problems:
        print("FAILED: " + p)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


def failures(passes) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for p in passes:
        for r in p["results"]:
            attempted += 1
            if r["problems"]:
                failed += 1
                problems += [f"{r['op'].key}: {x}" for x in r["problems"]]
    return attempted, failed, problems


def benchmark(args) -> int:
    expected = json.loads(EXPECTED.read_text())
    chains = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(chains)
    runner = Runner(expected, DEADLINE_S)
    ctx = context(args.seed)
    once = [run_pass(runner, args.workload, [[op]], traced=False)
            for op in ONCE.get(args.workload, ())]

    if args.trace:
        untraced = run_pass(runner, args.workload, chains, traced=False)
        traced = [run_pass(runner, args.workload, chains, traced=True)
                  for _ in range(2)]
        passes = [untraced, *traced]
        metrics, extra = per_layer(untraced, traced)
        extra += parity(untraced, traced)
        units = PER_LAYER
        notes = []
    else:
        setup_s = measure_setup(runner, chains)
        passes = []
        t0 = perf_counter()
        while not passes or (
                perf_counter() - t0 + passes[-1]["wall"] <= args.seconds
                and runner.remaining() > 2 * passes[-1]["wall"]):
            passes.append(run_pass(runner, args.workload, chains,
                                   traced=False))
        metrics = {"setup_s": setup_s}
        for name in END_TO_END:
            if name != "setup_s":
                metrics[name] = statistics.median(
                    p["metrics"][name] for p in passes)
        units = END_TO_END
        notes = []
        extra = []
    refuse = sum(p["refuse_s"] for p in once)
    if refuse:
        notes.append(f"refuse_s (exit-3 verdicts, once per run) "
                     f"{refuse:.6f} s")
    notes.append(f"speed reference: median "
                 f"{statistics.median(runner.refs):.6f} s raw over "
                 f"{len(runner.refs)} runs, times scaled to {REFERENCE_S} s")
    attempted, failed, problems = failures(once + passes)
    if extra:
        failed += 1
        problems += extra
    report(args.workload, ctx, len(passes), metrics, units, notes, problems,
           attempted, failed)
    return 0


def freeze() -> int:
    """Record exit codes and digests of every op, run twice."""
    runner = Runner(None, FREEZE_OP_S)
    frozen = {}
    for name, chains in WORKLOADS.items():
        frozen[name] = {}
        chains = chains + [[op] for op in ONCE.get(name, ())]
        runs = [run_pass(runner, name, chains, traced=False)["results"]
                for _ in range(2)]
        for a, b in zip(*runs):
            if a["digests"] != b["digests"]:
                print(f"{name} {a['op'].key}: two runs differ",
                      file=sys.stderr)
                return 1
            if a["exit"] != a["op"].expect_exit or a["problems"]:
                print(f"{name} {a['op'].key}: exit {a['exit']}, "
                      f"{a['problems']}", file=sys.stderr)
                return 1
            frozen[name][a["op"].key] = a["digests"]
    EXPECTED.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true",
                    help="rewrite bench/expected.json from ./src")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gradedaut" / "cli.py").is_file():
        print(f"no gradedaut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.freeze and args.workload is None:
        ap.error("--workload is required")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        return freeze() if args.freeze else benchmark(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
