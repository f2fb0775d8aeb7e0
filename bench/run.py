"""The equichern benchmark: real CLI jobs, one at a time, each in a fresh
interpreter, so every job starts with cold library caches as a user's command
does.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `equichern` from the
checkout's `src/` and refuses to run otherwise. The seed makes the input
files (relabelled groups, seeded G-CW complexes) under `bench/.work/`, which
is removed at the end. Passes over the workload's jobs repeat until the next
one would end after S seconds.

The benchmark and every process it starts run on one CPU, beside the speed
reference of `bench/speed.py`; times in the result are CPU times scaled by it
to a fixed host speed, and the unscaled times are printed above the result.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
one untraced pass is followed by traced passes (`bench/tracing.py`), and the
result holds the per-layer metrics of the median traced pass. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Workload choices and metric predictions are in `bench/RECORD.md`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
JOB_CPU_LIMIT_S = 60  # a job using more CPU than this is killed and fails

END_TO_END = {
    "pass_ref_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Job:
    label: str
    args: list  # arguments of the `equichern` command
    check: object  # stdout -> description of what is wrong, or None


@dataclass
class Workload:
    jobs: list
    files: list = field(default_factory=list)  # set-up inputs, each space after its group


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def bundled_table(name):
    return inputs.read_table(SRC / "equichern" / "data" / "groups" / f"{name}.grp")


# workloads


def collapse_space(seed, work):
    """`chern` over the suspension of a seeded G-graph, on S4 and D4, with the
    Burnside and representation-ring functors. The set-up probe parses each
    complex with its d o d check, so a run with an invalid one fails."""
    rng = random.Random(seed)
    wl = Workload([])
    for g in ("s4", "d4"):
        table = inputs.relabel(bundled_table(g), rng)
        group_text = inputs.format_group(g, table)
        facts = inputs.GroupFacts(table)
        space = f"{g}_suspension"
        gcw_text, isotropy = inputs.suspension_gcw(space, g, facts, inputs.GRAPH_SHAPES[g], rng)
        grp = write(work / f"{g}.grp", group_text)
        gcw = write(work / f"{space}.gcw", gcw_text)
        wl.files += [grp, gcw]
        for coeff in ("burnside", "repring"):
            euler = inputs.euler_characteristic(facts, isotropy, coeff)
            wl.jobs.append(
                Job(
                    f"{g}-{coeff}",
                    ["chern", "--group", grp, "--space", gcw, "--coeff", coeff,
                     "--n-range", "0..2", "--format", "json"],
                    lambda out, euler=euler: check_space_collapse(out, euler),
                )
            )
    return wl


def collapse_wide(seed, work):
    """`chern` of a point over S3 x S3 with the Burnside functor."""
    s3 = bundled_table("s3")
    grp = write(work / "s3xs3.grp",
                inputs.format_group("s3xs3", inputs.relabel(inputs.direct_product(s3, s3), random.Random(seed))))
    expected = [(0, inputs.S3XS3_SUBGROUP_CLASSES, inputs.S3XS3_SUBGROUP_CLASSES), (1, 0, 0), (2, 0, 0)]
    job = Job(
        "s3xs3-point-burnside",
        ["chern", "--group", grp, "--space", "point", "--coeff", "burnside", "--format", "json"],
        lambda out: check_point_collapse(out, expected),
    )
    return Workload([job], [grp])


def axioms_a5(seed, work):
    """The `mackey` axiom suite of the Burnside functor on A5, built from
    (012) and (234) in seeded element order."""
    a5 = inputs.permutation_closure([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    grp = write(work / "a5.grp", inputs.format_group("a5", inputs.relabel(a5, random.Random(seed))))
    job = Job("a5-axioms-burnside", ["mackey", "--group", grp, "--coeff", "burnside"], check_axioms)
    return Workload([job], [grp])


WORKLOADS = {
    "collapse-space": collapse_space,
    "collapse-wide": collapse_wide,
    "axioms-a5": axioms_a5,
}


# semantic checks of a job's standard output


def chern_rows(out):
    return [(r["n"], r["bredon"], r["chern_target"], r["ok"]) for r in json.loads(out)["rows"]]


def check_space_collapse(out, euler):
    rows = chern_rows(out)
    if [r[0] for r in rows] != [0, 1, 2]:
        return f"degrees {[r[0] for r in rows]}, expected 0..2"
    if not all(ok and left == right for _n, left, right, ok in rows):
        return f"collapse fails: {rows}"
    alternating = sum((-1) ** n * left for n, left, _right, _ok in rows)
    if alternating != euler:
        return f"Euler characteristic {alternating}, expected {euler}"
    return None


def check_point_collapse(out, expected):
    rows = chern_rows(out)
    if not all(ok for *_rest, ok in rows) or [r[:3] for r in rows] != expected:
        return f"rows {rows}, expected {expected}"
    return None


def check_axioms(out):
    counts = tuple(int(n) for n in re.findall(r"\[(\d+) checks\]", out))
    if "FAIL" in out or counts != inputs.A5_AXIOM_CHECKS:
        return f"axiom verdicts {out.strip()!r}, expected all to pass with {inputs.A5_AXIOM_CHECKS} checks"
    return None


# running jobs


@dataclass
class JobRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def job_env():
    """The caller's environment without its PYTHON* settings, so every job
    runs the same way: the checkout's sources, fixed hashing, and cached
    bytecode as a user's command would have."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return dict(env, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S))


def run_process(argv, work):
    """Run argv to completion; wall time from the parent, CPU and peak RSS
    from the kernel's accounting of the reaped child."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=job_env(), preexec_fn=_limit_cpu)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no job behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode,
                  out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_s: float = 0.0  # cpu_s at reference speed
    rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)  # traced passes: summed self times
    counts: dict = field(default_factory=dict)


class Runner:
    """Runs passes over a workload's jobs and counts failed jobs."""

    def __init__(self, workload, work, host_speed):
        self.workload = workload
        self.work = work
        self.speed = host_speed
        self.attempted = 0
        self.failures = []  # (job label, what was wrong)
        self.first_stdout = {}

    def run_pass(self, traced):
        p = Pass()
        start = self.speed.read()
        for job in self.workload.jobs:
            spans = self.work / "spans.json"
            if traced:
                argv = [sys.executable, str(BENCH / "tracing.py"), str(spans), *job.args]
            else:
                argv = [sys.executable, "-m", "equichern.cli", *job.args]
            run = run_process(argv, self.work)
            self.attempted += 1
            problem = self.judge(job, run)
            if problem:
                self.failures.append((job.label, problem))
                print(f"# FAILED {job.label}: {problem}", file=sys.stderr)
            p.wall_s += run.wall_s
            p.cpu_s += run.cpu_s
            p.rss_mb = max(p.rss_mb, run.rss_mb)
            if traced and spans.exists():
                layers, counts = tracing.self_times(spans)
                spans.unlink()
                for k, v in layers.items():
                    p.layers[k] = p.layers.get(k, 0.0) + v
                for k, v in counts.items():
                    p.counts[k] = max(p.counts.get(k, 0), v) if k == "qlinalg.max_entry_bits" else p.counts.get(k, 0) + v
        p.ref_s = self.speed.to_reference(p.cpu_s, start, self.speed.read())
        return p

    def judge(self, job, run):
        try:
            problem = job.check(run.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if run.code != 0:
            last_error = run.stderr.strip().splitlines()[-1:]
            return "; ".join([f"exit code {run.code}", *last_error, *filter(None, [problem])])
        if problem:
            return problem
        first = self.first_stdout.setdefault(job.label, run.stdout)
        if run.stdout != first:
            return "output differs from the first pass"
        return None


def run_passes(runner, traced, seconds, started):
    """Passes until the next one would end more than `seconds` after `started`."""
    passes = []
    while not passes or time.perf_counter() - started + statistics.median(p.wall_s for p in passes) <= seconds:
        passes.append(runner.run_pass(traced))
    return passes


def measure_setup(workload, work, host_speed):
    """Fresh interpreters importing equichern and parsing the workload's
    inputs: their wall times, their CPU times at reference speed, and the
    equichern file they imported."""
    walls, cpus = [], []
    start = host_speed.read()
    for _ in range(SETUP_REPEATS):
        run = run_process([sys.executable, str(BENCH / "setup_probe.py"), *workload.files], work)
        if run.code != 0:
            raise SystemExit(f"set-up failed: {run.stderr.strip()}")
        walls.append(run.wall_s)
        cpus.append(run.cpu_s)
    end = host_speed.read()
    return walls, [host_speed.to_reference(c, start, end) for c in cpus], run.stdout.strip()


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() or "none"


def layer_metrics(p, untraced_wall):
    metrics = {f"{name}_s": (p.layers.get(name, 0.0), "s") for name in tracing.SPAN_NAMES}
    for name, unit in tracing.COUNTERS.items():
        metrics[name] = (p.counts.get(name, 0), unit)
    calls, built = p.counts.get("mackey.products_calls", 0), p.counts.get("mackey.products_built", 0)
    madds = p.counts.get("qlinalg.mul_madds", 0)
    metrics["mackey.products_reuse_ratio"] = (1 - built / calls if calls else 0.0, "ratio")
    metrics["qlinalg.mul_zero_frac"] = (p.counts.get("qlinalg.mul_zero_operands", 0) / madds if madds else 0.0, "ratio")
    metrics["trace.pass_s"] = (p.wall_s, "s")
    metrics["trace.other_s"] = (p.wall_s - sum(p.layers.values()), "s")
    metrics["trace.overhead_ratio"] = (p.wall_s / untraced_wall, "ratio")
    return metrics


def run(args, work, host_speed):
    workload = WORKLOADS[args.workload](args.seed, work)
    setup_walls, setup_times, imported = measure_setup(workload, work, host_speed)
    if not Path(imported).resolve().is_relative_to(SRC.resolve()):
        print(f"error: equichern imported from {imported}, not from {SRC}", file=sys.stderr)
        return 2
    print(f"# python {platform.python_version()} sha {git_sha()} equichern {imported}")
    runner = Runner(workload, work, host_speed)
    started = time.perf_counter()
    if args.trace:
        untraced = runner.run_pass(traced=False)
        passes = run_passes(runner, True, args.seconds, started)
        chosen = sorted(passes, key=lambda p: p.wall_s)[(len(passes) - 1) // 2]
        metrics = layer_metrics(chosen, untraced.wall_s)
    else:
        passes = run_passes(runner, False, args.seconds, started)
        metrics = {
            "pass_ref_s": statistics.median(p.ref_s for p in passes),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
        # as measured, unscaled: shown, but too dependent on the host's speed to gate on
        print(f"# pass_s = {statistics.median(p.wall_s for p in passes):.6g} s")
        print(f"# pass_cpu_s = {statistics.median(p.cpu_s for p in passes):.6g} s")
        print(f"# setup_wall_s = {statistics.median(setup_walls):.6g} s")
    print(f"# {args.workload} seed {args.seed}: {len(passes)} {'traced ' if args.trace else ''}passes "
          f"of {len(workload.jobs)} jobs, {SETUP_REPEATS} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    units, cpu_ns = host_speed.read()
    print(f"# speed reference: {units} units, {cpu_ns / units / 1e6:.4g} ms CPU each")
    failed = len(runner.failures)
    print(f"# fail_ratio = {failed / runner.attempted:.6g} ratio ({failed} of {runner.attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "equichern" / "__init__.py").is_file():
        print(f"error: no equichern source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # every process on one CPU, so the speed reference shares the jobs' CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        with speed.Speed(work) as host_speed:
            return run(args, work, host_speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main())
