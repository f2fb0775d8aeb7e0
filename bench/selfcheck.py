"""Negative control of the benchmark's failure counting.

    python3 bench/selfcheck.py

Runs the D4 Burnside job of `collapse-space` (seed 0) as it is and with
`chern --inject-fault`, through the benchmark's own runner and checks, and
exits nonzero unless exactly the faulty job is counted in fail_ratio.
"""

import os
import shutil
import sys

import run


def main():
    work = run.BENCH / ".work" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        good = next(j for j in run.collapse_space(0, work).jobs if j.label == "d4-burnside")
        faulty = run.Job("d4-burnside-fault", good.args + ["--inject-fault"], good.check)
        with run.speed.Speed(work) as host_speed:
            runner = run.Runner(run.Workload([good, faulty]), work, host_speed)
            runner.run_pass(traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # a benchmark run's directory is still there
            pass
    failed = [label for label, _problem in runner.failures]
    print(f"fail_ratio = {len(failed) / runner.attempted} ({failed} of {runner.attempted} jobs)")
    if failed != [faulty.label]:
        print("negative control failed: expected exactly the faulty job to fail", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
