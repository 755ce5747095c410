"""ckspline benchmark: CLI wall time, optimality gap and per-layer cost.

Run from the root of a ckspline checkout:

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 54 --trace 0

With --trace 0 every CLI command runs as a fresh process, closed loop, one
client, one command at a time, and the end-to-end metrics are printed.  With
--trace 1 the workload runs in-process instead, with spans around the calls
into the library, and the per-layer metrics are printed.  Either way the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a fuller record, stamped with the
environment, goes to bench/out/results/.  Metric names and units are those
of BENCHMARK.json at the checkout root.

Thread settings such as OPENBLAS_NUM_THREADS are recorded, never set, so the
CLI is measured as users run it.  `python3 bench/selftest.py` checks the
benchmark itself at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / "bench" / "out"
# A timed run sets up at least SETUP_REPEATS times and until SETUP_BUDGET_S
# is spent, spread over the run: before the first cycle and after each of the
# next ones, so that setup_s, their median, sees the run's changing load.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
MIN_CYCLES = 3
# A child still running after CHILD_TIMEOUT_S is killed and counts as failed;
# no run goes on for more than RUN_CAP times --seconds.
CHILD_TIMEOUT_S = 60.0
RUN_CAP = 2.0
# The console script's body, so children start as `ckspline ...` would,
# from the checkout's source tree instead of an installed copy.
ENTRY = ("import sys; from ckspline.cli import console_entry; "
         "sys.argv[0] = 'ckspline'; console_entry()")


class Launcher:
    """Client of launcher.py; start it before this process imports numpy."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path) -> dict:
        """Run argv to completion: exit, wall_s, cpu_s and rss_mb of that child."""
        request = {"argv": argv, "env": self.env, "log": str(log), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def cli(self, args: list[str], log: Path) -> dict:
        return self.run([sys.executable, "-c", ENTRY, *args], log)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "commit": commit or "unavailable (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name)
                       for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def set_up(workload, inputs: Path, seed: int):
    """One set-up from scratch: the prepared inputs and the seconds it took."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    start = time.perf_counter()
    prep = workload.setup(inputs, seed)
    return prep, time.perf_counter() - start


def top_up_setups(workload, inputs: Path, seed: int, times: list, share: int) -> bool:
    """Set up again until share/SETUP_REPEATS of the repeats and budget are done.

    The same seed must give the same inputs; returns whether every repeat did.
    """
    from workloads import digest

    first = digest(inputs)
    same = True
    while (len(times) < share
           or sum(times) < SETUP_BUDGET_S * share / SETUP_REPEATS):
        times.append(set_up(workload, inputs, seed)[1])
        same = same and digest(inputs) == first
    return same


def run_cycle(workload, prep, out: Path, rng, launcher, reference) -> list[dict]:
    """One closed-loop cycle of CLI children, each checked after it exits."""
    from workloads import checked, digest

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    records = []
    for index, command in enumerate(workload.commands(prep, out)):
        record = launcher.cli(command.argv, out / f"{command.kind}.log")
        record["kind"] = command.kind
        problems = [] if record["exit"] == 0 else [f"{command.kind}: exit {record['exit']}"]
        if not problems:
            problems = checked(workload, prep, command, rng)
            record["digest"] = digest(command.out)
            first = reference[index].get("digest") if reference else None
            if first is not None and record["digest"] != first:
                problems.append(f"{command.kind}: outputs differ from the first cycle")
        record["problems"] = problems
        records.append(record)
    return records


def timed_run(workload, prep, workdir: Path, seed: int, seconds: float, launcher,
              setup_times: list) -> dict:
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    out = workdir / "cycle"
    cycles, gaps = [], None
    same_inputs = top_up_setups(workload, workdir / "inputs", seed, setup_times, 1)
    start, set_up_during = time.perf_counter(), sum(setup_times)
    while True:
        records = run_cycle(workload, prep, out, rng, launcher, cycles[0] if cycles else None)
        cycles.append(records)
        if gaps is None and not any(r["problems"] for r in records):
            gaps = workload.gaps(prep, out)
        if len(cycles) < SETUP_REPEATS:
            same_inputs &= top_up_setups(workload, workdir / "inputs", seed, setup_times,
                                         len(cycles) + 1)
        elapsed = time.perf_counter() - start - (sum(setup_times) - set_up_during)
        if (len(cycles) >= MIN_CYCLES and elapsed + sum(r["wall_s"] for r in records) > seconds
                or elapsed > RUN_CAP * seconds):
            break
    flat = [r for records in cycles for r in records]
    failed = sum(1 for r in flat if r["problems"])
    gap = max(gaps.values()) if gaps else float("nan")
    # The first cycle pays one-time costs (measured up to 1.4x on repair-eval);
    # it is left out of the timings whenever MIN_CYCLES others remain.
    timed = cycles[1:] if len(cycles) > MIN_CYCLES else cycles
    median = statistics.median
    metrics = {
        "cycle_s": (median(sum(r["wall_s"] for r in c) for c in timed), "s"),
        "cpu_s": (median(sum(r["cpu_s"] for r in c) for c in timed), "s"),
        "peak_rss_mb": (median(max(r["rss_mb"] for r in c) for c in timed), "MB"),
        "optimality_gap": (gap, "1"),
        "pass_ratio": ((len(flat) - failed) / len(flat), "ratio"),
    }
    by_kind = {}
    for r in (r for records in timed for r in records):
        by_kind.setdefault(f"{r['kind']}_s", []).append(r["wall_s"])
    metrics["setup_s"] = (median(setup_times), "s")
    return {"attempted": len(flat), "failed": failed, "metrics": metrics,
            "correct": failed == 0 and gaps is not None and gap >= 0.0 and same_inputs,
            "same_inputs_every_setup": same_inputs,
            "gaps": gaps, "commands": {k: median(v) for k, v in by_kind.items()},
            "cycles": cycles}


def measure(workload, seed: int, seconds: float, trace: int, launcher) -> dict:
    """Set up, run and record one workload; the result behind the final JSON line."""
    workdir = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    try:
        prep, seconds_taken = set_up(workload, workdir / "inputs", seed)
        setup_times = [seconds_taken]
        if trace:
            from traced import traced_run

            result = traced_run(workload, prep, workdir, seed, seconds, launcher)
        else:
            result = timed_run(workload, prep, workdir, seed, seconds, launcher, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "shape": workload.shape(), "environment": environment(),
              "setup_s": setup_times, "oracle_fd_deviation": prep.oracle_deviation,
              "optimum": {str(k): v for k, v in prep.optimum.items()}, **result}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    for name, value in (result.get("gaps") or {}).items():
        print(f"{workload.name} optimality_gap at {name} = {value:.6g}")
    for name, value in result.get("commands", {}).items():
        print(f"{workload.name} {name} (median per command) = {value:.4f} s")
    print(f"environment: {json.dumps(record['environment'])}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ckspline" / "cli.py").is_file():
        print(f"error: no ckspline source tree under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    with Launcher() as launcher:
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                         launcher)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": {
                          name: {"value": value, "unit": unit}
                          for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
