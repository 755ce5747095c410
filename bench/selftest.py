"""Self-test of the benchmark: every workload at a tiny size, in both modes.

Run from the root of a ckspline checkout:

    python3 bench/selftest.py

Asserts that every metric named in BENCHMARK.json comes out with its unit,
that a clean run counts no failure, and that a deliberately truncated
curve.csv is counted as a failed command.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run

SEED = 7


def check_metrics(result: dict, wanted: dict, label: str):
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert got == wanted, f"{label}: metrics {got} != BENCHMARK.json {wanted}"
    for name, (value, _) in result["metrics"].items():
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}={value}"
    assert result["correct"] and result["failed"] == 0, f"{label}: {result.get('problems')}"


def truncating(cli):
    """Launcher.cli that cuts every curve.csv its command wrote to half its length."""
    def corrupt(args, log: Path):
        record = cli(args, log)
        for curve in log.parent.rglob("curve.csv"):
            data = curve.read_bytes()
            curve.write_bytes(data[: len(data) // 2])
        return record
    return corrupt


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    with run.Launcher() as launcher:  # before numpy is imported, as in run.main
        sys.path.insert(0, str(run.SRC))
        from workloads import WORKLOADS

        wanted = {key: {m["name"]: m["unit"] for m in spec[key]}
                  for key in ("end_to_end", "per_layer")}
        # every listed workload must exist; unlisted ones still get tested
        assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
        for name, workload in WORKLOADS.items():
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                result = run.measure(workload.tiny(), SEED, 1.0, trace, launcher)
                check_metrics(result, wanted[key], f"{name} trace={trace}")

        launcher.cli = truncating(launcher.cli)
        result = run.measure(WORKLOADS["repair-eval"].tiny(), SEED, 1.0, 0, launcher)
    assert result["failed"] == result["attempted"] // 2 > 0, result["failed"]
    assert not result["correct"] and result["metrics"]["pass_ratio"][0] < 1.0
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
