"""Traced run: per-layer cost, measured from outside the library.

The workload's CLI commands run in-process through `cli.main`, with spans
around the library calls that `ckspline.cli` makes (load_samples, fit,
repair_continuity, save_model, load_model, evaluate).  The spans stay in
memory and are written to the result file when the run ends.  The loss and
optimizer layers run inside `fit`, where no span can reach, so they are timed
by direct calls on a copy of the workload's problem, built with
`make_scaled_problem` and `LossEngine` from the same generated inputs.  Each
in-process cycle is run once without and once with the spans; the ratio of
the two is the tracing overhead.  A layer the workload's cycle never calls is
timed by one probe call on the workload's own problem, so every metric has
a value on every workload.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import ckspline.cli as cli
from ckspline import LossEngine, init_state, least_squares_init, make_scaled_problem, step

from workloads import checked

PROBE_BUDGET_S = 0.3
STARTUP_REPEATS = 5
PATCHED = ("load_samples", "fit", "repair_continuity", "save_model", "load_model", "evaluate")


class Recorder:
    """Spans with name, start, end, parent and run id, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                record.update(_attributes(name, args, result))
                return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route ckspline.cli's library calls through spans for the duration."""
        originals = {name: getattr(cli, name) for name in PATCHED}
        try:
            for name, fn in originals.items():
                setattr(cli, name, self.wrap(name, fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def ms(self, name: str) -> list[float]:
        return [1e3 * (s["end"] - s["start"]) for s in self.named(name)]

    def self_ms(self, name: str) -> list[float]:
        """Span time not covered by the span's children."""
        out = []
        for span in self.named(name):
            children = sum(c["end"] - c["start"] for c in self.spans
                           if c["parent"] == span["id"])
            out.append(1e3 * (span["end"] - span["start"] - children))
        return out


def _attributes(name, args, result) -> dict:
    """Counts recorded at the span: work done by the call."""
    if name == "fit":
        config = args[1]
        return {"lam": config.loss.lam, "epochs": config.epochs,
                "history": [(row.epoch, row.total) for row in result.history]}
    if name == "repair_continuity":
        return {"boundaries": len(result[1].positions)}
    if name == "evaluate":
        return {"points": int(np.size(args[1]))}
    return {}


def _repeat(fn, budget_s=PROBE_BUDGET_S, min_reps=3, max_reps=200) -> list[float]:
    """Wall seconds of repeated calls until the budget is spent."""
    times = []
    spent = time.perf_counter()
    while len(times) < min_reps or (len(times) < max_reps
                                    and time.perf_counter() - spent < budget_s):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def inprocess_cycle(workload, prep, out: Path, rng, recorder=None):
    """The cycle's commands through cli.main in this process; wall s and problems."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wall, problems = 0.0, []
    patch = recorder.patched() if recorder else contextlib.nullcontext()
    with patch:
        for command in workload.commands(prep, out):
            span = recorder.span(f"cli.main:{command.kind}") if recorder else contextlib.nullcontext()
            start = time.perf_counter()
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(command.argv)
            wall += time.perf_counter() - start
            found = [f"{command.kind}: exit {code}"] if code else checked(workload, prep, command, rng)
            problems.append(found)
    return wall, problems


def layer_probes(workload, prep) -> dict:
    """Per-call cost of the loss, optimizer and initialisation layers."""
    config = workload.train_config()
    model, _ = make_scaled_problem(prep.samples, config.segments, config.degree)
    build = _repeat(lambda: LossEngine(model, prep.samples, config.loss))
    engine = LossEngine(model, prep.samples, config.loss)
    breakdown = _repeat(engine.breakdown)
    cpu, wall = time.process_time(), time.perf_counter()
    gradient = _repeat(engine.gradient)
    cpu_per_wall = (time.process_time() - cpu) / (time.perf_counter() - wall)
    state = init_state(config.optimizer, model.coefficients.shape)
    coeffs, grads = model.coefficients.copy(), engine.gradient()
    steps = _repeat(lambda: step(state, config.optimizer, coeffs, grads))
    ls_init = _repeat(lambda: least_squares_init(model, prep.samples), min_reps=1)
    median = statistics.median
    return {
        "losses.engine_build_ms": (1e3 * median(build), "ms"),
        "losses.breakdown_ms": (1e3 * median(breakdown), "ms"),
        "losses.gradient_ms": (1e3 * median(gradient), "ms"),
        # computed from array sizes, not measured
        "losses.sample_table_bytes": (engine.seg.nbytes + engine.powers.nbytes, "bytes"),
        "losses.gradient_cpu_per_wall": (cpu_per_wall, "ratio"),
        "optimizers.step_us": (1e6 * median(steps), "us"),
        "training.least_squares_init_ms": (1e3 * median(ls_init), "ms"),
    }


def startup_ms(launcher, log: Path) -> float:
    """Fresh interpreter importing ckspline.cli, as every CLI command pays."""
    times = [launcher.run([sys.executable, "-c", "import ckspline.cli"], log)["wall_s"]
             for _ in range(STARTUP_REPEATS)]
    return 1e3 * statistics.median(times)


def fill_missing_spans(workload, prep, recorder: Recorder, out: Path):
    """One probe call per layer the cycle did not reach, on the same problem."""
    model_path = next(out.rglob("model.json"))
    with recorder.patched():
        if not recorder.named("fit"):
            cli.fit(prep.samples, workload.train_config())
        if not recorder.named("load_samples"):
            cli.load_samples(prep.files["samples"])
        if not recorder.named("load_model"):
            cli.load_model(model_path)
        if not recorder.named("cli.main:eval"):
            argv = ["eval", "--model", str(model_path), "--out", str(out / "probe-eval"),
                    "--k", str(workload.k), "--resolution", str(workload.resolution)]
            with recorder.span("cli.main:eval"), contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv):
                    raise RuntimeError("probe eval failed")


def epochs_to_tol(workload, prep, recorder: Recorder) -> int:
    """First recorded epoch with total - total* <= tol_gap; the budget if never."""
    span = next(s for s in recorder.named("fit") if s["lam"] == workload.lam)
    optimum = prep.optimum[workload.lam]
    return next((epoch for epoch, total in span["history"]
                 if total - optimum <= workload.tol_gap), span["epochs"])


def traced_run(workload, prep, workdir: Path, seed: int, seconds: float, launcher) -> dict:
    rng = np.random.default_rng([seed, 1])
    start = time.perf_counter()
    metrics = layer_probes(workload, prep)
    metrics["cli.startup_ms"] = (startup_ms(launcher, workdir / "startup.log"), "ms")

    recorder = Recorder(f"{workload.name}-{seed}")
    out = workdir / "cycle"
    # the first in-process cycle pays one-time costs, so it is checked but not timed
    problems = inprocess_cycle(workload, prep, out, rng)[1]
    plain, traced = [], []
    # pairs of cycles in alternating order, so drift over the run cancels
    while not plain or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        for sink, spans in (((plain, None), (traced, recorder)) if len(plain) % 2 == 0
                            else ((traced, recorder), (plain, None))):
            wall, found = inprocess_cycle(workload, prep, out, rng, spans)
            sink.append(wall)
            problems += found
    bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    fill_missing_spans(workload, prep, recorder, out)

    median = statistics.median
    fits = recorder.named("fit")
    epoch_ms = median(1e3 * (s["end"] - s["start"]) / s["epochs"] for s in fits)
    repair_ms = median(recorder.ms("repair_continuity"))
    boundaries = recorder.named("repair_continuity")[0]["boundaries"]
    evaluate_ms = recorder.ms("evaluate")
    points = [s["points"] for s in recorder.named("evaluate")]
    metrics.update({
        "training.fit_ms": (median(recorder.ms("fit")), "ms"),
        "training.epoch_ms": (epoch_ms, "ms"),
        # derived: epoch time not spent in breakdown, gradient or step
        "training.loop_self_ms": (epoch_ms - metrics["losses.breakdown_ms"][0]
                                  - metrics["losses.gradient_ms"][0]
                                  - metrics["optimizers.step_us"][0] / 1e3, "ms"),
        "training.epochs_to_tol": (epochs_to_tol(workload, prep, recorder), "count"),
        "repair.repair_ms": (repair_ms, "ms"),
        "repair.boundaries": (boundaries, "count"),
        "repair.us_per_boundary": (1e3 * repair_ms / boundaries, "us"),
        "model.evaluate_ms": (median(evaluate_ms), "ms"),
        "model.evaluate_points_per_s": (median(1e3 * p / t for p, t in zip(points, evaluate_ms)),
                                        "1/s"),
        "cli.load_samples_ms": (median(recorder.ms("load_samples")), "ms"),
        "cli.load_model_ms": (median(recorder.ms("load_model")), "ms"),
        "cli.save_model_ms": (median(recorder.ms("save_model")), "ms"),
        "cli.eval_main_ms": (median(recorder.ms("cli.main:eval")), "ms"),
        # derived: eval command time outside load_model and evaluate
        "cli.curve_write_self_ms": (median(recorder.self_ms("cli.main:eval")), "ms"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "trace.overhead_ratio": (median(traced) / median(plain), "ratio"),
    })
    failed = sum(1 for found in problems if found)
    return {"attempted": len(problems), "failed": failed, "correct": failed == 0,
            "metrics": metrics, "problems": [p for found in problems for p in found],
            "inprocess_cycle_s": {"plain": plain, "traced": traced},
            "spans": [{k: v for k, v in s.items() if k != "history"} for s in recorder.spans]}
