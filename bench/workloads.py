"""The three seeded workloads: inputs, CLI command cycles, output checks, gap.

A workload's set-up generates its inputs from the seed and computes the
exact minimum its fits are measured against.  The CLI only ever sees the
generated CSV or model.json.  One cycle is the workload's CLI commands run
back to back; every command is checked after it exits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ckspline import (
    LossConfig,
    LossEngine,
    OptimizerConfig,
    SampleSet,
    TrainConfig,
    evaluate,
    l2_loss,
    least_squares_init,
    load_model,
    make_scaled_problem,
    save_model,
)

from oracle import cross_check, exact_minimum

# Post-repair defects must shrink to this share of the pre-repair ones, plus
# an absolute floor for models that had no defect to begin with.  Defects are
# taken in internal coordinates, where every segment has unit length.
REPAIR_REL_TOL = 1e-6
REPAIR_ABS_TOL = 1e-12
# curve.csv rows must match an in-process evaluate to this share of the
# column's magnitude.
CURVE_REL_TOL = 1e-9
CURVE_SPOT_ROWS = 16
# |gradient| at the least-squares model, relative to |y|, above which it is
# not accepted as the exact minimum of the lambda = 1 problem.
STATIONARY_TOL = 1e-8


@dataclass
class Command:
    kind: str
    argv: list[str]
    out: Path


@dataclass
class Prepared:
    """What set-up leaves for the cycles: input files, samples, exact minima."""

    samples: SampleSet
    files: dict[str, Path]
    optimum: dict[float, float]
    oracle_deviation: float = 0.0


def smooth_wave(x, length):
    """A curve that is periodic on [0, length], with all its derivatives."""
    phase = 2.0 * np.pi * np.asarray(x) / length
    return np.sin(3.0 * phase) + 0.3 * np.cos(7.0 * phase)


def pinned_wave(x):
    """The acceptance gate's two-harmonic wave over [0, 16]."""
    return np.sin(2 * np.pi * x / 16) + 0.5 * np.sin(4 * np.pi * x / 16)


def seeded_abscissae(rng, n, length):
    """n sorted uniform abscissae with both domain ends pinned."""
    xs = np.sort(rng.uniform(0.0, length, n))
    xs[0], xs[-1] = 0.0, length
    return xs


def stratified_abscissae(rng, n, length):
    """One seeded uniform abscissa in each of n equal cells, both ends pinned.

    Every segment of a spline whose breakpoints fall on cell edges then owns
    the same number of well-spread samples.
    """
    xs = (np.arange(n) + rng.uniform(0.0, 1.0, n)) * (length / n)
    xs[0], xs[-1] = 0.0, length
    return xs


def write_csv(path: Path, xs, ys, order=None):
    order = range(len(xs)) if order is None else order
    with path.open("w") as handle:
        handle.write("x,y\n")
        handle.writelines(f"{float(xs[i])!r},{float(ys[i])!r}\n" for i in order)


def _cross_check(seed: int) -> float:
    """Oracle against fd_gradient on one small open and one small periodic problem."""
    xs = np.linspace(0.0, 16.0, 128)
    samples = SampleSet(xs, pinned_wave(xs))
    return max(cross_check(samples, LossConfig(0.5, 2), 8, 5, seed),
               cross_check(samples, LossConfig(0.5, 3, "periodic", 1e-3), 8, 7, seed))


def digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes under directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_repair(path: Path, boundaries: int) -> list[str]:
    report = json.loads(path.read_text())
    pre = np.abs(np.asarray(report["pre_defects"], dtype=float))
    post = np.abs(np.asarray(report["post_defects"], dtype=float))
    problems = []
    if len(report["boundaries"]) != boundaries:
        problems.append(f"{path}: {len(report['boundaries'])} boundaries, expected {boundaries}")
    pre_max = float(pre.max()) if pre.size else 0.0
    post_max = float(post.max()) if post.size else 0.0
    if not post_max <= REPAIR_REL_TOL * pre_max + REPAIR_ABS_TOL:
        problems.append(f"{path}: post-repair defect {post_max:.3g} vs pre {pre_max:.3g}")
    return problems


def check_curve(curve: Path, model_path: Path, k: int, resolution: int, rng) -> list[str]:
    """Row count, header, and seeded rows against evaluate() of the written model."""
    model = load_model(model_path)
    lines = curve.read_bytes().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    header = "x,f" + "".join(f",d{j}" for j in range(1, k + 1))
    rows = len(lines) - 1
    expected_rows = model.num_segments * (resolution - 1) + 1
    if not lines or lines[0].decode() != header:
        return [f"{curve}: header is not {header!r}"]
    if rows != expected_rows:
        return [f"{curve}: {rows} rows, expected {expected_rows}"]
    picks = rng.choice(rows, size=min(CURVE_SPOT_ROWS, rows), replace=False)
    picks = np.unique(np.concatenate([picks, [0, rows - 1]]))
    try:
        table = np.array([[float(v) for v in lines[1 + i].split(b",")] for i in picks])
    except ValueError:
        return [f"{curve}: unparsable row"]
    if table.shape[1] != k + 2 or not np.isfinite(table).all():
        return [f"{curve}: malformed or non-finite rows"]
    problems = []
    for j in range(k + 1):
        want = evaluate(model, table[:, 0], j)
        scale = max(1.0, float(np.abs(want).max()))
        if not np.all(np.abs(table[:, j + 1] - want) <= CURVE_REL_TOL * scale):
            problems.append(f"{curve}: column {j} differs from evaluate()")
    return problems


def final_history_row(path: Path, epochs: int) -> tuple[list[str], float]:
    last = path.read_text().strip().splitlines()[-1].split(",")
    total = float(last[1])
    problems = []
    if int(last[0]) != epochs or not math.isfinite(total):
        problems.append(f"{path}: last row {last!r} is not a finite epoch-{epochs} row")
    return problems, total


def checked(workload, prep, command, rng) -> list[str]:
    """The command's output problems; an output too broken to parse is one."""
    try:
        return workload.check(prep, command, rng)
    except Exception as exc:  # any parse failure means the command failed
        return [f"{command.kind}: unreadable output: {exc!r}"]


def _missing(out: Path, names) -> list[str]:
    return [f"{out / name}: missing" for name in names if not (out / name).is_file()]


@dataclass(frozen=True)
class Workload:
    """One seeded fit problem plus the CLI commands a cycle runs on it."""

    name: str
    n: int
    segments: int
    degree: int
    k: int
    lam: float
    boundary_mode: str = "open"
    strain_weight: float = 0.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    regularization: str = "none"
    epochs: int = 1000
    resolution: int = 33
    # training.epochs_to_tol counts recorded epochs until total - total* <= tol_gap
    tol_gap: float = 1e-4

    def train_config(self, lam=None) -> TrainConfig:
        return TrainConfig(
            segments=self.segments, degree=self.degree, epochs=self.epochs,
            loss=LossConfig(lam=self.lam if lam is None else lam, k=self.k,
                            boundary_mode=self.boundary_mode,
                            strain_weight=self.strain_weight),
            optimizer=self.optimizer, regularization=self.regularization,
        )

    def fit_flags(self) -> list[str]:
        opt = self.optimizer
        flags = ["--segments", str(self.segments), "--degree", str(self.degree),
                 "--k", str(self.k), "--boundary-mode", self.boundary_mode,
                 "--strain-weight", repr(self.strain_weight), "--epochs", str(self.epochs),
                 "--optimizer", opt.kind, "--lr", repr(opt.learning_rate),
                 "--regularization", self.regularization, "--init", "zeros",
                 "--resolution", str(self.resolution)]
        if opt.momentum:
            flags += ["--momentum", repr(opt.momentum)]
        if opt.nesterov:
            flags.append("--nesterov")
        return flags

    @property
    def boundaries(self) -> int:
        return self.segments - 1 if self.boundary_mode == "open" else self.segments

    def shape(self) -> dict:
        opt = self.optimizer
        return {"m": self.segments, "n": self.n, "d": self.degree, "k": self.k,
                "boundary_mode": self.boundary_mode, "lambda": self.lam,
                "optimizer": f"{opt.kind} lr={opt.learning_rate} momentum={opt.momentum} "
                             f"nesterov={opt.nesterov}",
                "regularization": self.regularization, "epochs": self.epochs,
                "loop": "closed loop, one client, one CLI command at a time"}

    def tiny(self) -> "Workload":
        raise NotImplementedError

    def setup(self, workdir: Path, seed: int) -> Prepared:
        raise NotImplementedError

    def commands(self, prep: Prepared, out: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, prep: Prepared, command: Command, rng) -> list[str]:
        raise NotImplementedError

    def gaps(self, prep: Prepared, out: Path) -> dict[str, float]:
        """total - total* per fit the cycle reports; optimality_gap is the largest."""
        raise NotImplementedError


@dataclass(frozen=True)
class PaperSweep(Workload):
    lambdas: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25, 0.0)

    def tiny(self):
        return replace(self, epochs=200, tol_gap=1.0)

    def setup(self, workdir, seed):
        xs = np.linspace(0.0, 16.0, self.n)
        samples = SampleSet(xs, pinned_wave(xs))
        # The seed only shuffles the CSV rows: the CLI sorts them stably by x,
        # so every seed poses the acceptance gate's exact problem.
        path = workdir / "wave.csv"
        write_csv(path, xs, samples.ys, np.random.default_rng(seed).permutation(self.n))
        optimum = {lam: exact_minimum(samples, self.train_config(lam)) for lam in self.lambdas}
        return Prepared(samples, {"samples": path}, optimum, _cross_check(seed))

    def _subdir(self, lam):
        return f"lambda_{lam:g}"

    def commands(self, prep, out):
        lambdas = ",".join(f"{lam:g}" for lam in self.lambdas)
        argv = ["sweep", "--input", str(prep.files["samples"]), "--out", str(out / "sweep"),
                "--lambdas", lambdas, *self.fit_flags()]
        return [Command("sweep", argv, out / "sweep")]

    def check(self, prep, command, rng):
        out = command.out
        problems = _missing(out, ["summary.csv"] + [
            f"{self._subdir(lam)}/{name}" for lam in self.lambdas
            for name in ("history.csv", "model.json", "curve.csv", "repair.json")])
        if problems:
            return problems
        rows = [line.split(",") for line in
                (out / "summary.csv").read_text().strip().splitlines()[1:]]
        values = np.array(rows, dtype=float)
        if values.shape != (len(self.lambdas), 5) or not np.isfinite(values).all():
            return [f"{out}/summary.csv: expected {len(self.lambdas)} finite rows"]
        if not np.array_equal(values[:, 0], self.lambdas):
            problems.append(f"{out}/summary.csv: lambda column {values[:, 0]}")
        for row, lam in zip(values, self.lambdas):
            sub = out / self._subdir(lam)
            found, total = final_history_row(sub / "history.csv", self.epochs)
            problems += found
            if total != row[1]:
                problems.append(f"{sub}: summary total {row[1]!r} != history {total!r}")
            problems += check_repair(sub / "repair.json", self.boundaries)
            problems += check_curve(sub / "curve.csv", sub / "model.json",
                                    self.k, self.resolution, rng)
        return problems

    def gaps(self, prep, out):
        rows = (out / "sweep" / "summary.csv").read_text().strip().splitlines()[1:]
        totals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        return {f"lambda={lam:g}": totals[lam] - prep.optimum[lam] for lam in self.lambdas}


@dataclass(frozen=True)
class DensePeriodic(Workload):
    length: float = 64.0
    noise: float = 0.01

    def tiny(self):
        return replace(self, n=2048, segments=16, epochs=30, tol_gap=10.0)

    def setup(self, workdir, seed):
        rng = np.random.default_rng(seed)
        xs = seeded_abscissae(rng, self.n, self.length)
        ys = smooth_wave(xs, self.length) + self.noise * rng.standard_normal(self.n)
        samples = SampleSet(xs, ys)
        path = workdir / "dense.csv"
        write_csv(path, xs, ys)
        optimum = {self.lam: exact_minimum(samples, self.train_config())}
        return Prepared(samples, {"samples": path}, optimum, _cross_check(seed))

    def commands(self, prep, out):
        argv = ["fit", "--input", str(prep.files["samples"]), "--out", str(out / "fit"),
                "--lambda", repr(self.lam), "--repair", *self.fit_flags()]
        return [Command("fit", argv, out / "fit")]

    def check(self, prep, command, rng):
        out = command.out
        problems = _missing(out, ("history.csv", "model.json", "curve.csv", "repair.json"))
        if problems:
            return problems
        problems, _ = final_history_row(out / "history.csv", self.epochs)
        problems += check_repair(out / "repair.json", self.boundaries)
        return problems + check_curve(out / "curve.csv", out / "model.json",
                                      self.k, self.resolution, rng)

    def gaps(self, prep, out):
        _, total = final_history_row(out / "fit" / "history.csv", self.epochs)
        return {f"lambda={self.lam:g}": total - prep.optimum[self.lam]}


@dataclass(frozen=True)
class RepairEval(Workload):
    length: float = 64.0
    # Without noise, or with segments that own few or clustered samples, the
    # least-squares jumps (and so the l2 the repair costs) are round-off of
    # the per-segment normal equations and scatter over decades from seed to
    # seed.  Stratified abscissae and this noise keep them well above it.
    noise: float = 1e-6

    def tiny(self):
        return replace(self, n=1024, segments=32, epochs=5, tol_gap=1e3)

    def setup(self, workdir, seed):
        rng = np.random.default_rng(seed)
        xs = stratified_abscissae(rng, self.n, self.length)
        ys = smooth_wave(xs, self.length) + self.noise * rng.standard_normal(self.n)
        samples = SampleSet(xs, ys)
        path = workdir / "samples.csv"
        write_csv(path, xs, samples.ys)
        model, _ = make_scaled_problem(samples, self.segments, self.degree)
        model = least_squares_init(model, samples)
        model_path = workdir / "model.json"
        save_model(model, model_path)
        # Per-segment least squares is the exact minimum of the lambda = 1
        # problem; accept it only where its gradient vanishes.
        grad = LossEngine(model, samples, LossConfig(1.0, self.k)).gradient()
        if not np.abs(grad).max() <= STATIONARY_TOL * max(1.0, float(np.abs(samples.ys).max())):
            raise ArithmeticError("least-squares model is not stationary")
        optimum = {1.0: l2_loss(model, samples)}
        return Prepared(samples, {"samples": path, "model": model_path},
                        optimum, _cross_check(seed))

    def commands(self, prep, out):
        k = str(self.k)
        return [
            Command("repair", ["repair", "--model", str(prep.files["model"]),
                               "--out", str(out / "repair"), "--k", k], out / "repair"),
            Command("eval", ["eval", "--model", str(out / "repair" / "model.json"),
                             "--out", str(out / "eval"), "--k", k,
                             "--resolution", str(self.resolution)], out / "eval"),
        ]

    def check(self, prep, command, rng):
        out = command.out
        if command.kind == "repair":
            return (_missing(out, ("model.json", "repair.json"))
                    or check_repair(out / "repair.json", self.boundaries))
        return (_missing(out, ("curve.csv",))
                or check_curve(out / "curve.csv", out.parent / "repair" / "model.json",
                               self.k, self.resolution, rng))

    def gaps(self, prep, out):
        """l2 the repair costs over the exact l2 minimum (the least-squares model)."""
        repaired = load_model(out / "repair" / "model.json")
        return {"repaired l2": l2_loss(repaired, prep.samples) - prep.optimum[1.0]}


AMSGRAD = OptimizerConfig("amsgrad", 0.1, beta1=0.9, beta2=0.999, epsilon=1e-7)
SGD_NESTEROV = OptimizerConfig("sgd", 0.1, momentum=0.95, nesterov=True)

# Why each workload exists is recorded in BENCHMARK.json.  Each puts most of
# its time in different layers, so a gain in one layer shows on one workload
# and leaves another flat.  dense-periodic runs by hand but is not listed
# there: its wall time, with two BLAS threads, follows the host's load too
# closely to meet any bound the benchmark may set.
WORKLOADS = {
    w.name: w for w in (
        PaperSweep(
            name="paper-sweep", n=128, segments=8, degree=5, k=2, lam=0.5,
            optimizer=AMSGRAD, epochs=10000, tol_gap=1e-4),
        DensePeriodic(
            name="dense-periodic", n=65536, segments=512, degree=7, k=3, lam=0.5,
            boundary_mode="periodic", strain_weight=1e-3, optimizer=SGD_NESTEROV,
            regularization="degree_based", epochs=300, tol_gap=1e-3),
        # its fit problem (lambda = 1, 20 epochs) only feeds the traced run's
        # training probes; the cycle itself trains nothing
        RepairEval(
            name="repair-eval", n=131072, segments=4096, degree=7, k=3, lam=1.0,
            optimizer=AMSGRAD, epochs=20, tol_gap=1.0),
    )
}
