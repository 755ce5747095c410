"""Command-line front end: fit, repair, eval, and lambda-sweep runs.

Input is two-column x,y CSV; configuration comes from a flat key=value file
(--config) with CLI flags taking precedence.  Results land in the output
directory as model.json, history.csv, curve.csv, and repair.json, all with
17-significant-digit numbers so reloading is lossless and reruns of the
same manifest are byte-identical.

Exit codes: 0 success, 1 configuration error (including a malformed
model file or an ill-conditioned repair), 2 divergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .losses import BOUNDARY_MODES, LossConfig
from .model import DomainMap, SampleSet, SplineModel, evaluate
from .optimizers import OPTIMIZER_KINDS, OptimizerConfig
from .repair import ConditioningError, repair_continuity
from .training import INITS, REGULARIZATIONS, SCALINGS, TrainConfig, fit, fit_sweep

__all__ = [
    "RunManifest",
    "load_samples",
    "load_model",
    "save_model",
    "run",
    "sweep",
    "main",
    "console_entry",
]

_FMT = ".17g"
_CURVE_CHUNK = 4096  # curve.csv rows formatted per write
_KEY_ALIASES = {"lambda": "lam"}


@dataclass
class RunManifest:
    """Everything one fit needs; mirrors the CLI flags and config-file keys."""

    input: str = ""
    out: str = ""
    model: str = ""
    segments: int = 8
    degree: int = 5
    k: int = 2
    lam: float = 0.5
    epochs: int = 1000
    optimizer: str = "amsgrad"
    lr: float = 0.1
    momentum: float = 0.0
    nesterov: bool = False
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    regularization: str = "none"
    init: str = "zeros"
    scaling: str = "unit_segments"
    boundary_mode: str = "open"
    strain_weight: float = 0.0
    resolution: int = 33
    record_every: int = 10
    repair: bool = False
    seed: int = 0  # reserved; training is deterministic

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(
            segments=self.segments,
            degree=self.degree,
            epochs=self.epochs,
            loss=LossConfig(lam=self.lam, k=self.k, boundary_mode=self.boundary_mode,
                            strain_weight=self.strain_weight),
            optimizer=OptimizerConfig(kind=self.optimizer, learning_rate=self.lr,
                                      momentum=self.momentum, nesterov=self.nesterov,
                                      beta1=self.beta1, beta2=self.beta2,
                                      epsilon=self.epsilon),
            regularization=self.regularization,
            init=self.init,
            scaling=self.scaling,
            record_every=self.record_every,
        )


def load_samples(path) -> SampleSet:
    """Parse a two-column x,y CSV; rows are stably sorted by x."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or [cell.strip() for cell in rows[0]] != ["x", "y"]:
        raise ValueError(f"{path}: expected header 'x,y'")
    xs, ys = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: line {lineno}: expected two comma-separated values")
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed number") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        xs.append(x)
        ys.append(y)
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    order = np.argsort(xs, kind="stable")
    return SampleSet(xs[order], ys[order])


def _fmt(value: float) -> str:
    return format(float(value), _FMT)


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_json(obj: dict, path: Path):
    lines = ["{"]
    keys = list(obj)
    for pos, key in enumerate(keys):
        comma = "," if pos < len(keys) - 1 else ""
        lines.append(f"  {json.dumps(key)}: {_json_value(obj[key])}{comma}")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def save_model(model: SplineModel, path):
    _write_json(
        {
            "degree": model.degree,
            "breakpoints": model.breakpoints,
            "centers": model.centers,
            "coefficients": [row for row in model.coefficients],
            "domain_map": {"a": model.domain_map.a, "b": model.domain_map.b},
        },
        Path(path),
    )


def load_model(path) -> SplineModel:
    path = Path(path)
    obj = json.loads(path.read_text())
    try:
        degree = obj["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError(f"{path}: degree must be an integer, got {json.dumps(degree)}")
        return SplineModel(
            np.asarray(obj["breakpoints"], dtype=float),
            degree,
            np.asarray(obj["coefficients"], dtype=float),
            np.asarray(obj["centers"], dtype=float),
            DomainMap(float(obj["domain_map"]["a"]), float(obj["domain_map"]["b"])),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from None


def _write_history(history, path: Path):
    with path.open("w") as handle:
        handle.write("epoch,total,l2,ck,strain\n")
        for row in history:
            handle.write(f"{row.epoch},{_fmt(row.total)},{_fmt(row.l2)},"
                         f"{_fmt(row.ck)},{_fmt(row.strain)}\n")


def _write_curve(model: SplineModel, k: int, resolution: int, path: Path):
    """Sampled curve and derivatives 0..k in data coordinates."""
    xi = model.breakpoints
    # one row per segment; each segment after the first skips its shared start
    grid = np.linspace(xi[:-1], xi[1:], resolution, axis=1)
    xs = model.domain_map.inverse(np.append(grid[0, 0], grid[:, 1:]))
    # filled column by column: stacking a list of columns would hold the
    # curve twice at the peak
    table = np.empty((xs.size, k + 2))
    table[:, 0] = xs
    for j in range(k + 1):
        table[:, j + 1] = evaluate(model, xs, j)
    header = "x,f" + "".join(f",d{j}" for j in range(1, k + 1))
    line = ",".join([f"%{_FMT}"] * table.shape[1]) + "\n"
    with path.open("w") as handle:
        handle.write(header + "\n")
        # one %-format per chunk of rows; chunks keep the text's peak small
        for start in range(0, len(table), _CURVE_CHUNK):
            chunk = table[start:start + _CURVE_CHUNK]
            handle.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def _write_repair_report(report, path: Path):
    _write_json(
        {
            "boundaries": report.positions,
            "pre_defects": [row for row in report.pre_defects],
            "post_defects": [row for row in report.post_defects],
            "mean_targets": [row for row in report.mean_targets],
            "max_correction": report.max_correction,
        },
        Path(path),
    )


def run(manifest: RunManifest) -> int:
    """Fit per the manifest and write all result files; see module exit codes."""
    _check_fit(manifest)
    samples = load_samples(manifest.input)
    return _write_fit(manifest, fit(samples, manifest.to_train_config()))[0]


def _check_resolution(manifest: RunManifest):
    if manifest.resolution < 2:
        raise ValueError("resolution must be >= 2")


def _check_fit(manifest: RunManifest):
    _check_resolution(manifest)
    if not manifest.input or not manifest.out:
        raise ValueError("input and out paths must be set")


def _write_fit(manifest: RunManifest, report):
    """One fit's result files under manifest.out and its stdout line.

    Returns the exit code and the repair report (None without repair).
    """
    outdir = Path(manifest.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_history(report.history, outdir / "history.csv")
    if report.diverged:
        cause = ("loss became non-finite" if report.diverged_segment is None else
                 f"non-finite gradient at segment {report.diverged_segment}, "
                 f"power {report.diverged_power}")
        print(f"diverged at epoch {report.diverged_epoch}: {cause}")
        return 2, None
    model = report.final_model
    repair_report = None
    if manifest.repair:
        model, repair_report = repair_continuity(model, manifest.k, manifest.boundary_mode)
        _write_repair_report(repair_report, outdir / "repair.json")
    save_model(model, outdir / "model.json")
    _write_curve(model, manifest.k, manifest.resolution, outdir / "curve.csv")
    final = report.history[-1]
    print(f"fit: {manifest.epochs} epochs, final total={final.total:.6g} "
          f"l2={final.l2:.6g} ck={final.ck:.6g}")
    return 0, repair_report


def sweep(manifest: RunManifest, lambda_values) -> int:
    """One fit plus repair per lambda, under out/lambda_<value>/, plus summary.csv.

    The samples are loaded once and all lambdas train in lockstep
    (training.fit_sweep); each lambda's files are then written in order,
    and the first diverged lambda ends the sweep with exit code 2.
    """
    values = list(lambda_values)
    if not values:
        raise ValueError("lambda list must not be empty")
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {value}")
    if manifest.degree < 2 * manifest.k + 1:
        raise ValueError(
            f"sweep repairs each fit and needs degree >= 2k+1 = {2 * manifest.k + 1}"
        )
    outdir = Path(manifest.out)
    seen: dict[str, int] = {}
    subs = []
    for value in values:
        name = f"lambda_{value:g}"
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name = f"{name}_{seen[name]}"
        subs.append(replace(manifest, lam=value, out=str(outdir / name), repair=True))
    _check_fit(subs[0])
    samples = load_samples(manifest.input)
    reports = fit_sweep(samples, subs[0].to_train_config(), values)
    rows = []
    for sub, report in zip(subs, reports):
        code, repair_report = _write_fit(sub, report)
        if code != 0:
            return code
        final = report.history[-1]
        rows.append((sub.lam, final.total, final.l2, final.ck,
                     float(np.abs(repair_report.post_defects).max())
                     if repair_report.post_defects.size else 0.0))
    with (outdir / "summary.csv").open("w") as handle:
        handle.write("lambda,total,l2,ck,post_repair_max_defect\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


def _coerce(name: str, raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {name}: expected a boolean, got {raw!r}")
    try:
        return target_type(raw)
    except ValueError:
        raise ValueError(f"config key {name}: cannot parse {raw!r}") from None


def _read_manifest_file(path: Path) -> dict:
    """Flat key=value lines; '#' starts a comment; keys match the CLI flags."""
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        values[_KEY_ALIASES.get(key, key)] = value.strip()
    return values


def _build_manifest(args: argparse.Namespace) -> RunManifest:
    manifest = RunManifest()
    types = typing.get_type_hints(RunManifest)
    if getattr(args, "config", None):
        for key, raw in _read_manifest_file(Path(args.config)).items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            setattr(manifest, key, _coerce(key, raw, types[key]))
    for name in types:
        value = getattr(args, name, None)
        if value is not None:
            setattr(manifest, name, value)
    return manifest


def _add_fit_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--input", help="input CSV with header x,y")
    parser.add_argument("--segments", type=int)
    parser.add_argument("--degree", type=int)
    parser.add_argument("--k", type=int, help="continuity order")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="blend weight between fit error and continuity")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--optimizer", choices=OPTIMIZER_KINDS)
    parser.add_argument("--lr", type=float, help="learning rate")
    parser.add_argument("--momentum", type=float)
    parser.add_argument("--nesterov", action=argparse.BooleanOptionalAction, default=None)
    parser.add_argument("--regularization", choices=REGULARIZATIONS)
    parser.add_argument("--init", choices=INITS)
    parser.add_argument("--scaling", choices=SCALINGS)
    parser.add_argument("--boundary-mode", dest="boundary_mode",
                        choices=BOUNDARY_MODES)
    parser.add_argument("--strain-weight", dest="strain_weight", type=float)
    parser.add_argument("--record-every", dest="record_every", type=int)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--resolution", type=int, help="curve points per segment")


def _cmd_fit(args) -> int:
    manifest = _build_manifest(args)
    return run(manifest)


def _cmd_sweep(args) -> int:
    manifest = _build_manifest(args)
    raw = (args.lambdas or "").strip()
    values = [float(part) for part in raw.split(",") if part.strip() != ""]
    return sweep(manifest, values)


def _cmd_repair(args) -> int:
    manifest = _build_manifest(args)
    if not manifest.model or not manifest.out:
        raise ValueError("repair needs --model and --out")
    model = load_model(manifest.model)
    repaired, report = repair_continuity(model, manifest.k, manifest.boundary_mode)
    outdir = Path(manifest.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_model(repaired, outdir / "model.json")
    _write_repair_report(report, outdir / "repair.json")
    print(f"repair: max pre defect "
          f"{np.abs(report.pre_defects).max() if report.pre_defects.size else 0.0:.6g}, "
          f"max post defect "
          f"{np.abs(report.post_defects).max() if report.post_defects.size else 0.0:.6g}")
    return 0


def _cmd_eval(args) -> int:
    manifest = _build_manifest(args)
    if not manifest.model or not manifest.out:
        raise ValueError("eval needs --model and --out")
    _check_resolution(manifest)
    model = load_model(manifest.model)
    outdir = Path(manifest.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_curve(model, manifest.k, manifest.resolution, outdir / "curve.csv")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ckspline",
        description="Piecewise-polynomial curve fitting with gradient descent "
                    "and exact continuity repair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_parser = sub.add_parser("fit", help="fit a spline to CSV samples")
    _add_common(fit_parser)
    _add_fit_flags(fit_parser)
    fit_parser.add_argument("--repair", action=argparse.BooleanOptionalAction, default=None,
                            help="apply continuity repair after fitting")
    fit_parser.set_defaults(handler=_cmd_fit)

    sweep_parser = sub.add_parser("sweep", help="fit once per lambda value")
    _add_common(sweep_parser)
    _add_fit_flags(sweep_parser)
    sweep_parser.add_argument("--lambdas", help="comma-separated lambda values")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    repair_parser = sub.add_parser("repair", help="repair a saved model")
    _add_common(repair_parser)
    repair_parser.add_argument("--model", help="model.json to repair")
    repair_parser.add_argument("--k", type=int)
    repair_parser.add_argument("--boundary-mode", dest="boundary_mode",
                               choices=BOUNDARY_MODES)
    repair_parser.set_defaults(handler=_cmd_repair)

    eval_parser = sub.add_parser("eval", help="sample a saved model to curve.csv")
    _add_common(eval_parser)
    eval_parser.add_argument("--model", help="model.json to evaluate")
    eval_parser.add_argument("--k", type=int, help="highest derivative column")
    eval_parser.set_defaults(handler=_cmd_eval)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def console_entry():  # pragma: no cover - thin wrapper
    raise SystemExit(main())
