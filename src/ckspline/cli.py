"""Command-line front end: fit, repair, eval, and lambda-sweep runs.

Input is two-column x,y CSV; configuration comes from a flat key=value file
(--config) with CLI flags taking precedence.  RunManifest is the one table
of options: each field's line states its default, the commands whose flag
sets it, its TrainConfig target, its choices and its help.  The parser,
the config keys and to_train_config are built from it, and an error that
starts with a library field names the command's flag instead (--lr, not
learning_rate).  A command takes only the flags it uses: --resolution is a
flag of the commands that write curve.csv (fit, sweep, eval) and --lambda
of fit alone, as a sweep's lambdas come from --lambdas.  Flags are spelled
in full.  beta1, beta2 and epsilon are config keys with no flag; --config
and sweep's --lambdas are flags with no key.  The config keys are the same
for every command, so one file serves them all, and a key's value is
checked against its field's choices as the file is read, as argparse
checks a flag's.

Results land in the output directory as model.json, history.csv, curve.csv,
and repair.json (plus summary.csv for a sweep).  One writer, _text._rows,
writes every number of every file as exactly the bytes of "%.17g" % value:
a table of 512 values or more through a numpy kernel, up to 2,048 values at
a time, and a smaller one through the %-format itself.  So reloading is
lossless (load_model reads the "-0" of a negative zero back as -0.0) and
reruns of the same manifest are byte-identical.  load_model accepts only
JSON numbers that fit a double in the numeric fields.  It walks the file's
text with json's own scanner and decodes the numeric arrays a block of
about 2,048 numbers at a time into float64, so that its peak memory stays
near twice the file's size.

Every command checks its flags before it reads a file, including that no
flag asks for an array above _MAX_BYTES (1 GiB); the relations that need
the data (the samples' basis powers and eval's --k against the model's
degree) are checked once the file is read, before the tables are built.
curve.csv is built and written a block of whole segments at a time, so its
memory does not grow with the model.  Each command loads only the
modules it calls: fit and sweep the training modules (losses, optimizers,
training) and repair, repair only repair, eval neither.  Exit codes: 0
success, 1 configuration error (including a malformed or unknown flag, a
malformed model file or an ill-conditioned repair), 2 divergence, 3 I/O
error.  `python -m ckspline.cli` runs as the `ckspline` command.

Importing this module before numpy, as the `ckspline` command does, sets
OPENBLAS_NUM_THREADS=1 unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is already set.  numpy's OpenBLAS otherwise starts a worker
per extra core that busy-waits beside the command, and splits the dot
products over more than 10,000 samples, which gains no wall time.  A
process that has imported numpy already keeps its own setting; the package
exports its names lazily so that the command reaches this guard first.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

# before numpy loads: one BLAS thread unless the environment names a count
if "numpy" not in sys.modules and not any(
        name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                        "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from ._text import _NUMBER, _block_rows, _rows
from .model import (BOUNDARY_MODES, INITS, OPTIMIZER_KINDS, REGULARIZATIONS, SCALINGS,
                    ConditioningError, DomainMap, SampleSet, SplineModel, _derivatives, evaluate)

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

# The names the commands call from the training modules and repair, found
# through the package's own table of exports (ckspline._EXPORTS).  They are
# module globals bound on first use, so that repair loads only repair and
# eval neither: fit and sweep bind them all as they build their TrainConfigs
# (RunManifest.to_train_config), repair binds repair_continuity once the
# model is loaded, and any other reader, such as a tracer that wraps
# cli.fit, loads a name through __getattr__.  _bind keeps a name already
# bound, a tracer's wrapper too.
_LAZY = ("LossConfig", "OptimizerConfig", "TrainConfig", "fit", "fit_sweep", "repair_continuity")
# curve.csv rows per block, when a segment's rows fit: a block's grid,
# values and table take well under 1 MB, and its text goes to the file
# before the next block is built; smaller blocks cost time per block
_CURVE_ROWS = 8192
# the largest array a flag may ask for: the curve block of --resolution, the
# loss operator of --degree and --segments, the history of --epochs and the
# basis powers of the samples at --degree
_MAX_BYTES = 1 << 30


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(__package__), name)
    globals()[name] = value
    return value


def _bind(*names):
    """Bind each of names from _LAZY as a module global, unless it is bound."""
    for name in names:
        if name not in globals():
            __getattr__(name)


def _option(default, commands, target=None, help=None, *, flag=None, choices=None):
    """A RunManifest field: its default, the commands whose flag sets it, its
    TrainConfig target (such as "loss.lam"), help text, flag and choices.

    The flag is --<name with dashes> unless flag names it; a field of no
    command is a config key only.
    """
    return field(default=default, metadata={"commands": commands, "target": target,
                                            "help": help, "flag": flag, "choices": choices})


def _flag(option) -> str:
    return option.metadata["flag"] or "--" + option.name.replace("_", "-")


_TRAIN, _ALL = ("fit", "sweep"), ("fit", "sweep", "repair", "eval")


@dataclass
class RunManifest:
    """Everything one run needs; each field is a config key and the flag of its commands."""

    input: str = _option("", _TRAIN, None, "input CSV with header x,y")
    out: str = _option("", _ALL, None, "output directory")
    model: str = _option("", ("repair", "eval"), None, "model.json to read")
    segments: int = _option(8, _TRAIN, "segments")
    degree: int = _option(5, _TRAIN, "degree")
    k: int = _option(2, _ALL, "loss.k", "continuity order, or eval's highest derivative")
    lam: float = _option(0.5, ("fit",), "loss.lam", "blend weight between fit error and "
                         "continuity", flag="--lambda")
    epochs: int = _option(1000, _TRAIN, "epochs")
    optimizer: str = _option("amsgrad", _TRAIN, "optimizer.kind", choices=OPTIMIZER_KINDS)
    lr: float = _option(0.1, _TRAIN, "optimizer.learning_rate", "learning rate")
    momentum: float = _option(0.0, _TRAIN, "optimizer.momentum")
    nesterov: bool = _option(False, _TRAIN, "optimizer.nesterov")
    beta1: float = _option(0.9, (), "optimizer.beta1")
    beta2: float = _option(0.999, (), "optimizer.beta2")
    epsilon: float = _option(1e-7, (), "optimizer.epsilon")
    regularization: str = _option("none", _TRAIN, "regularization", choices=REGULARIZATIONS)
    init: str = _option("zeros", _TRAIN, "init", choices=INITS)
    scaling: str = _option("unit_segments", _TRAIN, "scaling", choices=SCALINGS)
    boundary_mode: str = _option("open", _TRAIN + ("repair",), "loss.boundary_mode",
                                 choices=BOUNDARY_MODES)
    strain_weight: float = _option(0.0, _TRAIN, "loss.strain_weight")
    resolution: int = _option(33, _TRAIN + ("eval",), None, "curve points per segment")
    record_every: int = _option(10, _TRAIN, "record_every")
    repair: bool = _option(False, ("fit",), None, "apply continuity repair after fitting")

    def to_train_config(self) -> TrainConfig:
        """The training.TrainConfig of these settings; loads what run and sweep call."""
        _bind(*_LAZY)
        parts = {"": {}, "loss": {}, "optimizer": {}}
        for option in fields(self):
            if option.metadata["target"]:
                part, _, name = option.metadata["target"].rpartition(".")
                parts[part][name] = getattr(self, option.name)
        return TrainConfig(loss=LossConfig(**parts["loss"]),
                           optimizer=OptimizerConfig(**parts["optimizer"]), **parts[""])


_TYPES = typing.get_type_hints(RunManifest)
# config keys spelled as their flag, not as their field
_CONFIG_KEYS = {_flag(option)[2:]: option.name for option in fields(RunManifest)
                if option.metadata["flag"]}


@contextlib.contextmanager
def _flag_names(command: str, **flags):
    """Reraises a ValueError whose text starts with a library field, such as
    learning_rate, with command's flag for that field, such as --lr, instead.

    flags gives a field another flag, as sweep gives lam its --lambdas.
    """
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        for option in fields(RunManifest):
            if command in option.metadata["commands"]:
                flags.setdefault((option.metadata["target"] or option.name).rpartition(".")[2],
                                 _flag(option))
        if name not in flags:
            raise
        raise ValueError(f"{flags[name]} {rest}") from None


def load_samples(path) -> SampleSet:
    """Parse a two-column x,y CSV; rows are stably sorted by x."""
    path = Path(path)
    with path.open(newline="") as handle:
        try:
            rows = list(csv.reader(handle))
        except csv.Error as exc:
            raise ValueError(f"{path}: malformed CSV: {exc}") from None
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


def _json_array(table):
    """Yield the text of a 1-D table as a JSON array of numbers, a 2-D one as an array of rows."""
    table = np.asarray(table, dtype=float)
    row = _NUMBER if table.ndim == 1 else "[" + ", ".join([_NUMBER] * table.shape[1]) + "]"
    yield "["
    yield from _rows(table, row, ", ")
    yield "]"


def _write_json(fields: dict, path: Path):
    """fields maps each key to the pieces of its value's JSON text, written as they come."""
    with path.open("w") as handle:
        sep = "{\n"
        for key, pieces in fields.items():
            handle.write(f"{sep}  {json.dumps(key)}: ")
            handle.writelines(pieces)
            sep = ",\n"
        handle.write("\n}\n")


def _write_csv(path: Path, header: str, table):
    """The header line, then one line per table row."""
    row = _NUMBER + ("," + _NUMBER) * header.count(",") + "\n"
    with path.open("w") as handle:
        handle.write(header + "\n")
        handle.writelines(_rows(table, row, ""))


def save_model(model: SplineModel, path):
    domain = model.domain_map
    _write_json(
        {
            "degree": [str(model.degree)],
            "breakpoints": _json_array(model.breakpoints),
            "centers": _json_array(model.centers),
            "coefficients": _json_array(model.coefficients),
            "domain_map": _rows([[domain.a, domain.b]], f'{{"a": {_NUMBER}, "b": {_NUMBER}}}', ""),
        },
        Path(path),
    )


def _json_numbers(path: Path, field: str, values) -> np.ndarray:
    """values, a float array from _numbers or a decoded JSON value, as a float array.

    A decoded value must be JSON numbers only, in nested lists.
    """
    if isinstance(values, np.ndarray):
        return values
    entries = np.array(values, dtype=object)
    # bool is an int subclass; a string would parse as a float
    if not all(type(entry) in (int, float, _NegativeZero) for entry in entries.ravel()):
        raise ValueError(f"{path}: {field} must hold only JSON numbers")
    try:
        return entries.astype(float)
    except OverflowError:
        raise ValueError(f"{path}: {field} holds an integer too large for a double") from None


class _NegativeZero(float):
    """The JSON integer -0, %.17g's spelling of a negative zero: -0.0 as a number, 0 as a degree."""


def _json_int(text: str):
    """A JSON integer as an int, except -0, which keeps its sign as a _NegativeZero."""
    return _NegativeZero(-0.0) if text == "-0" else int(text)


# json's own (C) scanner decodes every value of a model file
_DECODER = json.JSONDecoder(parse_int=_json_int)
_WHITESPACE = json.decoder.WHITESPACE.match
_ARRAYS = ("breakpoints", "centers", "coefficients")
# A block of an array is a run of up to _BLOCK_ELEMENTS numbers or flat
# rows of numbers in at most _BLOCK_CHARS characters: about 2,048 numbers of
# "%.17g" text, whose Python floats take about 64 KB while np.array packs them
_BLOCK_ELEMENTS, _BLOCK_CHARS = 2048, 2048 * 24
_ELEMENT = r"[ \t\n\r]*(?:\[[-+.0-9eE \t\n\r,]*\]|[-+.0-9eE]+)[ \t\n\r]*"
_BLOCK = re.compile(rf"(?:{_ELEMENT},){{0,{_BLOCK_ELEMENTS - 1}}}{_ELEMENT}(?=[,\]])")


def _numbers(text: str, pos: int):
    """The JSON value at text[pos] and its end; an array of numbers as one float array.

    An array of numbers, or of equal rows of numbers, is decoded a block of
    elements at a time.  _BLOCK limits a block to number characters,
    whitespace, commas and brackets, so the scanner can return only numbers
    and lists of them, and np.array packs them into float64 with no check
    per number.  Any other value, and an array with an element _BLOCK does
    not match or a block the scanner or np.array rejects (a syntax error, a
    ragged row, an integer too large for a double), is decoded whole from
    the file text instead, so that _json_numbers checks it and a syntax
    error points into the file.
    """
    start, blocks = pos, []
    if text.startswith("[", pos):
        pos += 1
        while match := _BLOCK.match(text, pos, pos + _BLOCK_CHARS):
            try:
                blocks.append(np.array(_DECODER.raw_decode(f"[{match.group()}]")[0], dtype=float))
            except (ValueError, OverflowError):  # JSONDecodeError is a ValueError
                break
            pos = match.end() + 1
            if text[match.end()] == "]":
                try:
                    return np.concatenate(blocks), pos
                except ValueError:  # blocks of different row lengths
                    break
    return _DECODER.raw_decode(text, start)


def _model_fields(text: str):
    """The top-level value of a model file's text, as json.loads gives it.

    An object's values of _ARRAYS keys come from _numbers; every other
    value, and a top level that is not an object, from the scanner.  A
    syntax error raises json.JSONDecodeError.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    pos = _WHITESPACE(text).end()
    if not text.startswith("{", pos):
        value, pos = _DECODER.raw_decode(text, pos)
    else:
        value, pos = {}, _WHITESPACE(text, pos + 1).end()
        more = not text.startswith("}", pos)
        while more:
            if not text.startswith('"', pos):
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                           text, pos)
            key, pos = json.decoder.scanstring(text, pos + 1)
            pos = _WHITESPACE(text, pos).end()
            if not text.startswith(":", pos):
                raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
            decode = _numbers if key in _ARRAYS else _DECODER.raw_decode
            value[key], pos = decode(text, _WHITESPACE(text, pos + 1).end())
            pos = _WHITESPACE(text, pos).end()
            more = text.startswith(",", pos)
            if more:
                pos = _WHITESPACE(text, pos + 1).end()
            elif not text.startswith("}", pos):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos += 1
    pos = _WHITESPACE(text, pos).end()
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    return value


def load_model(path) -> SplineModel:
    """The model that save_model wrote to path.

    The file's text is decoded in one walk, with its numeric arrays a block
    of rows at a time (_numbers), so no Python float outlives its block.
    """
    path = Path(path)
    try:
        obj = _model_fields(path.read_text())
    except RecursionError:
        raise ValueError(f"{path}: model file is nested too deeply to parse") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from None
    try:
        degree = obj["degree"]
        if type(degree) is _NegativeZero:
            degree = 0
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError(f"{path}: degree must be an integer, got {json.dumps(degree)}")
        breakpoints, coefficients, centers = (
            _json_numbers(path, key, obj[key]) for key in ("breakpoints", "coefficients", "centers"))
        a, b = obj["domain_map"]["a"], obj["domain_map"]["b"]
        _json_numbers(path, "domain_map", [a, b])
        return SplineModel(breakpoints, degree, coefficients, centers,
                           DomainMap(float(a), float(b)))
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from None


def _write_curve(model: SplineModel, k: int, resolution: int, path: Path):
    """Sampled curve and derivatives 0..k in data coordinates, a block of segments at a time.

    Each segment has resolution points, and each segment after the first
    skips its shared start.  Every block's rows are written before the next
    block is built, so the memory held does not grow with the model.
    """
    xi, m = model.breakpoints, model.num_segments
    per_block = max(1, _CURVE_ROWS // (resolution - 1))
    # A grid step that underflows to 0 switches one linspace over the whole
    # model to another formula for every segment.  Each block's linspace
    # then gets one more segment, of zero width, whose row is dropped: its
    # step of 0 puts the block on that formula too, so it has that call's bits.
    pad = [0.0] if (np.diff(xi) / (resolution - 1) == 0).any() else []

    def blocks():
        for start in range(0, m, per_block):
            stop = min(start + per_block, m)
            lows, highs = np.append(xi[start:stop], pad), np.append(xi[start + 1:stop + 1], pad)
            grid = np.linspace(lows, highs, resolution, axis=1)[:stop - start]
            points = grid[:, 1:] if start else np.append(grid[0, 0], grid[:, 1:])
            table = np.empty((points.size, k + 2))
            xs = model.domain_map.inverse(points.ravel())
            table[:, 0] = xs
            # the value column goes through the public evaluate, the call that
            # bench/traced.py times; the derivatives share one more locate
            table[:, 1] = evaluate(model, xs, 0)
            for j, values in enumerate(_derivatives(model, xs, range(1, k + 1)), 2):
                table[:, j] = values
            yield table

    with path.open("w") as handle:
        handle.write("x,f" + "".join(f",d{j}" for j in range(1, k + 1)) + "\n")
        row = _NUMBER + ("," + _NUMBER) * (k + 1) + "\n"
        handle.writelines(_block_rows(blocks(), (m * (resolution - 1) + 1) * (k + 2), row, ""))


def _write_repair_report(report, path: Path):
    _write_json(
        {
            "boundaries": _json_array(report.positions),
            "pre_defects": _json_array(report.pre_defects),
            "post_defects": _json_array(report.post_defects),
            "mean_targets": _json_array(report.mean_targets),
            "max_correction": _rows([report.max_correction], _NUMBER, ""),
        },
        Path(path),
    )


def run(manifest: RunManifest) -> int:
    """Fit per the manifest and write all result files; see module exit codes."""
    with _flag_names("fit"):
        _check_manifest(manifest, "fit", "input")
        config = manifest.to_train_config()
    return _write_fit(manifest, fit(_fit_samples(manifest, 1), config))[0]


def _check_manifest(manifest: RunManifest, command: str, source: str):
    """The commands' shared flag checks; source names the input path's flag.

    --resolution and its curve block are checked only for the commands that
    take the flag, those that write curve.csv; repair writes none.
    """
    if not getattr(manifest, source) or not manifest.out:
        raise ValueError(f"{command} needs --{source} and --out")
    if manifest.k < 0:
        raise ValueError(f"--k must be >= 0, got {manifest.k}")
    if command == "repair":
        return
    if manifest.resolution < 2:
        raise ValueError(f"--resolution must be >= 2, got {manifest.resolution}")
    # a curve block's table: at most max(_CURVE_ROWS, resolution - 1) + 1
    # rows (_write_curve) of k + 2 columns
    rows = max(_CURVE_ROWS, manifest.resolution - 1) + 1
    _check_bytes(f"--resolution {manifest.resolution} and --k {manifest.k}",
                 rows * (manifest.k + 2), "curve block")


def _fit_samples(manifest: RunManifest, runs: int) -> SampleSet:
    """The samples of manifest.input, once a fit of runs lambdas fits _MAX_BYTES.

    Its largest tables are checked before they are allocated: the loss
    operator's (d+1, 3(d+1)) block row per segment and run (losses._Forms)
    and the history's row of 5 per record epoch and run before the read, and
    the (n, d+1) basis powers of the n samples (losses._sample_tables) after.
    """
    block = 3 * (manifest.degree + 1) ** 2
    _check_bytes(f"--degree {manifest.degree}", block, "loss operator per segment")
    _check_bytes(f"--segments {manifest.segments}", block * manifest.segments * runs,
                 f"loss operator at --degree {manifest.degree} for {runs} lambda(s)")
    records = -(-manifest.epochs // manifest.record_every) + 1
    _check_bytes(f"--epochs {manifest.epochs}", 5 * records * runs,
                 f"history at --record-every {manifest.record_every} for {runs} lambda(s)")
    samples = load_samples(manifest.input)
    _check_bytes(f"--degree {manifest.degree} over {len(samples)} samples",
                 len(samples) * (manifest.degree + 1), "basis powers")
    return samples


def _check_bytes(flag: str, doubles: int, table: str):
    """A table of doubles that flag asks for must fit _MAX_BYTES."""
    if 8 * doubles > _MAX_BYTES:
        raise ValueError(f"{flag}: {8 * doubles / 2**30:,.1f} GiB of {table} is above "
                         f"the {_MAX_BYTES >> 30} GiB ceiling")


def _write_fit(manifest: RunManifest, report):
    """One fit's result files under manifest.out and its stdout line.

    Returns the exit code and the repair report (None without repair).
    """
    outdir = Path(manifest.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "history.csv", "epoch,total,l2,ck,strain", report.table)
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
    _, total, l2, ck, _ = report.table[-1].tolist()
    print(f"fit: {manifest.epochs} epochs, final total={total:.6g} l2={l2:.6g} ck={ck:.6g}")
    return 0, repair_report


def sweep(manifest: RunManifest, lambda_values) -> int:
    """One fit plus repair per lambda, under out/lambda_<value>/, plus summary.csv.

    The samples are loaded once and all lambdas train in lockstep
    (training.fit_sweep); each lambda's files are then written in order,
    and the first diverged lambda ends the sweep with exit code 2.
    """
    with _flag_names("sweep", lam="--lambdas"):
        _check_manifest(manifest, "sweep", "input")
        values = list(lambda_values)
        if not values:
            raise ValueError("--lambdas must not be empty")
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
        configs = [sub.to_train_config() for sub in subs]  # LossConfig checks each lambda
    reports = fit_sweep(_fit_samples(manifest, len(values)), configs[0], values)
    rows = []
    for sub, report in zip(subs, reports):
        code, repair_report = _write_fit(sub, report)
        if code != 0:
            return code
        _, total, l2, ck, _ = report.table[-1].tolist()
        rows.append((sub.lam, total, l2, ck, np.abs(repair_report.post_defects).max(initial=0.0)))
    _write_csv(outdir / "summary.csv", "lambda,total,l2,ck,post_repair_max_defect", rows)
    return 0


def _coerce(source: str, raw: str, target_type):
    """raw as a target_type; source names where raw came from in an error."""
    if target_type is bool:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{source}: expected a boolean, got {raw!r}")
    try:
        return target_type(raw)
    except ValueError:
        raise ValueError(f"{source}: cannot parse {raw!r}") from None


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
        values[_CONFIG_KEYS.get(key, key)] = value.strip()
    return values


def _build_manifest(args: argparse.Namespace) -> RunManifest:
    """The defaults, then the --config file's keys, then the flags given.

    A config value of a field with choices must be one of them, as its
    flag's value must, whether or not the command reads the field.
    """
    manifest = RunManifest()
    if getattr(args, "config", None):
        choices = {option.name: option.metadata["choices"] for option in fields(RunManifest)}
        for key, raw in _read_manifest_file(Path(args.config)).items():
            if key not in _TYPES:
                raise ValueError(f"unknown config key {key!r}")
            value = _coerce(f"config key {key}", raw, _TYPES[key])
            if choices[key] and value not in choices[key]:
                raise ValueError(f"config key {key}: expected one of {choices[key]}, "
                                 f"got {value!r}")
            setattr(manifest, key, value)
    return replace(manifest, **{name: value for name, value in vars(args).items()
                                if name in _TYPES and value is not None})


def _cmd_fit(args) -> int:
    return run(_build_manifest(args))


def _cmd_sweep(args) -> int:
    manifest = _build_manifest(args)
    parts = [part.strip() for part in (args.lambdas or "").split(",")]
    return sweep(manifest, [_coerce("--lambdas", part, float) for part in parts if part])


def _cmd_repair(args) -> int:
    manifest = _build_manifest(args)
    _check_manifest(manifest, "repair", "model")
    model = load_model(manifest.model)
    _bind("repair_continuity")
    repaired, report = repair_continuity(model, manifest.k, manifest.boundary_mode)
    outdir = Path(manifest.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_model(repaired, outdir / "model.json")
    _write_repair_report(report, outdir / "repair.json")
    print(f"repair: max pre defect {np.abs(report.pre_defects).max(initial=0.0):.6g}, "
          f"max post defect {np.abs(report.post_defects).max(initial=0.0):.6g}")
    return 0


def _cmd_eval(args) -> int:
    manifest = _build_manifest(args)
    _check_manifest(manifest, "eval", "model")
    model = load_model(manifest.model)
    if manifest.k > model.degree:
        # every derivative column past the degree is zero
        raise ValueError(f"--k {manifest.k} exceeds the model's degree {model.degree}")
    outdir = Path(manifest.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_curve(model, manifest.k, manifest.resolution, outdir / "curve.csv")
    return 0


_COMMANDS = {
    "fit": ("fit a spline to CSV samples", _cmd_fit),
    "sweep": ("fit once per lambda value", _cmd_sweep),
    "repair": ("repair a saved model", _cmd_repair),
    "eval": ("sample a saved model to curve.csv", _cmd_eval),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ValueError, so it exits 1 as a bad config value does."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="ckspline", description="Piecewise-polynomial curve fitting with "
                     "gradient descent and exact continuity repair.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, _) in _COMMANDS.items():
        # flags are spelled in full: sweep would read --lambda as --lambdas
        command_parser = sub.add_parser(command, help=help, allow_abbrev=False)
        command_parser.add_argument("--config", help="flat key=value configuration file")
        for option in fields(RunManifest):
            if command in option.metadata["commands"]:
                kind = _TYPES[option.name]
                how = {"action": argparse.BooleanOptionalAction} if kind is bool else {
                    "type": None if kind is str else kind, "choices": option.metadata["choices"]}
                command_parser.add_argument(_flag(option), dest=option.name,
                                            help=option.metadata["help"], **how)
        if command == "sweep":
            command_parser.add_argument("--lambdas", help="comma-separated lambda values")

    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][1](args)
    except (ValueError, ConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def console_entry():  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":  # python -m ckspline.cli
    console_entry()
