import argparse
import io
import json
import shlex
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ckspline import (
    DomainMap,
    SampleSet,
    SplineModel,
    evaluate,
    least_squares_init,
    load_model,
    load_samples,
    make_scaled_problem,
    repair_continuity,
    save_model,
)
from ckspline import cli
from ckspline.cli import main
from ckspline.losses import _sample_tables

from conftest import benchmark_curve, model_from_global


def write_line_data(path, n=33):
    xs = np.linspace(0, 1, n)
    lines = ["x,y"] + [f"{x},{x}" for x in xs]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_benchmark_data(path):
    xs = np.linspace(0.0, 16.0, 128)
    ys = benchmark_curve(xs)
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------- samples


def test_load_samples_basic(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n0,0\n1,1\n")
    samples = load_samples(path)
    assert len(samples) == 2
    assert_allclose(samples.xs, [0.0, 1.0])


def test_load_samples_skips_blank_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n0,0\n\n1,2\n\n")
    samples = load_samples(path)
    assert_allclose(samples.xs, [0.0, 1.0])
    assert_allclose(samples.ys, [0.0, 2.0])


def test_load_samples_sorts_stably(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1,1\n0,0\n0,5\n")
    samples = load_samples(path)
    assert_allclose(samples.xs, [0.0, 0.0, 1.0])
    assert_allclose(samples.ys, [0.0, 5.0, 1.0])  # ties keep file order


def test_load_samples_rejects_nan_with_line_number(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n0,nan\n1,1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_samples(path)


def test_load_samples_malformed_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n0,0\noops\n")
    with pytest.raises(ValueError, match="line 3"):
        load_samples(path)


def test_load_samples_requires_header_and_two_rows(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b\n0,0\n1,1\n")
    with pytest.raises(ValueError, match="header"):
        load_samples(bad_header)
    short = tmp_path / "s.csv"
    short.write_text("x,y\n0,0\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_samples(short)


def test_load_samples_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_samples(tmp_path / "nope.csv")


# ---------------------------------------------------------------- model json


def test_model_json_round_trip(tmp_path):
    model = model_from_global([0, 1, 2], 3, [[0.1, -0.2, 0.3, 1e-17], [5, 0.125, 0, 1]])
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.coefficients, model.coefficients)
    assert np.array_equal(loaded.breakpoints, model.breakpoints)
    assert loaded.domain_map == model.domain_map
    payload = json.loads(path.read_text())
    assert payload["degree"] == 3


def _json_reference(fields) -> str:
    """A result file's JSON built value by value: every float as format(v, ".17g")."""
    def text(value):
        if isinstance(value, dict):
            return "{" + ", ".join(f"{json.dumps(k)}: {text(v)}" for k, v in value.items()) + "}"
        if isinstance(value, (list, tuple, np.ndarray)):
            return "[" + ", ".join(text(v) for v in value) + "]"
        if isinstance(value, int):
            return str(value)
        return format(float(value), ".17g")
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {text(v)}" for k, v in fields.items()) + "\n}\n"


def _model_reference(model) -> str:
    return _json_reference({
        "degree": model.degree, "breakpoints": model.breakpoints, "centers": model.centers,
        "coefficients": model.coefficients,
        "domain_map": {"a": model.domain_map.a, "b": model.domain_map.b},
    })


def _repair_reference(report) -> str:
    return _json_reference({
        "boundaries": report.positions, "pre_defects": report.pre_defects,
        "post_defects": report.post_defects, "mean_targets": report.mean_targets,
        "max_correction": report.max_correction,
    })


def test_result_files_write_every_number_17g(tmp_path):
    # signed zero, the smallest subnormal, extreme exponents, a value with no
    # short exact decimal and integer-valued floats
    model = SplineModel.from_breakpoints([0.0, 1.0, 2.0], 1, [[-0.0, 5e-324], [1e300, 0.1]],
                                         DomainMap(4.0, 1e-300))
    save_model(model, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_text() == _model_reference(model)

    # more rows than one formatting chunk
    wide = SplineModel.from_breakpoints(np.arange(5001.0), 0,
                                        np.random.default_rng(4).normal(size=(5000, 1)))
    save_model(wide, tmp_path / "wide.json")
    # compared item by item, which keeps a failure's diff fast
    assert (tmp_path / "wide.json").read_text().split(", ") == _model_reference(wide).split(", ")

    single = SplineModel.from_breakpoints([0.0, 1.0], 3, [[0.1, -0.0, 3.0, 1e-300]])
    save_model(single, tmp_path / "single.json")
    for name in ("model.json", "single.json"):
        out = tmp_path / f"repaired_{name}"
        assert main(["repair", "--model", str(tmp_path / name), "--out", str(out),
                     "--k", "0"]) == 0
        repaired, report = repair_continuity(load_model(tmp_path / name), 0, "open")
        assert (out / "model.json").read_text() == _model_reference(repaired)
        assert (out / "repair.json").read_text() == _repair_reference(report)
    assert json.loads((tmp_path / "repaired_single.json" / "repair.json").read_text()) == {
        "boundaries": [], "pre_defects": [], "post_defects": [], "mean_targets": [],
        "max_correction": 0}

    data = write_benchmark_data(tmp_path / "bench.csv")
    assert main(["fit", "--input", str(data), "--out", str(tmp_path / "fit"),
                 "--segments", "2", "--degree", "3", "--k", "1", "--epochs", "5",
                 "--record-every", "2"]) == 0
    lines = (tmp_path / "fit" / "history.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [0, 2, 4, 5]
    assert lines[1:] == [",".join([str(int(row[0]))] + [format(float(v), ".17g") for v in row[1:]])
                         for row in rows]


# ---------------------------------------------------------------- fit verb


def test_fit_command_line_fixture(tmp_path, capsys):
    data = write_line_data(tmp_path / "line.csv")
    out = tmp_path / "run"
    code = main([
        "fit", "--input", str(data), "--out", str(out),
        "--segments", "1", "--degree", "1", "--k", "0",
        "--lambda", "1.0", "--epochs", "2000",
        "--optimizer", "sgd", "--lr", "0.1",
    ])
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,total,l2,ck,strain"
    final_total = float(history[-1].split(",")[1])
    assert final_total <= 1e-5
    assert (out / "model.json").exists()
    assert (out / "curve.csv").exists()


def test_fit_command_rejects_bad_lambda(tmp_path, capsys):
    data = write_line_data(tmp_path / "line.csv")
    code = main([
        "fit", "--input", str(data), "--out", str(tmp_path / "run"),
        "--lambda", "1.5", "--epochs", "1",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_fit_command_reports_divergence(tmp_path, capsys):
    data = write_benchmark_data(tmp_path / "bench.csv")
    out = tmp_path / "run"
    code = main([
        "fit", "--input", str(data), "--out", str(out),
        "--segments", "8", "--degree", "5", "--k", "2",
        "--lambda", "0.5", "--epochs", "3000",
        "--optimizer", "sgd", "--lr", "10",
    ])
    assert code == 2
    out_text = capsys.readouterr().out
    assert "diverged at epoch" in out_text and "loss became non-finite" in out_text
    assert (out / "history.csv").exists()
    assert not (out / "model.json").exists()


def test_fit_command_reports_divergence_location(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text("x,y\n" + "".join(f"{x},1e308\n" for x in range(16)))
    code = main(["fit", "--input", str(data), "--out", str(tmp_path / "run"),
                 "--segments", "2", "--degree", "3", "--k", "1"])
    assert code == 2
    assert capsys.readouterr().out == (
        "diverged at epoch 0: non-finite gradient at segment 1, power 0\n")


def test_fit_command_ill_conditioned_repair_is_config_error(tmp_path, capsys):
    data = write_line_data(tmp_path / "line.csv")
    code = main(["fit", "--input", str(data), "--out", str(tmp_path / "run"),
                 "--segments", "2", "--degree", "31", "--k", "15", "--repair",
                 "--epochs", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ill-conditioned" in err
    assert err.count("\n") == 1


def test_fit_command_sample_range_wider_than_a_double_is_config_error(tmp_path, capsys):
    # the range's width overflows; it used to warn from the sortedness check
    # and then blame the domain map
    data = tmp_path / "wide.csv"
    data.write_text("x,y\n-1e308,0\n1e308,1\n")
    out = tmp_path / "run"
    assert main(["fit", "--input", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: sample range [-1e+308, 1e+308] is wider than a double can hold\n")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["fit", "sweep"])
def test_non_finite_least_squares_start_is_config_error(tmp_path, capsys, verb):
    # targets near the float limit overflow the per-segment solve;
    # RuntimeWarnings are errors under pytest, so this also checks that none
    # is printed
    xs = np.linspace(0.0, 1000.0, 64)
    data = tmp_path / "huge.csv"
    np.savetxt(data, np.column_stack([xs, 1.7e308 * np.sin(xs)]), delimiter=",",
               header="x,y", comments="")
    out = tmp_path / "run"
    flags = ["--init", "least_squares", "--scaling", "none", "--segments", "4",
             "--degree", "3", "--k", "1"] + (["--lambdas", "1,0.5"] if verb == "sweep" else [])
    assert main([verb, "--input", str(data), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == (
        "error: least-squares start is not finite in segment 1: the sample values are too large\n")
    assert not out.exists()


def test_large_targets_give_a_finite_least_squares_start():
    # 1e307 * sin(x) overflowed the normal equations' Gram products; the QR
    # start stays finite and matches per-segment lstsq
    xs = np.linspace(0.0, 1000.0, 64)
    samples = SampleSet(xs, 1e307 * np.sin(xs))
    model, _ = make_scaled_problem(samples, 4, 3, "none")
    coeffs = least_squares_init(model, samples).coefficients
    seg, powers = _sample_tables(model, samples)
    expected = [np.linalg.lstsq(powers[seg == i], samples.ys[seg == i], rcond=None)[0]
                for i in range(4)]
    assert np.isfinite(coeffs).all()
    assert_allclose(coeffs, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("verb, lambdas", [("fit", ["--lambda", "0.5"]),
                                            ("sweep", ["--lambdas", "1,0.5,0"])])
def test_targets_whose_squares_overflow_train_to_the_end(tmp_path, capfd, recwarn, verb,
                                                         lambdas):
    # sum(y**2) overflows a double, but g.c and the recorded totals stay
    # finite, so no lambda diverges and no warning is printed
    xs = np.linspace(0.0, 16.0, 64)
    data = tmp_path / "huge.csv"
    np.savetxt(data, np.column_stack([xs, 1e154 * (1 + xs / 16)]), delimiter=",",
               header="x,y", comments="")
    out = tmp_path / "run"
    assert main([verb, "--input", str(data), "--out", str(out), "--init", "least_squares",
                 "--segments", "8", "--degree", "1", "--k", "0", "--optimizer", "sgd",
                 "--lr", "0.1", "--epochs", "10", *lambdas]) == 0
    assert "diverged" not in capfd.readouterr().out and len(recwarn) == 0
    histories = sorted(out.glob("**/history.csv"))
    assert len(histories) == (1 if verb == "fit" else 3)
    for path in histories:
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "10"]
        assert np.isfinite([[float(v) for v in row.split(",")] for row in rows]).all()


@pytest.mark.parametrize("init", ["least_squares", "zeros"])
def test_overflowing_basis_powers_are_a_config_error(tmp_path, capfd, init):
    # unscaled segments 2.5e99 wide: degree-7 powers overflow a double.  The
    # least-squares start used to print LAPACK's DLASCL lines on the stderr
    # file descriptor and blame the SVD, the zero start to report a
    # divergence at epoch 0; RuntimeWarnings are errors under pytest
    xs = np.linspace(0.0, 1e100, 64)
    data = tmp_path / "wide.csv"
    np.savetxt(data, np.column_stack([xs, np.sin(xs)]), delimiter=",", header="x,y", comments="")
    out = tmp_path / "run"
    assert main(["fit", "--input", str(data), "--out", str(out), "--scaling", "none",
                 "--segments", "4", "--degree", "7", "--k", "1", "--init", init]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the loss operator overflows a double: degree 7 basis powers over segments "
        "2.5e+99 wide with scaling 'none'; use scaling 'unit_segments' or a narrower sample "
        "range\n")
    assert not out.exists()


def test_fit_csv_field_over_the_csv_limit_is_config_error(tmp_path, capsys):
    # a 200,000-digit y value exceeds the csv module's field limit
    data = tmp_path / "long.csv"
    data.write_text("x,y\n0,1\n1," + "1" * 200_000 + "\n")
    out = tmp_path / "run"
    assert main(["fit", "--input", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: malformed CSV: field larger than field limit (131072)\n")
    assert not out.exists()


def test_eval_model_nested_too_deeply_is_config_error(tmp_path, capsys):
    # 100,000 nested lists exceed the JSON parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    out = tmp_path / "curve"
    assert main(["eval", "--model", str(deep), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {deep}: model file is nested too deeply to parse\n")
    assert not out.exists()


def test_eval_malformed_model_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"degree": 3}\n')
    code = main(["eval", "--model", str(bad), "--out", str(tmp_path / "curve")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: model file lacks key 'breakpoints'\n"


@pytest.mark.parametrize("degree", ["1.9", "1.0", "true", '"1"'])
def test_eval_non_integer_degree_is_config_error(tmp_path, capsys, degree):
    path = tmp_path / "model.json"
    save_model(model_from_global([0, 1, 2], 1, [[0.5, 1.0], [1.5, -1.0]]), path)
    path.write_text(path.read_text().replace('"degree": 1,', f'"degree": {degree},'))
    code = main(["eval", "--model", str(path), "--out", str(tmp_path / "curve")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: degree must be an integer, got {degree}\n"


@pytest.mark.parametrize("k", ["-1", "-3"])
def test_eval_negative_k_is_config_error(tmp_path, capsys, k):
    path = tmp_path / "model.json"
    save_model(model_from_global([0, 1, 2], 3, [[0.0], [1.0]]), path)
    out = tmp_path / "curve"
    assert main(["eval", "--model", str(path), "--out", str(out), "--k", k]) == 1
    assert capsys.readouterr().err == f"error: --k must be >= 0, got {k}\n"
    assert not out.exists()


def test_eval_k_above_the_model_degree_is_config_error(tmp_path, capsys):
    # derivative columns past the degree would all be zero
    path = tmp_path / "model.json"
    save_model(model_from_global([0, 1, 2], 3, [[0.0], [1.0]]), path)
    out = tmp_path / "curve"
    assert main(["eval", "--model", str(path), "--out", str(out), "--k", "4"]) == 1
    assert capsys.readouterr().err == "error: --k 4 exceeds the model's degree 3\n"
    assert not out.exists()
    assert main(["eval", "--model", str(path), "--out", str(out), "--k", "3",
                 "--resolution", "3"]) == 0
    assert (out / "curve.csv").read_text().splitlines()[0] == "x,f,d1,d2,d3"


def _replace_first_number(value, bad):
    if isinstance(value, list):
        return [_replace_first_number(value[0], bad)] + value[1:]
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _replace_first_number(value[key], bad)}
    return bad(value)


@pytest.mark.parametrize("bad", [str, bool], ids=["string", "bool"])
@pytest.mark.parametrize("field", ["breakpoints", "centers", "coefficients", "domain_map"])
def test_eval_non_number_model_field_is_config_error(tmp_path, capsys, field, bad):
    path = tmp_path / "model.json"
    save_model(model_from_global([0, 1, 2], 1, [[0.5, 1.0], [1.5, -1.0]]), path)
    payload = json.loads(path.read_text())
    payload[field] = _replace_first_number(payload[field], bad)
    path.write_text(json.dumps(payload))
    code = main(["eval", "--model", str(path), "--out", str(tmp_path / "curve")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {field} must hold only JSON numbers\n"


@pytest.mark.parametrize("field", ["breakpoints", "centers", "coefficients", "domain_map"])
def test_eval_integer_too_large_for_a_double_is_config_error(tmp_path, capsys, field):
    path = tmp_path / "model.json"
    save_model(model_from_global([0, 1, 2], 1, [[0.5, 1.0], [1.5, -1.0]]), path)
    payload = json.loads(path.read_text())
    payload[field] = _replace_first_number(payload[field], lambda _: 10**400)
    path.write_text(json.dumps(payload))
    code = main(["eval", "--model", str(path), "--out", str(tmp_path / "curve")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}: {field} holds an integer too large for a double\n")


def test_model_round_trip_keeps_negative_zeros(tmp_path):
    model = SplineModel.from_breakpoints([-0.0, 1.0, 2.0], 1, [[-0.0, 1.0], [0.5, -0.0]],
                                         DomainMap(2.0, -0.0))
    save_model(model, tmp_path / "first.json")
    reloaded = load_model(tmp_path / "first.json")
    save_model(reloaded, tmp_path / "second.json")
    assert (tmp_path / "second.json").read_bytes() == (tmp_path / "first.json").read_bytes()
    zeros = [reloaded.breakpoints[0], reloaded.coefficients[0, 0], reloaded.coefficients[1, 1],
             reloaded.domain_map.b]
    assert all(z == 0.0 and np.signbit(z) for z in zeros)


def test_model_negative_zero_degree_reads_as_zero(tmp_path):
    path = tmp_path / "model.json"
    save_model(model_from_global([0, 1, 2], 0, [[0.5], [-1.5]]), path)
    first = path.read_text()
    path.write_text(first.replace('"degree": 0,', '"degree": -0,'))
    reloaded = load_model(path)
    assert type(reloaded.degree) is int and reloaded.degree == 0
    save_model(reloaded, path)
    assert path.read_text() == first


def test_fit_command_missing_input(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")])
    assert code == 3


def test_fit_with_config_file_and_flag_override(tmp_path):
    data = write_line_data(tmp_path / "line.csv")
    config = tmp_path / "run.conf"
    config.write_text(
        "\n".join([
            f"input = {data}",
            f"out = {tmp_path / 'a'}",
            "segments = 1",
            "degree = 1",
            "k = 0",
            "lambda = 1.0",
            "epochs = 50",
            "optimizer = sgd",
            "lr = 0.1",
            "# comment line",
        ]) + "\n"
    )
    assert main(["fit", "--config", str(config)]) == 0
    # flag overrides the file value
    assert main(["fit", "--config", str(config), "--out", str(tmp_path / "b"),
                 "--epochs", "0"]) == 0
    history = (tmp_path / "b" / "history.csv").read_text().splitlines()
    assert len(history) == 2  # header plus the single epoch-0 row


def test_config_file_booleans_and_strings(tmp_path):
    data = write_benchmark_data(tmp_path / "bench.csv")
    out = tmp_path / "run"
    config = tmp_path / "run.conf"
    config.write_text(
        "\n".join([
            f"input = {data}",
            f"out = {out}",
            "segments = 4",
            "degree = 5",
            "k = 2",
            "lambda = 0.5",
            "epochs = 50",
            "optimizer = sgd",
            "lr = 0.1",
            "momentum = 0.95",
            "nesterov = true",
            "regularization = degree_based",
            "boundary-mode = cyclic",  # hyphenated keys accepted
            "repair = yes",
        ]) + "\n"
    )
    assert main(["fit", "--config", str(config)]) == 0
    assert (out / "repair.json").exists()


@pytest.mark.parametrize("raw, expected", [("no", False), ("OFF", False), ("0", False),
                                           ("false", False), ("yes", True), ("On", True)])
def test_config_file_boolean_spellings(tmp_path, raw, expected):
    config = tmp_path / "run.conf"
    config.write_text(f"repair = {raw}\n")
    assert cli._build_manifest(argparse.Namespace(config=str(config))).repair is expected


def test_fit_unknown_config_key(tmp_path, capsys):
    data = write_line_data(tmp_path / "line.csv")
    config = tmp_path / "run.conf"
    config.write_text(f"input = {data}\nout = {tmp_path / 'o'}\nwibble = 3\n")
    assert main(["fit", "--config", str(config)]) == 1


class _Parsed(Exception):
    """Carries the parser that main built out of main."""


def command_parsers(monkeypatch) -> dict:
    """Each command's parser, as main builds it for a fit."""
    def parse_args(self, args=None, namespace=None):
        raise _Parsed(self)

    with monkeypatch.context() as patch:
        patch.setattr(cli._Parser, "parse_args", parse_args)
        with pytest.raises(_Parsed) as parsed:
            main(["fit"])
    parser = parsed.value.args[0]
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return commands.choices


def entry(dest, type=None, choices=None, boolean=False):
    return dest, type, choices, boolean


COMMON_FLAGS = {"-h": entry("help"), "--help": entry("help"), "--config": entry("config"),
                "--out": entry("out")}
# the flag of the commands that write curve.csv
RESOLUTION_FLAG = {"--resolution": entry("resolution", "int")}
TRAINING_FLAGS = {
    "--input": entry("input"), "--segments": entry("segments", "int"),
    "--degree": entry("degree", "int"), "--k": entry("k", "int"),
    "--epochs": entry("epochs", "int"),
    "--optimizer": entry("optimizer", None, ("sgd", "adam", "adamax", "amsgrad")),
    "--lr": entry("lr", "float"), "--momentum": entry("momentum", "float"),
    "--nesterov": entry("nesterov", boolean=True), "--no-nesterov": entry("nesterov", boolean=True),
    "--regularization": entry("regularization", None, ("none", "degree_based")),
    "--init": entry("init", None, ("zeros", "least_squares")),
    "--scaling": entry("scaling", None, ("none", "unit_segments")),
    "--boundary-mode": entry("boundary_mode", None, ("open", "cyclic", "periodic")),
    "--strain-weight": entry("strain_weight", "float"),
    "--record-every": entry("record_every", "int"),
}
PARSER_SURFACE = {
    "fit": {**COMMON_FLAGS, **RESOLUTION_FLAG, **TRAINING_FLAGS,
            "--lambda": entry("lam", "float"), "--repair": entry("repair", boolean=True),
            "--no-repair": entry("repair", boolean=True)},
    # every lambda of a sweep comes from --lambdas
    "sweep": {**COMMON_FLAGS, **RESOLUTION_FLAG, **TRAINING_FLAGS, "--lambdas": entry("lambdas")},
    # repair writes no curve.csv
    "repair": {**COMMON_FLAGS, "--model": entry("model"), "--k": entry("k", "int"),
               "--boundary-mode": TRAINING_FLAGS["--boundary-mode"]},
    "eval": {**COMMON_FLAGS, **RESOLUTION_FLAG, "--model": entry("model"),
             "--k": entry("k", "int")},
}


def test_parser_surface_is_pinned(monkeypatch):
    # every option string of every command, with its dest, type, choices and
    # whether it is a --x/--no-x pair
    surface = {
        command: {option: entry(action.dest, getattr(action.type, "__name__", None),
                               tuple(action.choices) if action.choices else None,
                               isinstance(action, argparse.BooleanOptionalAction))
                  for action in parser._actions for option in action.option_strings}
        for command, parser in command_parsers(monkeypatch).items()
    }
    assert surface == PARSER_SURFACE


def test_every_fit_flag_has_a_config_key_giving_the_same_manifest(tmp_path, monkeypatch):
    # the key is the field name, and a flag spelled otherwise is a key too
    default = cli.RunManifest()
    fit = command_parsers(monkeypatch)["fit"]
    flags = [action for action in fit._actions
             if action.option_strings and action.dest not in ("help", "config")]
    assert {action.dest for action in flags} == set(vars(default)) - {"model", "beta1", "beta2",
                                                                       "epsilon"}
    for action in flags:
        old = getattr(default, action.dest)
        option = action.option_strings[0]
        if isinstance(action, argparse.BooleanOptionalAction):
            argv, raw = [option], "true"
        else:
            raw = (next(choice for choice in action.choices if choice != old) if action.choices
                   else "path.csv" if isinstance(old, str) else str(old + 3))
            argv = [option, raw]
        from_flag = cli._build_manifest(fit.parse_args(argv))
        assert from_flag != default, argv
        keys = {action.dest, option[2:]}
        for key in keys:
            config = tmp_path / "run.conf"
            config.write_text(f"{key} = {raw}\n")
            from_key = cli._build_manifest(argparse.Namespace(config=str(config)))
            assert from_key == from_flag, key


LINE_CSV = "x,y\n0,0\n0.5,0.5\n1,1\n"


@pytest.mark.parametrize("files, argv, message", [
    pytest.param({"data.csv": "x,y\n0,1\n1,one\n"}, "fit --input data.csv --out run",
                 "data.csv: line 3: malformed number", id="csv-malformed-number"),
    pytest.param({"model.json": '{"degree": 1, "breakpoints": [0, 1], "centers": [0.5], '
                                '"coefficients": [[0, 1]], "domain_map": [1, 0]}'},
                 "eval --model model.json --out run", "model.json: malformed model file",
                 id="model-field-of-the-wrong-type"),
    pytest.param({"data.csv": LINE_CSV}, "fit --input data.csv --out run --resolution 1",
                 "resolution must be >= 2", id="resolution-1"),
    pytest.param({"data.csv": LINE_CSV},
                 "sweep --input data.csv --out run --lambdas 1 --degree 4 --k 2",
                 "needs degree >= 2k+1 = 5", id="sweep-degree-below-2k+1"),
    pytest.param({"data.csv": LINE_CSV, "run.conf": "repair = maybe\n"},
                 "fit --input data.csv --out run --config run.conf",
                 "config key repair: expected a boolean, got 'maybe'", id="config-not-a-boolean"),
    pytest.param({"data.csv": LINE_CSV, "run.conf": "segments = eight\n"},
                 "fit --input data.csv --out run --config run.conf",
                 "config key segments: cannot parse 'eight'", id="config-unparsable-value"),
    pytest.param({"data.csv": LINE_CSV, "run.conf": "segments 8\n"},
                 "fit --input data.csv --out run --config run.conf",
                 "run.conf: line 1: expected key=value", id="config-line-without-equals"),
    pytest.param({}, "eval --out run", "eval needs --model and --out", id="eval-without-model"),
    pytest.param({"data.csv": LINE_CSV, "run.conf": "seed = 7\n"},
                 "fit --input data.csv --out run --config run.conf",
                 "unknown config key 'seed'", id="config-seed-is-unknown"),
])
def test_config_errors_exit_1_with_one_error_line(tmp_path, capsys, monkeypatch, files, argv,
                                                  message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, message", [
    ("fit --input data.csv --out run --lr 0", "--lr must be > 0"),
    ("fit --input data.csv --out run --segments 0", "--segments must be >= 1"),
    ("fit --input data.csv --out run --lambda 2", "--lambda must lie in [0, 1], got 2.0"),
    ("fit --input data.csv --out run --k -1", "--k must be >= 0, got -1"),
    ("fit --input data.csv --out run --resolution 1", "--resolution must be >= 2, got 1"),
    ("fit --input data.csv --out run --segments abc", "argument --segments: invalid int value"),
    ("fit --input data.csv --out run --optimizer rmsprop", "argument --optimizer: invalid choice"),
    ("fit --input data.csv --out run --bogus 1", "unrecognized arguments: --bogus 1"),
    ("sweep --input data.csv --out run --lambdas 2", "--lambdas must lie in [0, 1], got 2.0"),
    ("sweep --input data.csv --out run --lambdas ,", "--lambdas must not be empty"),
    ("repair --model model.json --out run --k -1", "--k must be >= 0, got -1"),
    # repair writes no curve, and a sweep's lambdas come from --lambdas only;
    # flags are spelled in full, so --lambda is not read as --lambdas
    ("repair --model model.json --out run --resolution 5",
     "unrecognized arguments: --resolution 5"),
    ("sweep --input data.csv --out run --lambdas 1 --lambda 0.3",
     "unrecognized arguments: --lambda 0.3"),
    ("eval --model model.json --out run --k -1", "--k must be >= 0, got -1"),
    ("eval --model model.json --out run --resolution 1", "--resolution must be >= 2, got 1"),
    ("", "the following arguments are required: command"),
    ("fit --input data.csv --out run --k 6 --degree 5",
     "continuity order k=6 exceeds spline degree 5"),
    # a config value outside its choices names the key, for a command that
    # reads it and for eval, which does not
    ("repair --model model.json --out run --config bogus.conf",
     "config key boundary_mode: expected one of ('open', 'cyclic', 'periodic'), got 'bogus'"),
    ("eval --model model.json --out run --config bogus.conf",
     "config key boundary_mode: expected one of ('open', 'cyclic', 'periodic'), got 'bogus'"),
])
def test_bad_flag_exits_1_before_any_file_is_read(tmp_path, capsys, monkeypatch, argv, message):
    # neither data.csv nor model.json exists, so a read would exit 3; a config
    # file named in argv is the only file there
    monkeypatch.chdir(tmp_path)
    configs = [name for name in argv.split() if name == "bogus.conf"]
    for name in configs:
        (tmp_path / name).write_text("boundary_mode = bogus\n")
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert [path.name for path in tmp_path.iterdir()] == configs


FIT_FLAG_ERRORS = {
    "--input": ("--input ''", "fit needs --input and --out"),
    "--out": ("--out ''", "fit needs --input and --out"),
    "--resolution": ("--resolution 1", "--resolution must be >= 2, got 1"),
    "--segments": ("--segments 0", "--segments must be >= 1"),
    "--degree": ("--degree -1", "--degree must be >= 0"),
    "--k": ("--k -1", "--k must be >= 0, got -1"),
    "--lambda": ("--lambda 2", "--lambda must lie in [0, 1], got 2.0"),
    "--epochs": ("--epochs -1", "--epochs must be >= 0"),
    "--optimizer": ("--optimizer rmsprop", "argument --optimizer: invalid choice: 'rmsprop'"),
    "--lr": ("--lr 0", "--lr must be > 0"),
    "--momentum": ("--momentum 1", "--momentum must lie in [0, 1)"),
    "--nesterov": ("--nesterov --momentum 0", "--nesterov requires momentum > 0"),
    "--regularization": ("--regularization l1",
                         "argument --regularization: invalid choice: 'l1'"),
    "--init": ("--init ones", "argument --init: invalid choice: 'ones'"),
    "--scaling": ("--scaling unit", "argument --scaling: invalid choice: 'unit'"),
    "--boundary-mode": ("--boundary-mode wrap", "argument --boundary-mode: invalid choice: 'wrap'"),
    "--strain-weight": ("--strain-weight -1", "--strain-weight must be finite and >= 0"),
    "--record-every": ("--record-every 0", "--record-every must be >= 1"),
}


def test_every_fit_flag_with_a_bad_value_is_covered(monkeypatch):
    # --repair and --nesterov's --no- forms have no bad value
    fit = command_parsers(monkeypatch)["fit"]
    flags = {option for action in fit._actions for option in action.option_strings}
    assert set(FIT_FLAG_ERRORS) == flags - {"-h", "--help", "--config", "--repair",
                                            "--no-repair", "--no-nesterov"}


@pytest.mark.parametrize("flag", FIT_FLAG_ERRORS)
def test_a_bad_fit_flag_names_that_flag(tmp_path, capsys, monkeypatch, flag):
    # the library's field names, such as learning_rate, become the flag's;
    # no file exists, so each error comes before any read
    monkeypatch.chdir(tmp_path)
    bad, message = FIT_FLAG_ERRORS[flag]
    argv = ["fit", "--input", "data.csv", "--out", "run", *shlex.split(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1 and flag in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, raw, message", [
    ("lambda", "-0.5", "--lambda must lie in [0, 1], got -0.5"),
    ("epsilon", "0", "epsilon must be > 0"),  # a config key with no flag keeps its name
    ("beta1", "1", "beta1 and beta2 must lie in [0, 1)"),
])
def test_a_bad_config_value_names_the_fit_flag(tmp_path, capsys, monkeypatch, key, raw, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(f"{key} = {raw}\n")
    assert main("fit --input data.csv --out run --config run.conf".split()) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key, raw, message", [
    pytest.param("optimizer", "bogus", "('sgd', 'adam', 'adamax', 'amsgrad'), got 'bogus'",
                 id="fit-optimizer"),
    pytest.param("boundary_mode", "bogus", "('open', 'cyclic', 'periodic'), got 'bogus'",
                 id="fit-boundary_mode"),
    pytest.param("regularization", "l1", "('none', 'degree_based'), got 'l1'",
                 id="fit-regularization"),
])
def test_a_config_value_outside_its_choices_names_the_key(tmp_path, capsys, monkeypatch, key,
                                                          raw, message):
    # checked as the config file is read, as argparse checks a flag's value;
    # test_bad_flag_exits_1_before_any_file_is_read has repair's and eval's
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(f"{key} = {raw}\n")
    assert main("fit --input data.csv --out run --config run.conf".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key {key}: expected one of {message}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["run.conf"]


@pytest.mark.parametrize("argv, message", [
    ("eval --model model.json --out run --resolution 1099511627776",
     "--resolution 1099511627776 and --k 2: 32,768.0 GiB of curve block"),
    ("fit --input data.csv --out run --segments 1000000000",
     "--segments 1000000000: 804.7 GiB of loss operator at --degree 5 for 1 lambda(s)"),
    ("fit --input data.csv --out run --degree 100000",
     "--degree 100000: 223.5 GiB of loss operator per segment"),
    ("sweep --input data.csv --out run --lambdas 1,0 --epochs 1000000000000 --record-every 1",
     "--epochs 1000000000000: 74,505.8 GiB of history at --record-every 1 for 2 lambda(s)"),
])
def test_flag_asking_for_more_than_the_ceiling_exits_1_before_allocating(
        tmp_path, capsys, monkeypatch, argv, message):
    # each of these once ended in a MemoryError traceback; the inputs exist,
    # so only the size estimate stops the command
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(LINE_CSV)
    save_model(SplineModel.from_breakpoints(np.arange(3.0), 5), tmp_path / "model.json")
    main(["fit", "--bogus"])  # builds a parser once, outside the trace
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message} is above the 1 GiB ceiling\n"
    assert peak < 256 * 1024
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["fit", "sweep --lambdas 1"])
def test_degree_over_many_samples_exits_1_before_the_sample_table(tmp_path, capsys, command):
    # 30,000 samples at degree 5999: basis powers of 1.34 GiB, while the
    # loss operator (0.80 GiB) and every flag-only estimate fit
    path = tmp_path / "data.csv"
    path.write_text("x,y\n" + "".join(f"{i},0\n" for i in range(30_000)))
    argv = f"{command} --input {path} --out {tmp_path / 'run'} --segments 1 --degree 5999"
    assert main(argv.split()) == 1
    assert capsys.readouterr().err == (
        "error: --degree 5999 over 30000 samples: 1.3 GiB of basis powers is above the "
        "1 GiB ceiling\n")
    assert not (tmp_path / "run").exists()


def test_no_command_calls_np_unique(tmp_path, monkeypatch, capsys):
    # numpy's np.unique faults in about 1.7 MB of code per process; repair
    # and the ck bases find repeated offsets by runs instead, here on
    # breakpoints whose widths repeat apart
    data = write_benchmark_data(tmp_path / "bench.csv")
    rng = np.random.default_rng(59)
    xi = np.cumsum(np.append(0.0, np.tile([1.0, 2.0], 6)))
    save_model(SplineModel.from_breakpoints(xi, 5, rng.normal(size=(12, 6))), tmp_path / "in.json")

    def unique(*args, **kwargs):
        raise AssertionError("np.unique was called")

    monkeypatch.setattr(np, "unique", unique)
    fit_flags = ["--segments", "4", "--degree", "5", "--k", "2", "--epochs", "20"]
    for argv in (
        ["fit", "--input", str(data), "--out", str(tmp_path / "fit"), "--repair",
         "--init", "least_squares", *fit_flags],
        ["sweep", "--input", str(data), "--out", str(tmp_path / "sweep"), "--lambdas", "1,0.5",
         "--boundary-mode", "periodic", *fit_flags],
        ["repair", "--model", str(tmp_path / "in.json"), "--out", str(tmp_path / "repair"),
         "--k", "2", "--boundary-mode", "cyclic"],
        ["eval", "--model", str(tmp_path / "repair" / "model.json"), "--out",
         str(tmp_path / "eval"), "--k", "2"],
    ):
        assert main(argv) == 0, capsys.readouterr().err


def test_fit_repair_flag_writes_report(tmp_path):
    data = write_benchmark_data(tmp_path / "bench.csv")
    out = tmp_path / "run"
    code = main([
        "fit", "--input", str(data), "--out", str(out),
        "--segments", "4", "--degree", "5", "--k", "2",
        "--lambda", "0.5", "--epochs", "200", "--optimizer", "amsgrad",
        "--lr", "0.1", "--repair",
    ])
    assert code == 0
    report = json.loads((out / "repair.json").read_text())
    post = np.abs(np.array(report["post_defects"]))
    scale = np.maximum(1.0, np.abs(np.array(report["mean_targets"])))
    assert np.all(post <= 1e-9 * scale)


def test_curve_round_trip_against_model(tmp_path):
    data = write_benchmark_data(tmp_path / "bench.csv")
    out = tmp_path / "run"
    assert main([
        "fit", "--input", str(data), "--out", str(out),
        "--segments", "4", "--degree", "3", "--k", "1",
        "--lambda", "0.8", "--epochs", "300", "--optimizer", "amsgrad",
        "--resolution", "7",
    ]) == 0
    model = load_model(out / "model.json")
    rows = (out / "curve.csv").read_text().splitlines()
    assert rows[0] == "x,f,d1"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert parsed.shape == (4 * 7 - 3, 3)
    for j in range(2):
        assert_allclose(parsed[:, 1 + j], evaluate(model, parsed[:, 0], j),
                        rtol=1e-12, atol=1e-12)


def test_curve_text_matches_savetxt_across_chunks(tmp_path):
    # more rows than one formatting chunk and more segments than one block;
    # np.savetxt is the reference for the text, and a whole-array linspace
    # grid with one evaluate per order for the values
    cases = [
        ([0, 1, 2.5, 3, 3.5, 5, 5.25, 7], 3001),  # 2 segments per block: 4 blocks, the last of 1
        (np.cumsum(np.append(0.0, np.linspace(0.5, 1.5, 600))), 33),  # 256 per block: 3 blocks
        # a segment 5e-324 wide in the second block: its grid step underflows
        # to 0, which switches linspace to another formula for every segment
        # of the array, and that formula rounds differently in the first
        # block's small, non-power-of-2 widths
        (np.concatenate([-(3.0 ** -np.arange(300)), [0.0, 5e-324], 1.0 + np.arange(300)]), 34),
    ]
    for case, (breakpoints, resolution) in enumerate(cases):
        m = len(breakpoints) - 1
        rng = np.random.default_rng(3)
        model = model_from_global(breakpoints, 4,
                                  rng.normal(size=(m, 5)) * [1, 1e-9, 1e9, 1, -0.0],
                                  domain_map=DomainMap(-0.5, 2.0))
        assert m > cli._CURVE_ROWS // (resolution - 1)
        save_model(model, tmp_path / f"model{case}.json")
        assert main(["eval", "--model", str(tmp_path / f"model{case}.json"),
                     "--out", str(tmp_path / f"e{case}"), "--k", "2",
                     "--resolution", str(resolution)]) == 0
        text = (tmp_path / f"e{case}" / "curve.csv").read_text()
        rows = text.splitlines()[1:]
        assert len(rows) == m * (resolution - 1) + 1
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        reference = io.StringIO()
        np.savetxt(reference, table, fmt="%.17g", delimiter=",")
        assert text == "x,f,d1,d2\n" + reference.getvalue()
        xi = model.breakpoints
        grid = np.linspace(xi[:-1], xi[1:], resolution, axis=1)
        xs = model.domain_map.inverse(np.append(grid[0, 0], grid[:, 1:]))
        expected = np.column_stack([xs] + [evaluate(model, xs, j) for j in range(3)])
        assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("segments,resolution", [(8 * 256, 33), (256, 8 * 32 + 1)])
def test_curve_write_memory_does_not_grow_with_segments_or_resolution(tmp_path, segments,
                                                                      resolution):
    # curve.csv is built and written a block of segments at a time, with one
    # formatting kernel for the file: 8 times the segments or 8 times the
    # points per segment must not raise the peak of the first case
    peaks = []
    for m, points in ((256, 33), (segments, resolution)):
        rng = np.random.default_rng(43)
        model = SplineModel.from_breakpoints(np.arange(m + 1.0), 7, rng.normal(size=(m, 8)))
        cli._write_curve(model, 3, points, tmp_path / "curve.csv")  # warm caches
        tracemalloc.start()
        try:
            cli._write_curve(model, 3, points, tmp_path / "curve.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16 * 1024


def test_curve_of_an_underflowing_grid_step_is_written_in_bounded_blocks(tmp_path, monkeypatch):
    # a first segment 5e-324 wide: its grid step underflows to 0, which puts
    # one linspace over the whole model on another formula for every segment;
    # eval must give that call's bits and still build curve.csv a block at a
    # time, within twice the peak of the same model on uniform breakpoints
    monkeypatch.chdir(tmp_path)
    m, resolution, k = 4096, 33, 3
    coefficients = np.random.default_rng(71).normal(size=(m, 8))
    underflowing = np.arange(m + 1.0)
    underflowing[1] = 5e-324
    peaks = {}
    for name, breakpoints in (("uniform", np.arange(m + 1.0)), ("underflow", underflowing)):
        save_model(SplineModel.from_breakpoints(breakpoints, 7, coefficients), f"{name}.json")
        argv = f"eval --model {name}.json --out {name} --k {k} --resolution {resolution}".split()
        assert main(argv) == 0  # warm caches, outside the trace
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["underflow"] <= 2 * peaks["uniform"], peaks
    model = load_model("underflow.json")
    xi = model.breakpoints
    assert np.diff(xi)[0] / (resolution - 1) == 0  # the first segment's step underflows
    grid = np.linspace(xi[:-1], xi[1:], resolution, axis=1)
    xs = model.domain_map.inverse(np.append(grid[0, 0], grid[:, 1:]))
    table = np.column_stack([xs] + [evaluate(model, xs, j) for j in range(k + 1)])
    row = ",".join(["%.17g"] * (k + 2)) + "\n"
    expected = "x,f,d1,d2,d3\n" + "".join(row % tuple(values) for values in table.tolist())
    assert (tmp_path / "underflow" / "curve.csv").read_text() == expected


def test_history_rows_satisfy_blend_identity(tmp_path):
    data = write_benchmark_data(tmp_path / "bench.csv")
    out = tmp_path / "run"
    assert main([
        "fit", "--input", str(data), "--out", str(out),
        "--segments", "4", "--degree", "5", "--k", "2",
        "--lambda", "0.3", "--epochs", "100", "--optimizer", "amsgrad",
        "--strain-weight", "0.01",
    ]) == 0
    rows = (out / "history.csv").read_text().splitlines()[1:]
    for row in rows:
        _, total, l2, ck, strain = (float(v) for v in row.split(","))
        assert total == pytest.approx(0.3 * l2 + 0.7 * ck + 0.01 * strain, abs=1e-9)


# ---------------------------------------------------------------- sweep


def test_sweep_three_lambdas(tmp_path):
    data = write_benchmark_data(tmp_path / "bench.csv")
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--input", str(data), "--out", str(out),
        "--segments", "4", "--degree", "5", "--k", "2",
        "--epochs", "200", "--optimizer", "amsgrad",
        "--lambdas", "1,0.5,0",
    ])
    assert code == 0
    for name in ("lambda_1", "lambda_0.5", "lambda_0"):
        assert (out / name / "model.json").exists()
        assert (out / name / "repair.json").exists()
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "lambda,total,l2,ck,post_repair_max_defect"
    assert len(rows) == 4


def test_cyclic_sweep_summary_reports_the_repaired_defects(tmp_path):
    # cyclic mode compares only derivatives 1..k at the wrap, whose two end
    # values stay apart; the summary's defect is of the jumps repair closes
    data = write_benchmark_data(tmp_path / "bench.csv")
    out = tmp_path / "sweep"
    assert main(["sweep", "--input", str(data), "--out", str(out), "--boundary-mode", "cyclic",
                 "--segments", "8", "--degree", "5", "--k", "2", "--epochs", "200",
                 "--lambdas", "1,0.5,0.1", "--strain-weight", "0.001"]) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        assert float(row.split(",")[-1]) <= 1e-9


def test_sweep_empty_lambda_list(tmp_path, capsys):
    data = write_line_data(tmp_path / "line.csv")
    assert main(["sweep", "--input", str(data), "--out", str(tmp_path / "s"),
                 "--lambdas", ""]) == 1


def test_sweep_unparsable_lambda_names_the_flag(tmp_path, capsys):
    data = write_line_data(tmp_path / "line.csv")
    assert main(["sweep", "--input", str(data), "--out", str(tmp_path / "s"),
                 "--lambdas", "1, x"]) == 1
    assert capsys.readouterr().err == "error: --lambdas: cannot parse 'x'\n"
    assert not (tmp_path / "s").exists()


def test_sweep_duplicate_lambdas_suffixed(tmp_path):
    data = write_benchmark_data(tmp_path / "bench.csv")
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--input", str(data), "--out", str(out),
        "--segments", "2", "--degree", "5", "--k", "2",
        "--epochs", "20", "--optimizer", "amsgrad",
        "--lambdas", "0.5,0.5",
    ]) == 0
    assert (out / "lambda_0.5" / "model.json").exists()
    assert (out / "lambda_0.5_2" / "model.json").exists()


def test_sweep_rejects_out_of_range_lambda(tmp_path):
    data = write_line_data(tmp_path / "line.csv")
    assert main(["sweep", "--input", str(data), "--out", str(tmp_path / "s"),
                 "--lambdas", "0.5,2.0"]) == 1


def test_sweep_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    data = write_line_data(tmp_path / "line.csv")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["sweep", "--input", str(data), "--lambdas", "1,0",
                 "--segments", "2", "--epochs", "5"]) == 1
    assert capsys.readouterr().err == "error: sweep needs --input and --out\n"
    assert list(work.iterdir()) == []


def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def solo_fit_runs(tmp_path, capsys, data, flags, runs):
    """(name, lambda) runs through `fit --repair`, as a sweep once ran them; exit codes, stdout."""
    codes, out = [], ""
    for name, lam in runs:
        codes.append(main(["fit", "--input", str(data), "--out", str(tmp_path / "solo" / name),
                           "--lambda", lam, "--repair", *flags]))
        out += capsys.readouterr().out
    return codes, out


def test_sweep_writes_what_per_lambda_fits_write(tmp_path, capsys):
    data = write_benchmark_data(tmp_path / "bench.csv")
    flags = ["--segments", "4", "--degree", "5", "--k", "2", "--epochs", "150",
             "--optimizer", "amsgrad", "--resolution", "9"]
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--input", str(data), "--out", str(sweep),
                 "--lambdas", "1,0.25,0.25", *flags]) == 0
    sweep_out = capsys.readouterr().out
    runs = [("lambda_1", "1"), ("lambda_0.25", "0.25"), ("lambda_0.25_2", "0.25")]
    codes, solo_out = solo_fit_runs(tmp_path, capsys, data, flags, runs)
    assert codes == [0, 0, 0] and sweep_out == solo_out
    for name, _ in runs:
        assert read_tree(sweep / name) == read_tree(tmp_path / "solo" / name)
    rows = [line.split(",") for line in (sweep / "summary.csv").read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [1.0, 0.25, 0.25]
    for row, (name, _) in zip(rows, runs):
        final = (sweep / name / "history.csv").read_text().splitlines()[-1].split(",")
        assert row[1:4] == final[1:4]


def test_sweep_stops_at_first_diverged_lambda(tmp_path, capsys):
    # sgd at lr 0.5 diverges at lambda 0.5 (epoch 300) but not at 1 or 0
    data = write_benchmark_data(tmp_path / "bench.csv")
    flags = ["--segments", "8", "--degree", "5", "--k", "2", "--epochs", "400",
             "--optimizer", "sgd", "--lr", "0.5", "--resolution", "9"]
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--input", str(data), "--out", str(sweep),
                 "--lambdas", "1,0.5,0", *flags]) == 2
    sweep_out = capsys.readouterr().out
    codes, solo_out = solo_fit_runs(tmp_path, capsys, data, flags,
                                    [("lambda_1", "1"), ("lambda_0.5", "0.5")])
    assert codes == [0, 2] and sweep_out == solo_out
    assert "diverged at epoch 300: loss became non-finite" in sweep_out
    assert read_tree(sweep) == {
        **{f"lambda_1/{k}": v for k, v in read_tree(tmp_path / "solo" / "lambda_1").items()},
        **{f"lambda_0.5/{k}": v for k, v in read_tree(tmp_path / "solo" / "lambda_0.5").items()},
    }
    assert list(read_tree(sweep / "lambda_0.5")) == ["history.csv"]


# ---------------------------------------------------------------- repair / eval verbs


def test_repair_and_eval_verbs(tmp_path):
    model = model_from_global([0, 1, 2], 3, [[0.0], [1.0]])
    source = tmp_path / "model.json"
    save_model(model, source)
    out = tmp_path / "repaired"
    assert main(["repair", "--model", str(source), "--out", str(out), "--k", "1"]) == 0
    repaired = load_model(out / "model.json")
    assert evaluate(repaired, 1.0) == pytest.approx(0.5)

    eval_out = tmp_path / "evald"
    assert main(["eval", "--model", str(out / "model.json"), "--out", str(eval_out),
                 "--k", "1", "--resolution", "5"]) == 0
    rows = (eval_out / "curve.csv").read_text().splitlines()
    assert rows[0] == "x,f,d1"
    assert len(rows) == 1 + (2 * 5 - 1)


def test_repair_verb_needs_model(tmp_path, capsys):
    assert main(["repair", "--out", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------- determinism


def test_identical_manifests_are_byte_identical(tmp_path):
    data = write_benchmark_data(tmp_path / "bench.csv")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main([
            "fit", "--input", str(data), "--out", str(out),
            "--segments", "8", "--degree", "5", "--k", "2",
            "--lambda", "0.5", "--epochs", "300", "--optimizer", "amsgrad",
        ]) == 0
        outputs.append(out)
    for filename in ("history.csv", "model.json", "curve.csv"):
        a = (outputs[0] / filename).read_bytes()
        b = (outputs[1] / filename).read_bytes()
        assert a == b
