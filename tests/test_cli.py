import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ckspline import DomainMap, evaluate, load_model, load_samples, save_model
from ckspline.cli import main

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
            "seed = 7",
        ]) + "\n"
    )
    assert main(["fit", "--config", str(config)]) == 0
    assert (out / "repair.json").exists()


def test_fit_unknown_config_key(tmp_path, capsys):
    data = write_line_data(tmp_path / "line.csv")
    config = tmp_path / "run.conf"
    config.write_text(f"input = {data}\nout = {tmp_path / 'o'}\nwibble = 3\n")
    assert main(["fit", "--config", str(config)]) == 1


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
    # more rows than one formatting chunk; np.savetxt is the reference
    rng = np.random.default_rng(3)
    model = model_from_global([0, 1, 2.5, 3], 4, rng.normal(size=(3, 5)) * [1, 1e-9, 1e9, 1, -0.0],
                              domain_map=DomainMap(-0.5, 2.0))
    save_model(model, tmp_path / "model.json")
    assert main(["eval", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path / "e"),
                 "--k", "2", "--resolution", "3001"]) == 0
    text = (tmp_path / "e" / "curve.csv").read_text()
    rows = text.splitlines()[1:]
    assert len(rows) == 3 * 3000 + 1
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    reference = io.StringIO()
    np.savetxt(reference, table, fmt="%.17g", delimiter=",")
    assert text == "x,f,d1,d2\n" + reference.getvalue()


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


def test_sweep_empty_lambda_list(tmp_path, capsys):
    data = write_line_data(tmp_path / "line.csv")
    assert main(["sweep", "--input", str(data), "--out", str(tmp_path / "s"),
                 "--lambdas", ""]) == 1


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
