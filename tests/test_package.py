"""Package behaviour: lazy exports and loads, the CLI's BLAS thread guard, identity equality."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ckspline
from ckspline import (
    OptimizerConfig,
    RepairReport,
    SampleSet,
    SplineModel,
    TrainingReport,
    init_state,
    save_model,
)

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(ckspline.__file__).resolve().parents[1])
# prints the thread variables, whether numpy is loaded and the thread count
REPORT = ("import json, os, sys; print(json.dumps({"
          "'env': {name: os.environ.get(name) for name in %r}, "
          "'numpy': 'numpy' in sys.modules, "
          "'tasks': len(os.listdir('/proc/self/task')) "
          "if os.path.isdir('/proc/self/task') else None}))" % (THREAD_VARIABLES,))


def child(args, **preset: str) -> subprocess.CompletedProcess:
    """Run the interpreter with args; of THREAD_VARIABLES only `preset` is set."""
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(preset)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def fresh(code: str, **preset: str) -> dict:
    """Run code, then REPORT, in a new interpreter; of THREAD_VARIABLES only `preset` is set."""
    done = child(["-c", f"{code}\n{REPORT}"], **preset)
    done.check_returncode()
    return json.loads(done.stdout)


def thread_env(**given):
    return {name: given.get(name) for name in THREAD_VARIABLES}


def test_cli_import_runs_one_blas_thread():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    report = fresh("import ckspline.cli")
    assert report["numpy"] and report["tasks"] == 1
    assert report["env"] == thread_env(OPENBLAS_NUM_THREADS="1")


@pytest.mark.parametrize("name", THREAD_VARIABLES)
def test_cli_import_keeps_a_preset_thread_variable(name):
    report = fresh("import ckspline.cli", **{name: "2"})
    assert report["env"] == thread_env(**{name: "2"})


@pytest.mark.parametrize("code", [
    "from ckspline import fit_sweep",
    "import numpy\nimport ckspline.cli",
])
def test_library_import_sets_no_thread_variable(code):
    report = fresh(code)
    assert report["numpy"] and report["env"] == thread_env()


def test_package_import_loads_no_numpy():
    report = fresh("import ckspline")
    assert not report["numpy"] and report["env"] == thread_env()


TRAINING = {"ckspline.losses", "ckspline.optimizers", "ckspline.training"}
# runs cli.main on the JSON argv lists in argv[1] and prints their exit codes
# and the ckspline modules loaded after them
COMMANDS = """
import contextlib, io, json, sys
import ckspline.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith("ckspline."))]))
"""


def run_commands(*argvs) -> tuple[list, set]:
    done = child(["-c", COMMANDS, json.dumps(argvs)])
    done.check_returncode()
    codes, loaded = json.loads(done.stdout)
    return codes, set(loaded)


@pytest.fixture
def inputs(tmp_path):
    """A small x,y CSV and a degree-5 model, with argv pieces for each command."""
    x = np.linspace(0.0, 4.0, 17)
    (tmp_path / "data.csv").write_text(
        "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), np.sin(x).tolist())))
    rng = np.random.default_rng(61)
    save_model(SplineModel.from_breakpoints(np.arange(5.0), 5, rng.normal(size=(4, 6))),
               tmp_path / "model.json")
    fit = ["--input", str(tmp_path / "data.csv"), "--segments", "2", "--degree", "5",
           "--k", "2", "--epochs", "5"]
    return {
        "fit": ["fit", "--out", str(tmp_path / "fit"), "--repair", *fit],
        "sweep": ["sweep", "--out", str(tmp_path / "sweep"), "--lambdas", "1,0.5", *fit],
        "repair": ["repair", "--model", str(tmp_path / "model.json"), "--out",
                   str(tmp_path / "repair"), "--k", "2"],
        "eval": ["eval", "--model", str(tmp_path / "model.json"), "--out",
                 str(tmp_path / "eval"), "--k", "2"],
    }


def test_cli_import_loads_no_training_module_and_no_repair():
    assert not (TRAINING | {"ckspline.repair"}) & run_commands()[1]


@pytest.mark.parametrize("command, loads, skips", [
    ("fit", TRAINING | {"ckspline.repair"}, set()),
    ("sweep", TRAINING | {"ckspline.repair"}, set()),
    ("repair", {"ckspline.repair"}, TRAINING),
    ("eval", set(), TRAINING | {"ckspline.repair"}),
])
def test_each_command_loads_only_the_modules_it_calls(inputs, command, loads, skips):
    codes, loaded = run_commands(inputs[command])
    assert codes == [0]
    assert loads <= loaded and not skips & loaded


def traced_patched_names() -> tuple:
    """bench/traced.py's PATCHED: the cli names its spans replace with setattr."""
    traced = Path(SRC).parent / "bench" / "traced.py"
    if not traced.is_file():
        pytest.skip("no bench/traced.py beside the source tree")
    for node in ast.parse(traced.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/traced.py defines no PATCHED")


# wraps each name of argv[1] on ckspline.cli with setattr, runs cli.main on
# the argv lists of argv[2], puts the originals back and prints the exit
# codes, the calls per wrapper and whether every original is back
WRAPPED = """
import contextlib, io, json, sys
import ckspline.cli as cli
names, argvs = json.loads(sys.argv[1]), json.loads(sys.argv[2])
calls = dict.fromkeys(names, 0)

def wrap(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

originals = {name: getattr(cli, name) for name in names}
for name, fn in originals.items():
    setattr(cli, name, wrap(name, fn))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
for name, fn in originals.items():
    setattr(cli, name, fn)
print(json.dumps([codes, calls, all(getattr(cli, name) is fn for name, fn in originals.items())]))
"""


def test_every_traced_name_is_a_cli_attribute_the_commands_call(inputs):
    names = traced_patched_names()
    assert "fit" in names and "repair_continuity" in names
    argvs = [inputs["fit"], inputs["repair"], inputs["eval"]]
    done = child(["-c", WRAPPED, json.dumps(names), json.dumps(argvs)])
    done.check_returncode()
    codes, calls, restored = json.loads(done.stdout)
    assert codes == [0, 0, 0] and restored
    assert all(calls[name] > 0 for name in names), calls


def test_module_runs_as_the_command():
    done = child(["-m", "ckspline.cli", "--help"])
    assert done.returncode == 0 and done.stdout.startswith("usage: ckspline")
    done = child(["-m", "ckspline.cli", "fit", "--bogus", "1"])
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: unrecognized arguments: --bogus 1\n"


# the loss values of 65,536 samples, whose dot products OpenBLAS would
# split across two threads
BREAKDOWN = """
import numpy as np
from ckspline import LossConfig, LossEngine, SampleSet, SplineModel
rng = np.random.default_rng(11)
x = np.linspace(0.0, 64.0, 65_536)
model = SplineModel.from_breakpoints(np.linspace(0.0, 64.0, 33), 3, rng.normal(size=(32, 4)))
engine = LossEngine(model, SampleSet(x, np.sin(x) + rng.normal(size=x.size)), LossConfig(0.5, 1))
parts = engine.breakdown()
print([value.hex() for value in (parts.total, parts.l2, parts.ck, engine.constant)])
"""


def test_loss_values_do_not_depend_on_the_blas_thread_count():
    runs = [child(["-c", BREAKDOWN], OPENBLAS_NUM_THREADS=count) for count in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


def test_every_export_is_its_defining_modules_object():
    for name, module in ckspline._EXPORTS.items():
        value = getattr(ckspline, name)
        assert value is getattr(importlib.import_module(f"ckspline.{module}"), name)
        assert value.__module__ == f"ckspline.{module}"
    assert ckspline.__all__ == list(ckspline._EXPORTS)
    assert set(ckspline.__all__) <= set(dir(ckspline))


def test_flag_choices_and_conditioning_error_stay_importable_where_they_were():
    from ckspline import model, optimizers, repair, training

    assert optimizers.OPTIMIZER_KINDS is model.OPTIMIZER_KINDS
    for name in ("REGULARIZATIONS", "INITS", "SCALINGS"):
        assert getattr(training, name) is getattr(model, name)
    assert repair.ConditioningError is model.ConditioningError is ckspline.ConditioningError


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_swep'"):
        ckspline.fit_swep
    with pytest.raises(ImportError):
        from ckspline import fit_swep  # noqa: F401


def _model():
    return SplineModel(np.array([0.0, 1.0, 2.0]), 1, np.zeros((2, 2)), np.array([0.5, 1.5]))


@pytest.mark.parametrize("build", [
    lambda: SampleSet(np.linspace(0.0, 1.0, 4), np.zeros(4)),
    _model,
    lambda: TrainingReport(np.zeros((2, 5)), _model()),
    lambda: RepairReport((1.0,), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), 0.0),
    lambda: init_state(OptimizerConfig(), (2, 2)),
], ids=["SampleSet", "SplineModel", "TrainingReport", "RepairReport", "OptimizerState"])
def test_array_holding_data_classes_compare_by_identity(build):
    first, second = build(), build()
    assert (first == first) is True and (first != first) is False
    assert (first == second) is False and (first != second) is True
    assert hash(first) == hash(first) and len({first, second}) == 2
