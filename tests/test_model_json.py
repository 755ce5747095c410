"""load_model's block decoder against the parse it replaced.

The oracle is load_model as it was before model.json's arrays were decoded
a block of rows at a time: json.loads of the whole text, then an object
array per numeric field.  Both must give the same arrays, bit for bit, or
the same error text, on any JSON document.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ckspline import DomainMap, SplineModel, cli, load_model, save_model
from ckspline.cli import main


def oracle_numbers(path, field, values):
    entries = np.array(values, dtype=object)
    if not all(type(entry) in (int, float, cli._NegativeZero) for entry in entries.ravel()):
        raise ValueError(f"{path}: {field} must hold only JSON numbers")
    try:
        return entries.astype(float)
    except OverflowError:
        raise ValueError(f"{path}: {field} holds an integer too large for a double") from None


def oracle_load(path):
    """load_model's parse of path, with the model's constructor arguments returned."""
    obj = json.loads(path.read_text(), parse_int=cli._json_int)
    try:
        degree = obj["degree"]
        if type(degree) is cli._NegativeZero:
            degree = 0
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError(f"{path}: degree must be an integer, got {json.dumps(degree)}")
        breakpoints, coefficients, centers = (
            oracle_numbers(path, key, obj[key]) for key in ("breakpoints", "coefficients", "centers"))
        a, b = obj["domain_map"]["a"], obj["domain_map"]["b"]
        oracle_numbers(path, "domain_map", [a, b])
        return breakpoints, degree, coefficients, centers, DomainMap(float(a), float(b))
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from None


def outcome(load, path):
    """The arguments load gives the model constructor, as bytes, or its error text."""
    try:
        args = load(path)
    except ValueError as exc:
        return "error", str(exc)
    return "model", [(arg.dtype.str, arg.shape, arg.tobytes()) if isinstance(arg, np.ndarray)
                     else repr(arg) for arg in args]


WHITESPACE = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", " \n\t "])
NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["0", "-0", "-0.0", "0e0", "1E400", "-1e400", "1e-400", str(2**64),
                     str(2**53 + 1)]),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.builds("{}.{}{}{}".format, st.integers(-99, 99), st.integers(0, 999),
              st.sampled_from(["e", "E", "e+", "e-", "E-"]), st.integers(0, 330)),
)
# a bool, string, null, nested list, object or an integer beyond the
# double range where a number belongs
OTHERS = st.sampled_from(["true", "false", "null", '"1.5"', '"x"', "[1, [2]]", "[[3]]", "[]",
                          "[true]", '{"a": 1}', str(10**400), str(-(10**400))])


def sometimes(draw) -> bool:
    """True about one time in ten, so that most documents decode to a model."""
    return draw(st.sampled_from([False] * 9 + [True]))


def join(pieces, spaces):
    """pieces joined by commas, with whitespace taken in turn from spaces around each."""
    return ",".join(spaces[i % len(spaces)] + piece + spaces[(i + 1) % len(spaces)]
                    for i, piece in enumerate(pieces))


@st.composite
def arrays(draw):
    """A field's array text: numbers or rows of numbers, up to a few blocks long.

    The drawn elements are tiled, so an array can span several of the
    decoder's blocks; sometimes one row is ragged and sometimes one element
    is not a number.
    """
    spaces = draw(st.lists(WHITESPACE, min_size=1, max_size=4))
    size = draw(st.one_of(st.integers(0, 6), st.integers(2040, 2060), st.integers(0, 5000)))
    if draw(st.booleans()):
        width = draw(st.integers(0, 4))
        rows = draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width),
                             min_size=1, max_size=4))
        elements = ["[" + join(rows[i % len(rows)], spaces) + "]" for i in range(size)]
        if size and sometimes(draw):
            ragged = rows[0][:-1] if width and draw(st.booleans()) else rows[0] + ["1"]
            elements[draw(st.integers(0, size - 1))] = "[" + join(ragged, spaces) + "]"
    else:
        numbers = draw(st.lists(NUMBERS, min_size=1, max_size=8))
        elements = [numbers[i % len(numbers)] for i in range(size)]
    if size and sometimes(draw):
        elements[draw(st.integers(0, size - 1))] = draw(OTHERS)
    return "[" + join(elements, spaces) + "]" if elements else "[" + spaces[0] + "]"


@st.composite
def documents(draw):
    """A JSON document shaped like model.json, or sometimes not."""
    spaces = draw(st.lists(WHITESPACE, min_size=1, max_size=4))
    degree = draw(st.sampled_from(["0", "1", "7", "-0"]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    domain = '{"a": %.17g, "b": %.17g}' % (draw(finite.filter(bool)), draw(finite))
    fields = [("degree", draw(st.one_of(NUMBERS, OTHERS)) if sometimes(draw) else degree),
              ("breakpoints", draw(arrays())), ("centers", draw(arrays())),
              ("coefficients", draw(arrays())),
              ("domain_map", draw(OTHERS) if sometimes(draw) else domain)]
    if sometimes(draw):
        del fields[draw(st.integers(0, len(fields) - 1))]
    extras = draw(st.lists(st.tuples(
        st.sampled_from(["unknown", "degree", "breakpoints", "centers", "coefficients"]),
        st.one_of(NUMBERS, OTHERS)), max_size=2))
    if extras and not sometimes(draw):  # repeated keys, but the last one well formed
        extras = [(key, value) for key, value in extras if key == "unknown"]
    pairs = draw(st.permutations(fields + extras))  # a repeated key: the last one counts
    if not sometimes(draw):
        text = "{" + join([f'"{key}"{spaces[0]}:{spaces[-1]}{value}' for key, value in pairs],
                          spaces) + "}"
    else:
        text = draw(st.sampled_from(["[" + join([value for _, value in pairs], spaces) + "]",
                                     "7", '"model"', "null"]))
    return spaces[-1] + text + spaces[0]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                  HealthCheck.large_base_example,
                                                                  HealthCheck.data_too_large])
@given(text=documents())
def test_block_decoder_matches_json_loads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(text)
    with mock.patch.object(cli, "SplineModel", lambda *args: args):
        assert outcome(load_model, path) == outcome(oracle_load, path)


def test_saved_models_decode_as_json_loads_does(tmp_path):
    # save_model's own text, over several blocks, with signed zeros and
    # integers among the floats
    rng = np.random.default_rng(27)
    coefficients = rng.normal(size=(3000, 8)) * 10.0 ** rng.integers(-300, 300, (3000, 8))
    coefficients[::7] = np.round(coefficients[::7])
    coefficients[5, 3], coefficients[9] = -0.0, 0.0
    model = SplineModel.from_breakpoints(np.arange(3001.0) - 1500.0, 7, coefficients,
                                         DomainMap(0.5, -0.0))
    path = tmp_path / "model.json"
    save_model(model, path)
    with mock.patch.object(cli, "SplineModel", lambda *args: args):
        assert outcome(load_model, path) == outcome(oracle_load, path)
    loaded = load_model(path)
    assert loaded.coefficients.tobytes() == model.coefficients.tobytes()
    assert loaded.breakpoints.tobytes() == model.breakpoints.tobytes()


@pytest.fixture(scope="module")
def saved_payload(tmp_path_factory):
    """json.loads of a saved 3,000-segment model: its arrays span several blocks."""
    model = SplineModel.from_breakpoints(np.arange(3001.0), 3,
                                         np.random.default_rng(8).normal(size=(3000, 4)))
    path = tmp_path_factory.mktemp("saved") / "model.json"
    save_model(model, path)
    return json.loads(path.read_text())


# what replaces an element, given the element as a row of numbers
BAD_ELEMENTS = {
    "true": lambda row: True,
    "null": lambda row: None,
    "string": lambda row: "1.5",
    "nested list": lambda row: [1.0, [2.0]],
    "empty list": lambda row: [],
    "huge integer": lambda row: 10**400,
    "short row": lambda row: row[:-1],
    "long row": lambda row: row + [1.0],
    "bool entry": lambda row: [True] + row[1:],
}


@pytest.mark.parametrize("index", [0, 2500])
@pytest.mark.parametrize("bad", BAD_ELEMENTS)
@pytest.mark.parametrize("field", ["breakpoints", "centers", "coefficients"])
def test_a_bad_element_in_any_block_gives_the_old_error(tmp_path, saved_payload, field, bad,
                                                          index):
    # in the first block or in a later one
    values = list(saved_payload[field])
    row = values[index] if field == "coefficients" else [values[index]]
    values[index] = BAD_ELEMENTS[bad](row)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**saved_payload, field: values}))
    with mock.patch.object(cli, "SplineModel", lambda *args: args):
        result = outcome(load_model, path)
        assert result == outcome(oracle_load, path)
    assert result[0] == "error"


@pytest.mark.parametrize("first, rest", [("0", "[0]"), ("[0]", "[0, 0]"), ("[0, 0]", "[]"),
                                         ("[0]", "0")])
def test_blocks_of_different_shapes_give_the_old_error(tmp_path, saved_payload, first, rest):
    # each block is regular, but the first _BLOCK_ELEMENTS elements and the
    # ones after them differ in shape
    elements = [first] * cli._BLOCK_ELEMENTS + [rest] * 3
    text = json.dumps(saved_payload).replace('"centers": [', '"centers": [' + ", ".join(elements)
                                             + "], " + '"unused": [', 1)
    path = tmp_path / "model.json"
    path.write_text(text)
    with mock.patch.object(cli, "SplineModel", lambda *args: args):
        result = outcome(load_model, path)
        assert result == outcome(oracle_load, path)
    assert result == ("error", f"{path}: centers must hold only JSON numbers")


def test_syntax_error_names_the_file_and_points_into_it(tmp_path, capsys):
    # the malformed number sits many blocks into the coefficients
    model = SplineModel.from_breakpoints(np.arange(5001.0), 7,
                                         np.random.default_rng(3).normal(size=(5000, 8)))
    path = tmp_path / "model.json"
    save_model(model, path)
    lines = path.read_text().split("\n")
    row = lines[4].split("], [")
    row[4000] = row[4000].replace(", ", ", 4e, ", 1)
    lines[4] = "], [".join(row)
    text = "\n".join(lines)
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as caught:
        json.loads(text)
    expected = caught.value
    assert expected.lineno == 5 and expected.colno > 4000 * 100
    assert main(["eval", "--model", str(path), "--out", str(tmp_path / "curve")]) == 1
    assert capsys.readouterr().err == f"error: {path}: malformed model file: {expected}\n"


def test_load_model_peak_memory_is_bounded_by_the_file_size(tmp_path):
    # the text, then one block of Python numbers at a time and the float
    # arrays: json.loads and an object array per field peaked at 2.95x
    rng = np.random.default_rng(16)
    model = SplineModel.from_breakpoints(np.linspace(0.0, 64.0, 16385), 7,
                                         rng.normal(size=(16384, 8)))
    path = tmp_path / "model.json"
    save_model(model, path)
    load_model(path)  # warm caches
    tracemalloc.start()
    try:
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * path.stat().st_size
