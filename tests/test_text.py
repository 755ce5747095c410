"""The result-file writer against the stdlib's own %-format.

cli._rows writes a float table of _text._SMALL values or more through a
numpy kernel; the oracle is the one-line %-format it replaces, which must
give the same text byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ckspline import _text, cli

TEMPLATES = {
    "csv": (",".join(["%.17g"] * 4) + "\n", "", 4),
    "json array": ("%.17g", ", ", 1),
    "json rows": ("[" + ", ".join(["%.17g"] * 3) + "]", ", ", 3),
    "json object": ('{"a": %.17g, "b": %.17g}', "", 2),
}


def stdlib_text(table, row, sep):
    table = np.asarray(table, dtype=float)
    return sep.join([row] * len(table)) % tuple(table.ravel().tolist())


def assert_rows_match(values, template):
    row, sep, width = TEMPLATES[template]
    values = np.asarray(values, dtype=float)
    table = np.resize(values, (-(-values.size // width), width))
    if width == 1:
        table = table[:, 0]
    got = "".join(cli._rows(table, row, sep))
    want = stdlib_text(table, row, sep)
    if got != want:  # name the first values that differ, not the whole text
        texts = "".join(cli._rows(table.ravel(), "%.17g", "\n")).split("\n")
        wrong = [(v, text) for v, text in zip(table.ravel().tolist(), texts) if text != "%.17g" % v]
        raise AssertionError(f"{template}: {wrong[:5]}")


# any double: hypothesis' floats favour edge values, raw bit patterns cover the rest
doubles = st.one_of(
    st.floats(width=64),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)


@settings(max_examples=60, deadline=None)
@given(values=arrays(np.float64, st.integers(1, 64), elements=doubles),
       size=st.integers(_text._SMALL, 2 * _text._CHUNK),
       template=st.sampled_from(sorted(TEMPLATES)))
def test_rows_equal_the_stdlib_format(values, size, template):
    # the drawn doubles, repeated, fill a table of one to eight kernel passes
    assert_rows_match(np.resize(values, size), template)


def edge_values():
    powers = np.array([float(f"1e{e}") for e in range(-330, 310)])
    # exact 18th-digit ties: odd M / 2**(p+1) has 17 digits, then exactly a 5
    rng = np.random.default_rng(0)
    ties = []
    for p in range(1, 21):
        low, high = int(2e16 * 0.2**p) + 1, min(int(2e17 * 0.2**p), 2**53)
        odd = rng.integers(low // 2, high // 2, size=20) * 2 + 1
        ties.append(np.ldexp(odd.astype(float), -(p + 1)))
    ties = np.concatenate(ties)
    base = np.concatenate([powers, ties, [2.0**53, 1e17 - 16, 5e-324, 2.2250738585072014e-308,
                                          1.7976931348623157e308, 0.0]])
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        near = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, 0.0)])
    return np.concatenate([near, -near, [np.inf, -np.inf, np.nan]])


def test_edge_values_equal_the_stdlib_format():
    values = np.tile(edge_values(), 6)
    assert values.size // 8 > _text._CHUNK  # passes of the full size too
    for template in TEMPLATES:
        assert_rows_match(values, template)


def test_ordinary_values_equal_the_stdlib_format():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(50_000) * 10.0 ** rng.integers(-35, 20, 50_000)
    for template in TEMPLATES:
        assert_rows_match(values, template)


def test_exponent_estimate_off_by_one_falls_back(monkeypatch):
    # numpy's log10 may be a SIMD routine some ulps off; one that misses
    # floor(log10|v|) by one either way must still give the stdlib's text
    log10 = np.log10

    def missing_log10(x):
        miss = x.view(np.int64) % 3  # by value: 0 too high, 1 too low, 2 right
        return log10(x) + (miss == 0) - (miss == 1)

    rng = np.random.default_rng(2)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-29, 17, 20_000)
    monkeypatch.setattr(np, "log10", missing_log10)
    assert_rows_match(values, "csv")


@pytest.mark.parametrize("literal", [8, 9])
def test_kernel_literals_up_to_8_bytes(literal):
    # a value's text and the literal after it share one 32-byte record slot
    row, table = "%.17g" + "x" * literal, np.arange(_text._SMALL, dtype=float)
    if literal > 8:
        with pytest.raises(ValueError, match="row template literal too long"):
            list(cli._rows(table, row, ""))
    else:
        assert "".join(cli._rows(table, row, "")) == stdlib_text(table, row, "")
