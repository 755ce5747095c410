"""The one number format of every result file, written by a numpy kernel.

_rows gives exactly the text of ``sep.join([row] * R) % tuple(values)``
for a row template of _NUMBER fields.  A table of fewer than _SMALL values
is that one %-format; a larger one takes a numpy pass per chunk of values
instead of one %-conversion per value.

For a finite |v| in [1e-29, 1e17) the 17 significant digits are
round(|v| * 10**p), p = 16 - floor(log10|v|).  For p <= 45, 10**p = hi + lo
exactly in two doubles, so Dekker's exact product |v| * hi plus the rounded
|v| * lo gives the scaled value to within about 3e-15.  Each value's text
is then gathered from its 32-byte record (sign, '0', '.', the digits, the
exponent, and the literal that follows the field) through a layout table
indexed by sign, decimal exponent and the number of digits kept.  Zeros
take this path too.  A value goes to the stdlib's own "%.17g" instead when
it is outside that range, inf or nan, when its scaled value lies within
1e-13 of a rounding tie, or when the log10 estimate was off by one.
"""

from __future__ import annotations

import numpy as np

_NUMBER = "%.17g"  # every number in every result file: 17 digits round-trip a double
# Values per kernel pass at most.  A pass holds about 0.5 KB of scratch per
# value, 1 MB at this size: 4,096-value passes wrote curve.csv about 2%
# faster but raised the peak RSS of repair and eval by about 1 MB.
_CHUNK = 2048
# Fewer values go to the stdlib's %-format in one piece: below about 400
# values the kernel's fixed cost of about 0.2 ms outweighs what it saves.
_SMALL = 512

# Byte offsets in a value's record: a '-', a '0', a '.', the 17 digits,
# "e-" and the exponent's two digits, then the literal after the field.
# Digits 1-16 fill its uint32 words 1-4, and "e-" and the exponent word 5.
_SIGN, _ZERO, _POINT, _DIGITS, _EXPONENT, _LITERAL, _RECORD = 0, 1, 2, 3, 20, 24, 32
_SMALLEST, _LARGEST, _FIXED = -29, 16, -4  # the kernel's exponents; fixed notation from -4
_EXPONENTS = _LARGEST - _SMALLEST + 1
_TIE = 1e-13  # a scaled value this close to a rounding tie falls back
_SPLIT = 2.0**27 + 1  # Dekker's splitter for doubles


def _scales():
    """(46, 4): 10**p for p = 0..45 as hi and lo (exactly 10**p together), and hi's halves."""
    table = np.empty((_EXPONENTS, 4))
    for p in range(_EXPONENTS):
        hi = float(10**p)
        lo = float(10**p - int(hi))
        assert int(hi) + int(lo) == 10**p
        big = _SPLIT * hi
        high = big - (big - hi)
        table[p] = hi, lo, high, hi - high
    return table


def _layouts():
    """Record offsets of the text of each (sign, exponent, digits kept), then the literal's.

    Returns the (2 * 46 * 17, 32) offsets and the text lengths.
    """
    point, zero, exponent = bytes([_POINT]), bytes([_ZERO]), bytes(range(_EXPONENT, _LITERAL))
    literal = bytes(min(i, _RECORD - 1) for i in range(_LITERAL, _LITERAL + _RECORD))
    rows, lengths = [], []
    for sign in (b"", bytes([_SIGN])):
        for x in range(_SMALLEST, _LARGEST + 1):
            for kept in range(1, 18):
                digits = bytes(range(_DIGITS, _DIGITS + max(kept, x + 1)))
                if x >= 0:  # kept digits beyond the integer part follow a point
                    field = digits[:x + 1] + (point + digits[x + 1:] if kept > x + 1 else b"")
                elif x >= _FIXED:
                    field = zero + point + zero * (-x - 1) + digits
                else:
                    field = digits[:1] + (point + digits[1:] if kept > 1 else b"") + exponent
                text = sign + field
                rows.append(text + literal[:_RECORD - len(text)])
                lengths.append(len(text))
    return np.frombuffer(b"".join(rows), np.uint8).reshape(-1, _RECORD), np.array(lengths, np.uint8)


def _digit_tables():
    """The four digit characters of each of 0..9999 as one uint32, and its digits kept.

    Digits kept run up to the last nonzero one (0 for 0000).  Both come from
    100 two-digit strings: numpy arithmetic over 0..9999 at import raised
    every command's peak RSS by about 1 MB.
    """
    pairs = [b"%02d" % pair for pair in range(100)]
    codes = np.frombuffer(b"".join(pairs), np.uint16)
    quads = np.empty((100, 100, 2), np.uint16)
    quads[..., 0], quads[..., 1] = codes[:, None], codes
    kept = [len(pair.rstrip(b"0")) for pair in pairs]
    kept = bytes(2 + kept[low] if low else kept[high] for high in range(100) for low in range(100))
    return quads.view(np.uint32).ravel(), np.frombuffer(kept, np.uint8)


_SCALES = _scales()
_LAYOUTS, _LENGTHS = _layouts()
_QUADS, _KEPT = _digit_tables()
_PLACES = np.array([[0], [4], [8], [12]], np.uint8)  # digits before each group, after the first
_POWERS = np.frombuffer(b"".join(b"e-%02d" % x for x in range(1 - _SMALLEST)), np.uint32)


class _Kernel:
    """Scratch for chunks of up to `size` values of a table whose columns end in `literals`.

    Chunks start at whole rows.  The arrays of `size` records or slots are
    allocated once and reused, so a chunk allocates only arrays of `size`
    numbers.
    """

    def __init__(self, size: int, literals: list[str]):
        self.literals = [text.encode("ascii") for text in literals]
        slot = _LITERAL + max(map(len, self.literals))  # a value's text and its literal
        if slot > _RECORD:
            raise ValueError("row template literal too long")
        self.records = np.zeros((size, _RECORD), np.uint8)
        self.records[:, :_DIGITS] = np.frombuffer(b"-0.", np.uint8)
        for column, text in enumerate(self.literals):
            self.records[column::len(literals), _LITERAL:_LITERAL + len(text)] = list(text)
        self.words = self.records.view(np.uint32)
        self.literal_lengths = np.resize([len(text) for text in self.literals], size)
        self.base = np.arange(size) * _RECORD
        self.layouts = np.ascontiguousarray(_LAYOUTS[:, :slot])
        self.masks = np.arange(slot) < np.arange(slot + 1)[:, None]  # row l keeps l bytes
        self.quads = np.empty((4, size), np.int64)
        self.layout = np.empty((size, slot), np.uint8)
        self.index = np.empty((size, slot), np.intp)
        self.out = np.empty((size, slot), np.uint8)
        self.keep = np.empty((size, slot), bool)

    def text(self, values: np.ndarray) -> str:
        """The text of whole rows of values, each field followed by its column's literal."""
        n = values.size
        magnitude = np.abs(values)
        zero = magnitude == 0.0
        fast = (magnitude >= 10.0**_SMALLEST) & (magnitude < 10.0**(_LARGEST + 1))
        magnitude[~fast] = 1.0
        exponent = np.floor(np.log10(magnitude)).astype(np.intp)
        # log10 rounds up to 17 just below 1e17; the digits' range checks the rest
        np.minimum(np.maximum(exponent, _SMALLEST, out=exponent), _LARGEST, out=exponent)
        hi, lo, high, low = _SCALES.take(_LARGEST - exponent, axis=0).T
        # magnitude * hi is exactly product + error (Dekker)
        product = magnitude * hi
        big = magnitude * _SPLIT
        top = big - (big - magnitude)
        bottom = magnitude - top
        error = ((top * high - product) + top * low + bottom * high) + bottom * low
        error += magnitude * lo
        whole = np.floor(error)
        error -= whole  # the fraction below the 17th digit
        digits = product.astype(np.int64) + whole.astype(np.int64)
        unsure = (digits < 10**16) | (np.abs(error - 0.5) <= _TIE)
        digits += error > 0.5
        unsure |= digits >= 10**17
        fallback = np.where(fast, unsure, ~zero)
        digits[zero] = 0  # printed as "0": one digit kept, exponent 0

        upper = digits // 10**8
        lead = upper // 10**8
        quads = self.quads[:, :n]  # digits 1-4, 5-8, 9-12 and 13-16
        quads[1] = upper - lead * 10**8
        quads[3] = digits - upper * 10**8
        quads[::2] = quads[1::2] // 10**4
        quads[1::2] -= quads[::2] * 10**4
        records, words = self.records[:n], self.words[:n]
        records[:, _DIGITS] = lead + 48
        words[:, 1:5] = _QUADS.take(quads, mode="clip").T
        words[:, 5] = _POWERS.take(-exponent, mode="clip")
        kept = _KEPT.take(quads, mode="clip")
        kept += (quads > 0) * _PLACES
        layout = (np.signbit(values) * _EXPONENTS + exponent - _SMALLEST) * 17
        layout += kept.max(axis=0)

        # mode="clip" keeps take from buffering its output
        np.take(self.layouts, layout, axis=0, out=self.layout[:n], mode="clip")
        np.add(self.layout[:n], self.base[:n, None], out=self.index[:n])
        out = self.out[:n]
        np.take(self.records, self.index[:n], out=out, mode="clip")
        lengths = _LENGTHS.take(layout) + self.literal_lengths[:n]
        for i in np.flatnonzero(fallback).tolist():
            text = (_NUMBER % values[i]).encode("ascii") + self.literals[i % len(self.literals)]
            out[i, :len(text)] = list(text)
            lengths[i] = len(text)
        keep = self.keep[:n]
        np.take(self.masks, lengths, axis=0, out=keep, mode="clip")
        return out[keep].tobytes().decode("ascii")


def _rows(table, row: str, sep: str):
    """Yield the text of a float table: row % each row's values, sep between rows.

    row holds one _NUMBER field per table column and no other %-conversion;
    a 1-D table holds one value per row.  The pieces join to exactly
    ``sep.join([row] * len(table)) % tuple(table.ravel())``, which is how a
    table of fewer than _SMALL values is written.  A larger one goes to
    _block_rows as one block.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim == 1:
        table = table[:, None]
    return _block_rows([table], table.size, row, sep)


def _block_rows(blocks, size: int, row: str, sep: str):
    """Yield the text of a float table of `size` values that arrives as blocks of rows.

    blocks yields 2-D arrays of whole rows that make up the table in order;
    the pieces join to the text _rows gives for the whole table.  Below
    _SMALL values that is one %-format.  A larger table takes _Kernel passes
    over whole rows of a block, at most _CHUNK values and at most an eighth
    of the table each, which keeps the text and the scratch held at once
    small.  One kernel's scratch serves every block.
    """
    if size < _SMALL:
        table = np.concatenate(list(blocks))
        yield sep.join([row] * len(table)) % tuple(table.ravel().tolist())
        return
    parts = row.split(_NUMBER)
    # the literal after the last field runs into the next row
    literals = parts[1:-1] + [parts[-1] + sep + parts[0]]
    # at least eight passes, unless below _SMALL values each: a sweep's
    # history then raises no peak RSS with its scratch
    step = min(max(size // 8, _SMALL), _CHUNK)
    step = max(1, step // len(literals)) * len(literals)
    kernel = _Kernel(min(step, size), literals)
    yield parts[0]
    done = 0
    for block in blocks:
        values = block.ravel()
        for start in range(0, values.size, step):
            text = kernel.text(values[start:start + step])
            done += min(step, values.size - start)
            yield text if done < size else text[:len(text) - len(sep + parts[0])]
        del block, values  # so that only one block is alive while blocks builds the next
