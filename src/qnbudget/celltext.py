"""Text of float columns, built with numpy digit arithmetic.

A CSV cell is f"{x:.11e}".  A JSON cell is what json.dumps writes for
float(f"{x:.11e}"): the shortest text that reads back as that double.

Each cell's 12-digit decimal is worked out in float and integer arrays, and
its characters are gathered from small tables of 4-byte words into a byte
buffer.  A CSV cell is 18 bytes.  A JSON cell is a 28-byte row with NUL in
every byte its text does not use, and one bytes.translate per block deletes
them.  Cells the vectorised text does not cover, or could get wrong, are
formatted by Python and put in their place: negative values (no budget
writes one), zeros, NaN, infinities, three-digit exponents (subnormals
among them), values near a 12-digit rounding tie, and JSON cells whose
rounding is an integer (repr writes those with ".0" or an exponent) or at
least 1e7 in magnitude.
"""

from __future__ import annotations

import functools
import json
from itertools import accumulate

import numpy as np

# 10**k for k in [-88, 110], correctly rounded; _POW10[k + 88]
_POW10 = np.array([float(f"1e{k}") for k in range(-88, 111)])
# s = |x| * 10**(11 - e) <= 1e12 is off its exact value by two roundings of
# relative size 2**-53 (the power's, the product's), by under 1e12 * (2**-52
# + 2**-106) < 2.2205e-4: where |s - rint(s)| < 1/2 - 2.5e-4, both round alike
_TIE_MARGIN = 2.5e-4


def _decimal(x: np.ndarray):
    """(m, e, fast): |x| rounds to 12 significant digits as
    m * 10**(e - 11), with the integer m in [1e11, 1e12) and |e| <= 99.

    Where fast is False the cell needs Python's formatting, and m, e hold
    placeholders that index the tables safely.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        fast = (e >= -99) & (e <= 99)
        e = np.where(fast, e, 0.0).astype(np.int64)
        s = a * _POW10[99 - e]
        # log10 is off by at most a few ulps, so where it puts e one off,
        # s lies within 0.1 of 1e11 or 1e12 and rounds to it; a rounding
        # to 1e12 carries
        m = np.rint(s)
        carry = m == 1e12
        e += carry
        fast &= (np.abs(s - m) < 0.5 - _TIE_MARGIN) & (e <= 99)
    m = np.where(fast & ~carry, m, 1e11).astype(np.int64)
    return m, np.where(fast, e, 0), fast


def _groups(m: np.ndarray):
    """The first digit of m and its 4-, 4- and 3-digit groups after it."""
    head = m // 10**7
    first = head // 10**4
    rest = m - 10**7 * head
    middle = rest // 10**3
    return first, head - 10**4 * first, middle, rest - 10**3 * middle


def _table(fmt: str, values) -> np.ndarray:
    """uint32 words whose four bytes, in memory order, are fmt % v."""
    values = tuple(values)
    return np.frombuffer((fmt * len(values) % values).encode(), np.uint32)


# uint32 words of the 4-digit texts 0000 .. 9999, each two 2-digit pairs
# (10**4 int objects would leave their memory with the process)
_PAIRS = np.frombuffer(("%02d" * 100 % tuple(range(100))).encode(), np.uint16)
_QUAD = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), -1).view(
    np.uint32).ravel()
# CSV cell, 20 bytes: [2 pad bytes, first digit, "."] [4 digits] [4 digits]
# [3 digits, "e"] [exponent sign, 2 exponent digits, separator]
_CSV_LEAD = _table("\0\0%d.", range(10))
_CSV_TRIPLE = _table("%03de", range(1000))
_CSV_TAIL = np.concatenate([_table("%+03d" + sep, range(-99, 100))
                            for sep in ",\n"])
_CSV_CELL = np.dtype([("pad", "V2"), ("text", "V18")])


def csv_workspace(cells: int) -> tuple:
    """Buffers for csv_rows of up to `cells` cells."""
    return np.empty(cells), np.empty(cells, "V18"), np.empty((cells, 5), "u4")


def csv_rows(columns: list, work: tuple) -> list:
    """Comma-separated rows of f"{x:.11e}" cells, in one digit pass: ASCII
    pieces built in the csv_workspace work, valid until its next use."""
    n, ncols = len(columns[0]), len(columns)
    # out: each cell's text, row by row, from its first digit to separator
    values, out, words = (a[:n * ncols] for a in work)
    np.stack(columns, 1, out=values.reshape(n, ncols))
    m, e, fast = _decimal(values)
    first, upper, middle, lower = _groups(m)
    words[:, 0] = _CSV_LEAD[first]
    words[:, 1] = _QUAD[upper]
    words[:, 2] = _QUAD[middle]
    words[:, 3] = _CSV_TRIPLE[lower]
    e.reshape(n, ncols)[:, -1] += 199   # "\n" words, after the "," words
    words[:, 4] = _CSV_TAIL[e + 99]
    out[:] = words.view(_CSV_CELL)["text"][:, 0]
    # a Python-formatted text replaces the 17 bytes before its separator
    view, pieces, prev = memoryview(out.view(np.uint8)), [], 0
    for k in np.flatnonzero(~fast | np.signbit(values)).tolist():
        pieces += (view[prev:18 * k], ("%.11e" % values[k]).encode())
        prev = 18 * k + 17
    pieces.append(view[prev:])
    return pieces


# JSON row, 28 bytes, NUL where the text leaves a byte unused:
#   a: a NUL (where a negative cell's sign would go; Python writes those),
#     then "d0." (scientific; "d0" if no digit follows), "0.", zeros and d0
#     (fixed notation below one), or digits 0 .. e (fixed, e >= 0)
#   z: digits 1-8 less those in a; at fixed e >= 1 the point replaces digit e
#   last: digits 9-11, then "e" or ","; exp: the exponent and "," (scientific)
#   next: newline and the next cell's indent
# Digits after the last significant one come from stripped copies of the
# digit words, so they are NUL too, and one bytes.translate deletes them.
_ROW = np.dtype([("a", "<i8"), ("z", "<i8"), ("last", "<u4"),
                 ("exp", "<u4"), ("next", "<u4")])


@functools.cache
def _json_tables():
    """(quads, triples, layout), built on the first JSON write: the 4-digit
    words, then the same stripped; the 3-digit words stripped; rows keep,
    shift, head, dot, zmask, zdot, end, exp by decimal exponent e + 99 (fixed
    notation at -4 <= e <= 6).  A cell's a is head | ((d0 | z << 8) & keep)
    << shift, with dot if a digit follows the point; its z keeps zmask and
    gains zdot; end follows digit 11."""
    point = ord(".")
    fixed = {e: (0xFF, 16 - 8 * e, int.from_bytes(
        b"\0" + b"0." + b"0" * (-1 - e), "little"), 0, -1, 0)
        for e in range(-4, 0)}
    fixed.update({e: (2**(8 * e + 8) - 1, 8, 0, point << 16 if e == 0 else 0,
                      ~(2**(8 * e) - 1), point << 8 * e >> 8)
                  for e in range(7)})
    layout = np.array([(*fixed[e], ord(",") << 24, 0) if e in fixed
                       else (0xFF, 8, 0, point << 16, -1, 0, ord("e") << 24, w)
                       for e, w in zip(range(-99, 100),
                                       _CSV_TAIL[:199].tolist())],
                      np.int64).T.copy()
    # the 4-digit words, then the same with the "0" bytes at their end NUL
    text = _QUAD.view(np.uint8).reshape(-1, 4)
    zero = np.logical_and.accumulate(text[:, ::-1] == ord("0"), 1)[:, ::-1]
    quads = np.concatenate([_QUAD, np.where(zero, 0, text).view(
        np.uint32).ravel()]).astype(np.int64)
    return quads, quads[10**4:10**4 + 1000] >> 8, layout


def _json_digits(values: np.ndarray):
    """(d0, z, last, e, fast): the character of the values' first digit,
    their digits 1-8 and 9-11 as z and last, and _decimal's e and fast.
    The groups are freed on return, before the rows are built."""
    quads, triples, _ = _json_tables()
    m, e, fast = _decimal(values)
    first, upper, middle, lower = _groups(m)
    # a group loses its trailing zeros where no digit but zero follows it
    tail = lower == 0
    z = quads[middle + 10**4 * tail] << 32
    z |= quads[upper + 10**4 * (tail & (middle == 0))]
    return first + ord("0"), z, triples[lower], e, fast


def _json_rows(values: np.ndarray) -> bytearray:
    """A NUL, the first cell's indent, then the JSON rows of the values."""
    d0, z, last, e, fast = _json_digits(values)
    at = e + 99
    keep, shift, head, dot, zmask, zdot, end, exp = _json_tables()[2]
    text = bytearray(4 + _ROW.itemsize * len(values))
    text[1:4] = b"   "
    rows = np.frombuffer(text, _ROW, offset=4)
    frac = z & zmask[at]
    point = (frac | last) != 0      # a digit follows the point
    rows["z"], rows["last"] = frac | zdot[at], last | end[at]
    rows["exp"], rows["next"] = exp[at], int.from_bytes(b"\n   ", "little")
    z = (z << 8 | d0) & keep[at]
    rows["a"] = z << shift[at] | head[at] | dot[at] * point
    # Python formats what _decimal leaves to it, negative values, roundings
    # of 1e7 or more, whose fixed notation a cannot hold, and integers (no
    # digit after ".")
    slow = ~fast | np.signbit(values) | (e > 6) | (e >= 0) & ~point
    if slow.any():
        # a Python-formatted line takes the place of its cell's row, at its end
        cells = json.dumps([float("%.11e" % x) for x in values[slow].tolist()])
        rows[slow] = np.frombuffer(b"".join(
            f"{cell},\n   ".encode().rjust(_ROW.itemsize, b"\0")
            for cell in cells[1:-1].split(", ")), _ROW)
    return text


def json_blocks(blocks: list) -> list:
    """Each block's JSON array elements as ASCII bytes, one per line and
    joined by ",\\n", as json.dumps(indent=1) writes float(f"{x:.11e}")
    three levels deep; one digit pass formats all the blocks."""
    text = _json_rows(blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
    ends = [0, *accumulate(_ROW.itemsize * len(values) for values in blocks)]
    # a block's text runs from the indent that ends the row before its first
    # through its last row, less that row's ",\n" and next indent
    return [memoryview((text[lo + 1:hi + 4] if len(blocks) > 1 else text)
                       .translate(None, b"\0"))[:-5]
            for lo, hi in zip(ends, ends[1:])]
