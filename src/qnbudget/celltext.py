"""Text of float columns, built with numpy digit arithmetic.

A CSV cell is f"{x:.11e}".  A JSON cell is what json.dumps writes for
float(f"{x:.11e}"): the shortest text that reads back as that double.

Each cell's 12-digit decimal is worked out in float and integer arrays, and
its characters are gathered from small tables of 4-byte words into a byte
buffer.  A CSV cell of a positive value is 18 bytes; a JSON cell holds
every piece its text may need and a keep-mask picks them.  Cells whose
vectorised text could be wrong are formatted by Python and put in their
place: zeros, NaN, infinities, three-digit exponents (subnormals among
them), values near a 12-digit rounding tie, and JSON cells whose rounding
is an integer (repr writes those with ".0" or an exponent).
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np

# 10**k for k in [-88, 110], correctly rounded; _POW10[k + 88]
_POW10 = np.array([float(f"1e{k}") for k in range(-88, 111)])
# s = |x| * 10**(11 - e) < 1e12 is off from its exact value by at most two
# roundings of relative size 2**-53 (the power's and the product's), about
# 2.2e-4, so outside this distance from n + 1/2 both round alike
_TIE_MARGIN = 1e-3


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
        fast &= (np.abs(s - np.floor(s) - 0.5) > _TIE_MARGIN) & (e <= 99)
    m = np.where(fast & ~carry, m, 1e11).astype(np.int64)
    return m, np.where(fast, e, 0), fast


def _groups(m: np.ndarray):
    """The first digit of m and its 4-, 4- and 3-digit groups after it."""
    head = m // 10**7
    first = head // 10**4
    rest = m - 10**7 * head
    middle = rest // 10**3
    return first, head - 10**4 * first, middle, rest - 10**3 * middle


def _splice(buf: np.ndarray, at: np.ndarray, cut: np.ndarray,
            cells: list) -> str:
    """The ASCII bytes of buf as text, with cells[i] in place of
    buf[at[i]:at[i] + cut[i]]; at is ascending."""
    if not cells:
        return str(buf, "ascii")
    view, pieces, prev = memoryview(buf), [], 0
    for k, n, cell in zip(at.tolist(), cut.tolist(), cells):
        pieces += (view[prev:k], cell.encode())
        prev = k + n
    pieces.append(view[prev:])
    return str(b"".join(pieces), "ascii")


def _table(fmt: str, values) -> np.ndarray:
    """uint32 words whose four bytes, in memory order, are fmt % v."""
    values = tuple(values)
    return np.frombuffer((fmt * len(values) % values).encode(), np.uint32)


def _quads() -> np.ndarray:
    """uint32 words of the 4-digit texts 0000 .. 9999, from 2-digit pairs
    (without 10**4 int objects, whose memory would stay with the process)."""
    pairs = np.frombuffer(("%02d" * 100 % tuple(range(100))).encode(),
                          np.uint16)
    quads = np.empty((100, 100, 2), np.uint16)
    quads[..., 0], quads[..., 1] = pairs[:, None], pairs
    return quads.view(np.uint32).ravel()


_QUAD = _quads()
# CSV cell, 20 bytes: [pad, "-", first digit, "."] [4 digits] [4 digits]
# [3 digits, "e"] [exponent sign, 2 exponent digits, separator]
_CSV_LEAD = _table("\0-%d.", range(10))
_CSV_TRIPLE = _table("%03de", range(1000))
_CSV_TAIL = {sep: _table("%+03d" + sep, range(-99, 100)) for sep in ",\n"}


def _csv_cells(out: np.ndarray, groups: tuple, e: np.ndarray, sep: str):
    """Write the CSV cell words of (groups, e) into the last axis of out."""
    first, upper, middle, lower = groups
    out[..., 0] = _CSV_LEAD[first]
    out[..., 1] = _QUAD[upper]
    out[..., 2] = _QUAD[middle]
    out[..., 3] = _CSV_TRIPLE[lower]
    out[..., 4] = _CSV_TAIL[sep][e + 99]


def csv_rows(columns: list) -> str:
    """Rows of f"{x:.11e}" cells, comma-separated, newline-terminated."""
    n, ncols = len(columns[0]), len(columns)
    # the text of |x|, from the first digit to the separator
    out = np.empty((n, ncols, 18), np.uint8)
    words = np.empty((n, 5), np.uint32)
    slow = np.empty((n, ncols), bool)
    neg = np.empty((n, ncols), bool)
    for j, col in enumerate(columns):
        m, e, fast = _decimal(col)
        _csv_cells(words, _groups(m), e, "\n" if j == ncols - 1 else ",")
        out[:, j] = words.view(np.uint8)[:, 2:]
        slow[:, j], neg[:, j] = ~fast, np.signbit(col)
    edits = np.flatnonzero(slow | neg)
    whole = slow.ravel()[edits]
    rows, cols = np.divmod(edits, ncols)
    cells = ["%.11e" % columns[j][i] if s else "-"
             for i, j, s in zip(rows.tolist(), cols.tolist(), whole.tolist())]
    # a Python-formatted text replaces the 17 bytes before its separator,
    # and a minus sign goes in front of a negative value
    return _splice(out.reshape(-1), 18 * edits, 17 * whole, cells)


# JSON cell, 48 bytes: ["   -"] ["0.00"] ["0", 2 pads, digit 0]
# [digits 1-4] [digits 5-8] [digits 9-11, pad], then the CSV cell with
# separator ",", then [newline, 3 pads].  Scientific notation is the CSV
# text without its trailing zeros; fixed notation takes its integer digits
# from the first copy of the mantissa and the rest from the CSV cell, and
# below one it is "0.", zeros and the first copy.
_JSON_WIDTH = 48
_A, _POINT = 11, 27  # digit 0 of the first copy, the point of the CSV cell
_JSON_HEAD = _table("%s", ["   -", "0.00"])
_JSON_FIRST = _table("0\0\0%d", range(10))
_JSON_LAST = _table("%03d\0", range(1000))
_JSON_NEWLINE = _table("%s", ["\n\0\0\0"])


def _json_keep() -> np.ndarray:
    """JSON masks by (layout, significant digits - 1), where layouts 0..14
    are fixed notation at exponents -4..10 and layout 15 is scientific
    notation; the sign is kept apart."""
    keep = np.zeros((16, 12, _JSON_WIDTH), bool)
    for layout, nsig in product(range(16), range(1, 13)):
        row, x = keep[layout, nsig - 1], layout - 4
        row[:3] = True                          # indent
        row[_POINT + 16:_POINT + 18] = True     # ",\n"
        if layout == 15:
            row[_POINT - 1] = True              # digit 0
            if nsig > 1:                        # point, digits 1 ..
                row[_POINT:_POINT + nsig] = True
            row[_POINT + 12:_POINT + 16] = True  # exponent
        elif x < 0:
            row[4:5 - x] = True                 # "0.", zeros
            row[_A:_A + nsig] = True            # the digits
        else:
            row[_A:_A + x + 1] = True           # integer digits
            row[_POINT] = True                  # point, fraction digits
            row[_POINT + x + 1:_POINT + nsig] = True
    return keep.reshape(-1, _JSON_WIDTH)


def _sig4() -> np.ndarray:
    """Significant digits of the 4-digit groups 0000 .. 9999: 4, less one
    per trailing zero."""
    sig = np.full(10**4, 4, np.uint8)
    for step, nsig in ((10, 3), (100, 2), (1000, 1), (10**4, 0)):
        sig[::step] = nsig
    return sig


_JSON_KEEP = _json_keep()
_SIG4 = _sig4()


def _json_cells(values: np.ndarray):
    """(words, code, slow): the JSON cell words of the values, the row of
    _JSON_KEEP that picks each one's text, and whether Python formats it."""
    m, e, fast = _decimal(values)
    first, upper, middle, lower = groups = _groups(m)
    words = np.empty((len(values), _JSON_WIDTH // 4), np.uint32)
    _csv_cells(words[:, 6:11], groups, e, ",")
    words[:, :2] = _JSON_HEAD
    words[:, 2] = _JSON_FIRST[first]
    words[:, 3:5] = words[:, 7:9]
    words[:, 5] = _JSON_LAST[lower]
    words[:, 11:] = _JSON_NEWLINE
    nsig = np.where(lower != 0, 9 + _SIG4[10 * lower],
                    np.where(middle != 0, 5 + _SIG4[middle],
                             1 + _SIG4[upper]))
    layout = np.where(e >= -4, e + 4, 15)
    # a rounding with no digits after the point is an integer
    slow = ~fast | (nsig <= e + 1)
    code = np.where(slow, 0, layout * 12 + nsig - 1)
    return words, code, slow


def json_elements(values: np.ndarray) -> str:
    """JSON array elements, one per line and joined by ",\\n", as
    json.dumps(indent=1) writes float(f"{x:.11e}") three levels deep."""
    words, code, slow = _json_cells(values)
    keep = _JSON_KEEP[code]
    keep[:, 3] = np.signbit(values)
    if slow.any():
        # a Python-formatted line takes the place of its cell's bytes
        lines = [f"   {json.dumps(float('%.11e' % x))},\n"
                 for x in values[slow].tolist()]
        width = max(map(len, lines))
        words.view(np.uint8)[slow, :width] = np.frombuffer(
            "".join(line.ljust(width) for line in lines).encode(),
            np.uint8).reshape(-1, width)
        keep[slow] = np.arange(_JSON_WIDTH) < np.array(
            [len(line) for line in lines])[:, None]
    # every cell ends in ",\n", which the last one drops
    return str(words.view(np.uint8)[keep][:-2], "ascii")
