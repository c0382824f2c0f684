"""CSV rows of floats, each cell printed exactly as "%.pg" % x.

`table` yields a table's lines as bytes, a block of at most BLOCK_CELLS
cells at a time, so a caller can write each block as it is made and no
copy of the whole table exists as text. `stream` does the same for rows
that arrive in blocks, so that not even the table's numbers need exist
at once. A table of fewer than CROSSOVER
cells, or one printed at p > MAX_FAST_P, takes `rowwise`: one "%" per row,
which is also the reference the tests compare `block` with.

`block` decides most cells with float and integer arithmetic. For a finite
nonzero x with e = floor(log10|x|), the scaled value s = |x| * 10^(p-1-e)
is computed with one rounding of a correctly rounded power of ten, so it is
within 10^p * 2^-52 of the exact |x| * 10^(p-1-e). When s lies in
[10^(p-1), 10^p) and its fraction is farther than 10^p * TIE_MARGIN from 1/2,
rint(s) is the mantissa that Python's correctly rounded conversion prints
(a carry to 10^p moves to 10^(p-1) and e + 1). Every other cell (nan, inf,
near-ties, |e| >= MAX_EXP, a log10 that missed the decade) is spliced in
from "%.pg" % x. ±0 takes the arithmetic path as the digit 0.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

CROSSOVER = 1024  # cells; below this one "%" per row is faster than numpy
BLOCK_CELLS = 1 << 14
MAX_FAST_P = 14  # at p = 15 the tie margin 10^15 * 2^-49 exceeds 1/2: no cell passes
MAX_EXP = 290  # |e| bound: 10^(p-1-e) and the scaled value stay normal floats
TIE_MARGIN = 2.0 ** -49  # times 10^p; 8 times the error bound of s

_U8 = np.uint8
_PREFIX = np.frombuffer(b"0.000", dtype=_U8)[:, None]
_SLOTS = np.arange(32, dtype=np.int8)[:, None]
# hundreds (blank below 100), tens and units of an exponent's magnitude
_EXP_DIGITS = (48 + np.arange(400) // np.array([100, 10, 1])[:, None] % 10).astype(_U8)
_EXP_DIGITS[0, :100] = 0
_POW_ZERO = 310


@functools.cache
def _pow10() -> np.ndarray:
    """10^k at [k + _POW_ZERO] for every k = p-1-e a double can need.

    Each is correctly rounded by float() and capped at 1e308, so a scaled
    value is finite: with an extreme or wrong e it lands outside
    [10^(p-1), 10^p) and the cell takes "%". Built on first use, so that
    importing pipenet does not pay for it.
    """
    return np.array([float(f"1e{min(k, 308)}") for k in range(-_POW_ZERO, 341)])


def rowwise(rows: np.ndarray, p: int, labels=None) -> str:
    """The lines of a 2-D float array, one "%.pg" per cell, optional text first cell."""
    cells = [f"%.{p}g"] * rows.shape[1]
    if labels is None:
        fmt = ",".join(cells) + "\n"
        return "".join([fmt % tuple(row) for row in rows.tolist()])
    fmt = ",".join(["%s"] + cells) + "\n"
    return "".join([fmt % (lab, *row) for lab, row in zip(labels, rows.tolist())])


def table(header, rows: np.ndarray, p: int, labels=None):
    """Yield a CSV table as bytes: the header line, then rowwise(rows, p, labels) in blocks.

    header is a sequence of column names; labels, if given, is one text
    cell per row, printed first. Blocks hold whole rows, at most
    BLOCK_CELLS cells each.
    """
    step = max(1, BLOCK_CELLS // max(1, rows.shape[1]))
    starts = range(0, len(rows), step)
    return stream(header, (rows[lo:lo + step] for lo in starts), p, rows.size,
                  None if labels is None else (labels[lo:lo + step] for lo in starts))


def stream(header, blocks, p: int, n_cells: int, labels=None):
    """Yield the CSV table whose rows come from blocks, as table does: the header line, then each block.

    blocks yields 2-D float arrays of whole rows; labels, if given, yields
    each block's text cells. n_cells, the size of the whole table, picks
    the path as in table, so the bytes are those of table over the
    blocks joined.
    """
    yield (",".join(header) + "\n").encode()
    fast = p <= MAX_FAST_P and n_cells >= CROSSOVER
    for part, labs in zip(blocks, itertools.repeat(None) if labels is None else labels):
        yield block(part, p, labs) if fast else rowwise(part, p, labs).encode()


def block(rows: np.ndarray, p: int, labels=None) -> bytes:
    """Bytes equal to rowwise(rows, p, labels).encode(), for any p >= 1.

    Each cell gets p + 13 byte slots (sign, "0.000" prefix, p digits and a
    dot, "e±hhh", separator) in a (slot, cell) grid; unused slots hold 0,
    which the final translate drops. Masks enter as uint8 factors so every
    product stays one byte wide. Above MAX_FAST_P every cell takes "%", so
    `table` sends such tables to `rowwise` instead.
    """
    n_rows, n_cols = rows.shape
    x = np.ascontiguousarray(rows, dtype=float).ravel()
    n = x.size
    finite = np.isfinite(x)
    nonzero = finite & (x != 0)
    a = np.where(nonzero, np.abs(x), 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * _pow10()[_POW_ZERO + p - 1 - e]
    frac = s - np.floor(s)
    fast = (finite & (s >= 10.0 ** (p - 1)) & (s < 10.0 ** p) & (np.abs(e) < MAX_EXP)
            & (np.abs(frac - 0.5) > 10.0 ** p * TIE_MARGIN))
    itype = np.int32 if p <= 9 else np.int64  # int64 division is several times slower
    m = np.rint(s * (fast & nonzero)).astype(itype)
    carry = m == 10 ** p
    m[carry] = 10 ** (p - 1)
    e += carry

    # digit j of m is floor(m / 10^(p-1-j)) - 10 floor(m / 10^(p-j))
    digits = np.zeros((p + 2, n), dtype=_U8)  # rows 1..p; a zero row on each side
    upto = np.zeros(n, dtype=itype)
    for j in range(p):
        nxt = m // itype(10 ** (p - 1 - j))
        digits[1 + j] = nxt - 10 * upto
        upto = nxt
    keep = ((digits[1:p + 1] != 0).view(_U8) * np.arange(1, p + 1, dtype=_U8)[:, None]).max(axis=0)
    keep = np.maximum(keep, 1).astype(np.int8)
    X = e.astype(np.int16)
    sci = (X < -4) | (X >= p)
    fpos = ~sci & (X >= 0)
    fneg = ~sci & (X < 0)
    # the slot of '.' among the digits, and the number of digits printed
    dot = (sci + fpos * (X + 1) + fneg * np.int16(p + 1)).astype(np.int8)
    nd = keep + (fpos * np.maximum(X + 1 - keep, 0)).astype(np.int8)
    digits[1:p + 1] += _U8(48)

    grid = np.empty((p + 13, n), dtype=_U8)
    grid[0] = np.signbit(x).view(_U8) * _U8(45)
    lead = (fneg * (1 - X)).astype(np.int8)  # length of "0.000" printed
    grid[1:6] = (_SLOTS[:5] < lead).view(_U8) * _PREFIX
    S = _SLOTS[:p + 1]
    grid[6:p + 7] = (((S < dot) & (S < nd)).view(_U8) * digits[1:]
                     + ((S > dot) & (S <= nd)).view(_U8) * digits[:-1]
                     + ((S == dot) & (nd > dot)).view(_U8) * _U8(46))
    sci8 = sci.view(_U8)
    ax = np.abs(e)
    grid[p + 7] = sci8 * _U8(101)
    grid[p + 8] = sci8 * (_U8(43) + (X < 0).view(_U8) * _U8(2))
    for i in range(3):
        grid[p + 9 + i] = sci8 * _EXP_DIGITS[i].take(ax)
    grid[p + 12] = ord(",")
    grid[p + 12, n_cols - 1::n_cols] = ord("\n")

    slow = np.flatnonzero(~fast)
    if slow.size:
        width = p + 12
        text = b"".join([(f"%.{p}g" % v).encode().ljust(width, b"\0") for v in x[slow].tolist()])
        grid[:width, slow] = np.frombuffer(text, dtype=_U8).reshape(-1, width).T

    cells = grid.T
    if labels is not None:
        named = [f"{lab},".encode() for lab in labels]
        width = max(map(len, named))
        heads = np.frombuffer(b"".join([h.ljust(width, b"\0") for h in named]), dtype=_U8)
        cells = np.concatenate([heads.reshape(n_rows, width), cells.reshape(n_rows, -1)], axis=1)
    return cells.tobytes().translate(None, b"\0")
