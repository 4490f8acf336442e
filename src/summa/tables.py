"""Table I/O: delimited score and label tables, written and read.

:mod:`summa.cli` reads its inputs with :func:`read_matrix_table` and
:func:`read_labels_table` and writes every table with
:func:`write_table`.  Every file is read and written as UTF-8, whatever
the locale.

* floats are written with 17 significant digits, each cell as
  ``format(x, ".17g")`` writes it.  A float64 array cell with
  1e-4 <= |x| < 1e16 gets that text from numpy integer arithmetic, a
  chunk of cells at a time; every other cell (zeros, non-finite values,
  other magnitudes, floats outside float64 arrays) from ``format``
  itself.
* a table's header record is read with ``csv.reader``.  Its body is
  read a chunk of whole lines at a time by a numpy kernel, while the
  text is plain (ASCII without quotes, whitespace, blank lines or lone
  carriage returns, the table's number of cells on every line, a
  delimiter that is no character of a number); from the first chunk it
  declines to the end of the file, ``csv.reader`` reads the rest in this
  process, which takes ``"`` quoting as ``csv.writer`` writes it, and
  every record of it goes through the one cell rule (:func:`_cell_value`)
  a cell at a time.  The kernel falls back to that rule for any cell it
  does not certify, so both give the same ids and the same values, bit
  for bit; a body error names its data row.
* a value cell's float has one route in the kernel: a double-double
  product certified by Ziv's test, or else the cell rule.
* a large CSV table is written and read in contiguous row parts, one
  per usable CPU: this process handles the first and forked children
  the rest, with the same bytes and values as one part.  Both sides
  split by one rule: a part holds at least ``_PART_CELLS`` cells, ids
  included, where a read counts its rows as the body's bytes over the
  length of its first data line.  A read cuts the body at line starts
  near equal byte offsets, with no pass over it first; the file's size
  bounds its rows, which sets the rows of the array.  Each part runs
  the kernel alone and stops at the first chunk it declines; a child
  sends back its ids and values, which this process places in order.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import pickle
import re
import shutil
from pathlib import Path

import numpy as np

from .exceptions import InvalidInput
from .ranking import LabelVector

# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
# a chunk of a CSV table holds at most _CHUNK_ROWS rows and, in a wide
# table, about _CHUNK_CELLS cells, so its text and scratch stay small
_CHUNK_ROWS = 4096
_CHUNK_CELLS = 1 << 13
# the least cells, ids included, in one part of a split table.  On a
# 2-core VM, in a process holding a 30 x 10**5 ensemble, 30-column float
# tables wrote and read in these medians (ms, 1 part -> 2 parts, 9 to 11
# alternating calls): 3 * 10**5 cells 59 -> 71 and 50 -> 66, 4.5 * 10**5
# cells 90 -> 100 and 74 -> 87, 6 * 10**5 cells 144 -> 93 and 113 -> 78.
# Two parts pay from about 2 * 2**18 cells
_PART_CELLS = 1 << 18


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _quoted(text: str) -> str:
    """A CSV cell as ``csv.writer`` quotes it (QUOTE_MINIMAL)."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _jsonable(value):
    """``value`` with numpy scalars made Python ones, every non-finite
    float made ``None`` and every string, dict keys too, made the UTF-8
    text it stands for, through dicts, lists and tuples, so that
    ``json`` writes strict JSON.  Under a non-UTF-8 locale Python decodes
    argv and file names with ``surrogateescape``, into lone surrogates
    that strict JSON cannot hold."""
    if isinstance(value, str):
        return value.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
    if isinstance(value, dict):
        return {_jsonable(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _csv_columns(columns):
    """The ``%`` specs of a table's columns and the cells they format:
    each run of adjacent float64 arrays is one :class:`_FloatColumns`
    whose text fills one ``%s``, integer arrays format in the row's one
    ``%`` string, and any other cell becomes its quoted text first."""
    specs, cells = [], []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype == np.float64:
            if cells and isinstance(cells[-1], _FloatColumns):
                cells[-1].columns.append(column)
                continue
            spec, column = "%s", _FloatColumns([column])
        elif isinstance(column, np.ndarray) and column.dtype.kind in "iu":
            spec = "%d"
        else:
            spec, column = "%s", [_fmt(cell) for cell in column]
            # one search over the whole column; the common id column needs no quotes
            if _NEEDS_QUOTES.search("".join(column)):
                column = [_quoted(cell) for cell in column]
        specs.append(spec)
        cells.append(column)
    return specs, cells


# ---------------------------------------------------------------------------
# %.17g text of float64 cells
#
# format(x, ".17g") writes a cell with 1e-4 <= |x| < 1e16 in fixed
# notation.  Its 17 digits are D = |x| * 10**(16 - E) rounded half to even,
# with E = floor(log10|x|).  Dekker's product (1971) gives that product
# exactly, as the sum of two doubles, so D holds the correctly rounded
# digits that CPython's dtoa prints (Gay 1990).  Each cell's text is laid
# out in a 24-byte slot, NUL where it has no character, and bytes.translate
# drops the NULs.  Slot bytes:
#   0        the separator before the cell
#   1        the sign
#   2 - 6    where E < 0, "0." and the -E - 1 zeros after the point
#   6 + j    digit j where j <= E, the integer part
#   7 + E    the point, where a digit follows it
#   7 + j    digit j where E < j, up to the last nonzero digit
# Every other cell (zeros, non-finite values and magnitudes outside that
# range) takes format, written into its slot after the separator where it
# fits; one of 24 characters leaves _LONG_CELL there, replaced in the text.
# ---------------------------------------------------------------------------

_POW10 = np.array([float(10**k) for k in range(24)])
_SLOT = 24
_LONG_CELL = "\x01"


def _halves(a):
    """Veltkamp's split of ``a`` into two doubles of 26 bits each."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)
_GROUP4 = np.arange(10_000, dtype=np.int64)
# a 4-digit group's ASCII, first digit in the lowest byte, and its trailing zeros
_ASCII4 = sum(((_GROUP4 // 10**(3 - i) % 10 + 48) << 8 * i) for i in range(4)).astype(np.uint64)
_ZEROS4 = sum((_GROUP4 % 10**i == 0).astype(np.int64) for i in range(1, 5))


def _slot_tables():
    """The slot's masks for the digits before and after the point, and its
    fixed characters, for each (E + 4) * 18 + kept digits, as rows of three
    64-bit words."""
    e = np.arange(-4, 16, dtype=np.int64)[:, None, None]
    kept = np.arange(18, dtype=np.int64)[None, :, None]
    byte = np.arange(_SLOT, dtype=np.int64)[None, None, :]
    whole = (byte >= 6) & (byte - 6 <= e)
    fraction = (byte - 7 > e) & (byte - 7 < kept)
    chars = np.where(e < 0, np.select([byte == 2, byte == 3, (byte >= 4) & (byte < 3 - e)],
                                      [ord("0"), ord("."), ord("0")], 0),
                     np.where((byte == 7 + e) & (kept > e + 1), ord("."), 0))

    def words(table):
        table = np.broadcast_to(table, (20, 18, _SLOT)).astype(np.uint8)
        return np.ascontiguousarray(table).reshape(360, _SLOT).view("<u8")
    return words(whole * 255), words(fraction * 255), words(chars)


_WHOLE_MASK, _FRACTION_MASK, _SLOT_CHARS = _slot_tables()
_U8, _U32, _U48, _U56 = (np.uint64(k) for k in (8, 32, 48, 56))


def _product(a, b, b_high, b_low):
    """Dekker's product: ``a * b`` rounded and its rounding error, whose
    sum is ``a * b`` exactly; ``b_high, b_low`` are ``_halves(b)``."""
    product = a * b
    a_high, a_low = _halves(a)
    error = (((a_high * b_high - product) + a_high * b_low) + a_low * b_high) + a_low * b_low
    return product, error


def _scaled(a, e):
    """``a * 10**(16 - e)`` as the exact sum ``high + low``."""
    k = 16 - e
    return _product(a, _POW10[k], _POW10_HIGH[k], _POW10_LOW[k])


def _float_slots(x):
    """The ``(len(x), _SLOT)`` uint8 slots of the float64 cells ``x``,
    each the cell's ``format(x, ".17g")`` text with NULs between its
    characters, or ``_LONG_CELL`` for a text too long for it; byte 0,
    NUL, is free for a separator.  Also returns the long texts, in
    order."""
    n = len(x)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    high, low = _scaled(a, e)
    # log10 can land on the wrong side of a power of ten: keep D in [1e16, 1e17)
    below = (high < 1e16) | ((high == 1e16) & (low < 0))
    above = (high > 1e17) | ((high == 1e17) & (low >= 0))
    wrong = np.flatnonzero(below | above)
    if len(wrong):
        e[wrong] += above[wrong].astype(np.int64) - below[wrong]
        high[wrong], low[wrong] = _scaled(a[wrong], e[wrong])
    # high is an even integer (> 2**53), so rounding low rounds the sum.  D
    # stays below 1e17: the double nearest below a power of ten is at
    # least 8 units of its 17th digit away
    d = high.astype(np.int64) + np.rint(low).astype(np.int64)
    first = d // 10**16
    rest = d - first * 10**16
    eights = np.concatenate([rest // 10**8, rest % 10**8])
    # the groups of digits 1-4, 9-12, 5-8 and 13-16
    groups = np.concatenate([eights // 10**4, eights % 10**4])
    zeros = np.take(_ZEROS4, groups).reshape(4, n)
    zeros = zeros[3] + (zeros[3] == 4) * (zeros[1] + (zeros[1] == 4) * (
        zeros[2] + (zeros[2] == 4) * zeros[0]))
    table = (e + 4) * 18 + (17 - zeros)
    table[~fast] = 0
    ascii4 = np.take(_ASCII4, groups).reshape(4, n)
    digits1 = ascii4[0] | (ascii4[2] << _U32)
    digits9 = ascii4[1] | (ascii4[3] << _U32)
    first = (first + 48).astype(np.uint64)
    # the digits at 7 + j, to keep after the point, and at 6 + j, before it
    fraction = np.zeros((n, 3), "<u8")
    fraction[:, 0] = first << _U56
    fraction[:, 1] = digits1
    fraction[:, 2] = digits9
    fraction &= np.take(_FRACTION_MASK, table, axis=0)
    whole = np.zeros((n, 3), "<u8")
    whole[:, 0] = (first << _U48) | (digits1 << _U56)
    whole[:, 1] = (digits1 >> _U8) | (digits9 << _U56)
    whole[:, 2] = digits9 >> _U8
    whole &= np.take(_WHOLE_MASK, table, axis=0)
    fraction |= whole
    fraction |= np.take(_SLOT_CHARS, table, axis=0)
    fraction[:, 0] |= np.signbit(x).astype(np.uint64) * np.uint64(ord("-") << 8)
    slots = fraction.view(np.uint8)
    slow = np.flatnonzero(~fast)
    long = []
    if len(slow):
        texts = [format(cell, ".17g") for cell in x[slow].tolist()]
        long = [text for text in texts if len(text) >= _SLOT]
        text = b"".join((text if len(text) < _SLOT else _LONG_CELL).encode()
                        .ljust(_SLOT - 1, b"\0") for text in texts)
        slots[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT - 1)
    return slots, long


class _FloatColumns:
    """Adjacent float64 columns of a CSV table.  A slice of rows gives one
    text per row: the row's cells as ``format(x, ".17g")`` writes them,
    joined by commas."""

    def __init__(self, columns: list):
        self.columns = columns

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, rows: slice) -> list[str]:
        width = len(self.columns)
        cells = np.empty((rows.stop - rows.start, width))
        for k, column in enumerate(self.columns):
            cells[:, k] = column[rows]
        slots, long = _float_slots(cells.reshape(-1))
        slots[:, 0] = ord(",")
        slots[::width, 0] = ord("\n")
        text = slots.tobytes().translate(None, b"\0").decode("ascii")
        if long:
            pieces = text.split(_LONG_CELL)
            text = "".join(piece + cell for piece, cell in zip(pieces, [*long, ""]))
        return text.split("\n")[1:]


# ---------------------------------------------------------------------------
# number cells from the text of a table body
#
# A chunk of whole lines sits in a byte buffer after _WINDOW bytes of
# room.  One flatnonzero finds its separators (the delimiter and line
# feeds) and points.  Each value cell is read right-aligned into a
# _WINDOW-byte window of three little-endian words.  The bytes before the
# cell, and its sign, are masked off; the point is taken out by moving
# the digits before it up one byte; the digits fold SWAR-style, eight to
# a word, into an integer D < 10**19 with f digits after the point.  An
# integer cell is D itself, where it has no point and at most 18 digits.
# A float cell's D * 10**-f has one route: D, as two doubles, times
# 10**-f, as a double-double (Dekker's product), is within 2**-100 of
# itself relative to it, and its rounded sum is the correctly rounded
# value wherever it lies farther than that from the midpoints on either
# side (Ziv's test, 1991; below a power of two the gap is half as wide).
# A cell that fails the test, and any other value cell (too long, an
# exponent, a leading "+", nan, empty), is read by the cell rule of
# _cell_value.  Where the rule rejects a cell, or the chunk holds any
# text the kernel does not split (quotes, blank lines, whitespace,
# control or non-ASCII bytes, a lone carriage return, a line of other
# cells), the kernel declines the chunk: csv.reader reads the rest of the
# table, from the chunk's first line on.
# ---------------------------------------------------------------------------

# the bytes of text a chunk reads at once, unless one line is longer
_READ_BYTES = 1 << 18
_WINDOW = 24
_U16, _U63 = np.uint64(16), np.uint64(63)
# one byte in every byte of a word; the low 8, 16 and 32 bits of every
# 16, 32 and 64-bit lane
_ZERO_CHARS, _DIGIT_LIMIT, _HIGH_BITS = (np.uint64(0x0101010101010101 * b)
                                         for b in (0x30, 0x76, 0x80))
_LANES8, _LANES16, _LANES32 = (np.uint64(m)
                               for m in (0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0xFFFFFFFF))
_TEN, _TEN2, _TEN4, _TEN8, _TEN16 = (np.uint64(10**k) for k in (1, 2, 4, 8, 16))
_TOP_DIGITS = np.uint64(1000)  # the first word of D below it: D < 10**19
_MANTISSA = np.uint64(2**52 - 1)


def _window_masks(keep):
    """Rows of three words, 0xFF in each byte of ``keep`` (rows, _WINDOW)."""
    return np.ascontiguousarray(keep * np.uint8(255)).view("<u8")


_BYTES = np.arange(_WINDOW)
# by the cell's length after its sign, and by its point's byte in the
# window (_WINDOW where it has none)
_CELL_MASK = _window_masks(_BYTES >= _WINDOW - np.arange(_WINDOW + 1)[:, None])
_BEFORE_POINT = _window_masks(_BYTES < np.r_[np.arange(_WINDOW), 0][:, None])
_AFTER_POINT = _window_masks(_BYTES > np.r_[np.arange(_WINDOW), -1][:, None])


def _inverse_power(f: int) -> tuple[float, float]:
    """10**-f as a double-double: the correctly rounded double, and the
    rest rounded; both by integer true division, which rounds correctly."""
    high = 1 / 10**f
    num, den = high.as_integer_ratio()
    return high, (den - num * 10**f) / (den * 10**f)


_INVERSE_HIGH, _INVERSE_LOW = np.array([_inverse_power(f) for f in range(_WINDOW)]).T.copy()
_INVERSE_HALVES = _halves(_INVERSE_HIGH)


def _texts(buf, starts, ends) -> list[str]:
    """The ASCII text of each ``buf[start:end]``, from one gather."""
    lengths = ends - starts + 1
    offsets = np.cumsum(lengths) - lengths
    joined = buf[np.arange(offsets[-1] + lengths[-1]) + np.repeat(starts - offsets, lengths)]
    joined[offsets + lengths - 1] = ord("\n")
    return joined.tobytes().decode("ascii").split("\n")[:-1]


def _cell_value(cell: str, integer: bool):
    """The cell rule: a body cell's text, stripped, ASCII and without
    "_", as float() reads it, or int() within int64 where ``integer``;
    any other text raises a ValueError."""
    text = cell.strip()
    if text.isascii() and "_" not in text:
        value = int(text) if integer else float(text)
        if not integer or -2**63 <= value < 2**63:
            return value
    raise ValueError(cell)


def _kernel_cells(buf, stop: int, width: int, delimiter: int, integer: bool):
    """The ids and the (rows, ``width``) float64 values, or int64 ones
    where ``integer``, of the lines in ``buf[_WINDOW:stop]``, each ending
    in a line feed, split by the byte ``delimiter``; or None where the
    text holds anything the kernel does not split, or a cell the cell
    rule rejects."""
    text = buf[_WINDOW:stop]
    found = np.flatnonzero((text == delimiter) | (text == ord("\n")) | (text == ord(".")))
    found += _WINDOW
    is_point = buf[found] == ord(".")
    points = np.flatnonzero(is_point)
    seps = np.compress(~is_point, found)
    per_row = width + 1
    rows = len(seps) // per_row
    line_ends = seps[width::per_row]
    crs = buf[line_ends - 1] == ord("\r")
    # outside "!" .. "~" are only the line feeds, a carriage return before
    # each of some, and tab delimiters
    others = rows + np.count_nonzero(crs) + (rows * width if delimiter == ord("\t") else 0)
    if (len(seps) != rows * per_row or np.count_nonzero(text == ord("\n")) != rows
            or np.count_nonzero(buf[line_ends] != ord("\n"))
            or np.count_nonzero(text == ord("\r")) != np.count_nonzero(crs)
            or np.count_nonzero(text == ord('"'))
            or np.count_nonzero(text - np.uint8(0x21) > np.uint8(0x5D)) != others):
        return None
    starts = np.empty_like(seps)
    starts[0] = _WINDOW
    starts[1:] = seps[:-1] + 1
    ends = seps
    ends[width::per_row] -= crs
    # each cell's point, or its end where it has none; a point's cell is
    # the count of separators before it
    at = ends.copy()
    at[points - np.arange(len(points))] = found[points]
    ends = ends.reshape(rows, per_row)
    ids = _texts(buf, starts[::per_row], ends[:, 0])
    start = starts.reshape(rows, per_row)[:, 1:].ravel()
    end = ends[:, 1:].ravel()
    point = at.reshape(rows, per_row)[:, 1:].ravel() - end + _WINDOW
    negative = buf[start] == ord("-")
    length = end - start - negative
    fast = length <= _WINDOW
    has_point = point < _WINDOW
    fast &= length > has_point
    np.minimum(length, _WINDOW, out=length)
    np.maximum(point, 0, out=point)
    # every _WINDOW bytes of buf, one a byte: unaligned, read by one gather
    windows = np.ndarray((len(buf) - _WINDOW + 1,), f"V{_WINDOW}", buf, strides=(1,))
    x = windows[end - _WINDOW].view("<u8").reshape(-1, 3)
    x ^= _ZERO_CHARS
    x &= np.take(_CELL_MASK, length, axis=0)
    before = x & np.take(_BEFORE_POINT, point, axis=0)
    x &= np.take(_AFTER_POINT, point, axis=0)
    x[:, 0] |= before[:, 0] << _U8
    x[:, 1] |= (before[:, 1] << _U8) | (before[:, 0] >> _U56)
    x[:, 2] |= (before[:, 2] << _U8) | (before[:, 1] >> _U56)
    # a byte above 9 reaches 0x80 with 0x76 added, or has it already
    bad = (x + _DIGIT_LIMIT) | x
    bad &= _HIGH_BITS
    fast &= (bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0
    # digits to pairs, fours and eights: each lane's first (lower) half
    # times 10**k plus its second half
    x = (x * _TEN + (x >> _U8)) & _LANES8
    x = (x * _TEN2 + (x >> _U16)) & _LANES16
    x = (x * _TEN4 + (x >> _U32)) & _LANES32
    fast &= x[:, 0] < _TOP_DIGITS
    np.minimum(x[:, 0], _TOP_DIGITS, out=x[:, 0])  # so D fits, and converts back, below
    d = x[:, 0] * _TEN16 + x[:, 1] * _TEN8 + x[:, 2]
    if integer:
        fast &= ~has_point & (length <= 18)
        value = np.where(negative, -d.view(np.int64), d.view(np.int64))
    else:
        f = np.where(has_point, _WINDOW - 1 - point, 0)
        high = d.astype(np.float64)
        low = (d - high.astype(np.uint64)).view(np.int64).astype(np.float64)
        inverse = _INVERSE_HIGH[f]
        product, error = _product(high, inverse, _INVERSE_HALVES[0][f], _INVERSE_HALVES[1][f])
        rest = error + (high * _INVERSE_LOW[f] + low * inverse)
        value = product + rest
        miss = rest - (value - product)  # the sum's rounding error, exactly
        half_gap = np.spacing(value) * np.where(
            (miss < 0) & ((value.view(np.uint64) & _MANTISSA) == 0), 0.25, 0.5)
        fast &= np.abs(miss) + value * 2.0**-100 < half_gap
        bits = value.view(np.uint64)
        bits ^= negative.astype(np.uint64) << _U63
    slow = np.flatnonzero(~fast)
    if len(slow):
        for k, cell in zip(slow.tolist(), _texts(buf, start[slow], end[slow])):
            try:
                value[k] = _cell_value(cell, integer)
            except ValueError:
                return None
    return ids, value.reshape(rows, width)


def _kernel_delimiter(delimiter: str) -> int | None:
    """The byte :func:`_kernel_cells` splits on for ``delimiter``, or None
    where it cannot: a character of a number, a quote, whitespace other
    than a tab, or a byte outside ASCII."""
    if delimiter in '"+-.0123456789Ee':
        return None
    return ord(delimiter) if delimiter == "\t" or "!" <= delimiter <= "~" else None


def _as_list(cells):
    """Python scalars for array cells, so no numpy scalar is ever made."""
    return cells.tolist() if isinstance(cells, np.ndarray) else cells


def _write_json(path: Path, obj):
    """Write ``obj``, as :func:`_jsonable` gives it, as strict JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1, allow_nan=False)
        handle.write("\n")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its CPU affinity where the
    platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _part_count(cells: int) -> int:
    """How many parts to split a table of ``cells`` cells into: one per
    usable CPU, each of at least ``_PART_CELLS`` cells; one where
    ``os.fork`` or the CPU affinity is not available."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(_usable_cpus(), cells // _PART_CELLS))


def _child(work, k: int, write_fd: int, close_fds: list[int]):
    """The forked child of part ``k``: run ``work(k, pipe)`` and leave
    through ``os._exit``, so no buffer it inherited is flushed twice.  A
    pipe the parent closed unread is a clean exit: it needs no more."""
    status = 1
    try:
        for fd in close_fds:  # the read ends, so a closed one breaks its pipe
            os.close(fd)
        with open(write_fd, "wb") as pipe:
            work(k, pipe)
        status = 0
    except BrokenPipeError:
        status = 0
    except BaseException:
        # imported only on failure here and in _forked, so start-up never loads it
        import traceback

        os.write(2, traceback.format_exc().encode(errors="replace"))
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked(path: Path, parts: int, work):
    """Run ``work(k, pipe)`` for the parts k = 1 .. ``parts`` - 1 of a
    table, each in a forked child writing to its own pipe, and yield the
    read ends in part order.

    On leaving the block every read end is closed before its child is
    reaped, so a child blocked on a full pipe ends; after an error the
    children are killed first.  Where the block completes, a child that
    exited non-zero raises a ``RuntimeError``; one whose pipe was closed
    before it was read in full exits 0."""
    children: list[tuple[int, object]] = []
    try:
        for k in range(1, parts):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(work, k, write_fd, [read_fd, *(pipe.fileno() for _, pipe in children)])
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        yield [pipe for _, pipe in children]
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for k, status in enumerate(statuses, 1):
        if status:
            raise RuntimeError(f"{path}: the process of part {k + 1} of {parts} exited "
                               f"with status {os.waitstatus_to_exitcode(status)}")


def _csv_rows(line: str, cells, start: int, stop: int):
    """The CSV text of rows ``start`` .. ``stop`` - 1, a chunk of rows at
    a time."""
    width = sum(len(c.columns) if isinstance(c, _FloatColumns) else 1 for c in cells)
    step = max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // width))
    for low in range(start, stop, step):
        high = min(low + step, stop)
        chunk = [_as_list(c[low:high]) for c in cells]
        yield "".join([line % row for row in zip(*chunk)])


def write_table(path: Path, header: list[str], columns: list, fmt: str):
    """Write equal-length ``columns`` (sequences or 1-D arrays) under
    ``header``.  CSV goes out a chunk of rows at a time, byte for byte
    what ``csv.writer`` writes for the cells' ``_fmt`` text; a large
    table is cut into contiguous row parts, the first formatted here and
    each other one in a forked child whose bytes follow it in order."""
    if fmt == "csv":
        specs, cells = _csv_columns(columns)
        line = ",".join(specs) + "\r\n"
        rows = len(cells[0])
        parts = _part_count(rows * len(columns))
        bounds = [rows * k // parts for k in range(parts + 1)]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            def send(k, pipe):
                # formatted in full first: a write blocks once the pipe is full
                pipe.writelines([text.encode()
                                 for text in _csv_rows(line, cells, bounds[k], bounds[k + 1])])

            with _forked(path, parts, send) as pipes:
                handle.write(",".join(_quoted(name) for name in header) + "\r\n")
                handle.writelines(_csv_rows(line, cells, 0, bounds[1]))
                handle.flush()
                for pipe in pipes:
                    shutil.copyfileobj(pipe, handle.buffer)
    else:
        # walked a column at a time, so each key is made text once, not once a row
        header = _jsonable(header)
        _write_json(path, [dict(zip(header, row)) for row in
                           zip(*(_jsonable(_as_list(column)) for column in columns))])


# the errors a table's text can raise (a UnicodeDecodeError is a
# ValueError), mapped by _table_error
_TEXT_ERRORS = (ValueError, csv.Error)


class _BadRow(ValueError):
    """A body error at data row ``args[0]``; ``args[1]`` follows the row
    in the message."""


def _table_error(path: Path, err: Exception) -> InvalidInput:
    """The :class:`InvalidInput` for ``err``, raised by a table's text."""
    if isinstance(err, UnicodeDecodeError):
        return InvalidInput(f"{path}: not {err.encoding} text ({err.reason})")
    if isinstance(err, _BadRow):
        return InvalidInput(f"{path}: data row {err.args[0]}{err.args[1]}")
    return InvalidInput(f"{path}: {err}")


def _csv_cells(text, delimiter: str, width: int, labels: bool, row: int):
    """Yield the ids and the (rows, ``width``) values of the non-blank
    records ``csv.reader`` reads from ``text``, _CHUNK_ROWS records at a
    time, after ``row`` data rows.  A record has the
    header's cells, or in a label table at least two, of which the
    second is the label; each value cell is read by the cell rule.  Any
    other record raises a :class:`_BadRow`."""
    records = filter(None, csv.reader(text, delimiter=delimiter))
    dtype = np.int64 if labels else np.float64
    while chunk := list(itertools.islice(records, _CHUNK_ROWS)):
        values = []
        for k, record in enumerate(chunk, row + 1):
            if len(record) <= width or len(record) > width + 1 and not labels:
                raise _BadRow(k, f": expected {'at least 2' if labels else width + 1} cells")
            for column, cell in enumerate(record[1:width + 1], 2):
                try:
                    values.append(_cell_value(cell, labels))
                except ValueError:
                    raise _BadRow(k, f", column {column}: could not convert string "
                                     f"{repr(cell)[:100]} to {dtype.__name__}") from None
        yield [record[0].strip() for record in chunk], np.array(values, dtype).reshape(-1, width)
        row += len(chunk)


def _read_table(path: Path, delimiter: str, labels: bool = False):
    """Read a delimited table: the header record with ``csv.reader``,
    then the body.  A large body is cut at line starts into parts; the
    first is read here and each other one in a forked child.  A part is
    read a chunk of lines at a time by :func:`_kernel_cells` alone, up to
    the first chunk that kernel declines; a child sends back its ids,
    that chunk's first byte (or None), then its raw values.  The parts
    are placed in order up to the table's first declined chunk, and from
    its first byte to the end of the file :func:`_csv_cells` reads the
    rest here; one ``place`` puts the kernel's and the fallback's rows.
    That byte starts a record: every byte before it passed the kernel,
    which declines any ``"``.

    Returns the header, the ids (each data row's stripped first cell)
    and the values, one row per data row: the float64 cells after the
    id, or in a label table the int64 label in the second cell.  Every
    failure is an :class:`InvalidInput` naming the file, and a body error
    names its data row, counted from 1 over the non-blank records."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            # readline, unlike iteration, leaves tell() at the body's first byte
            header = next(csv.reader(iter(handle.readline, ""), delimiter=delimiter), None)
            start = handle.tell()
    except _TEXT_ERRORS as err:
        raise _table_error(path, err) from None
    if header is None:
        raise InvalidInput(f"{path}: empty table")
    if len(header) < 2:
        raise InvalidInput(f"{path}: " + ("expected 'sample_id,label' table" if labels
                                          else "need a sample-id column plus method columns"))
    width = 1 if labels else len(header) - 1
    kernel = _kernel_delimiter(delimiter)
    dtype = np.dtype(np.int64 if labels else np.float64)
    with open(path, "rb") as binary:
        end = binary.seek(0, os.SEEK_END)
        # the most data rows the body can hold: a record has width
        # delimiters, a byte or more in each value cell (the cell rule
        # rejects empty ones) and a line end, which the last may lack
        most = (end - start + 1) // (2 * width + 1)
        # the split counts cells as write_table does, ids included, over
        # the rows of the first data line's length
        binary.seek(start)
        rows = (end - start) // max(len(binary.readline()), 1)
        parts = 1 if kernel is None else _part_count(rows * (width + 1))
        bounds = [start]
        for k in range(1, parts):
            binary.seek(start + (end - start) * k // parts - 1)
            binary.readline()
            if bounds[-1] < binary.tell() < end:
                bounds.append(binary.tell())
    bounds.append(end)

    def parse(k, place):
        """Read part k with :func:`_kernel_cells`, whole lines of about
        ``_READ_BYTES`` at a time, passing each chunk's ids and values to
        ``place``, up to the first chunk the kernel declines: return that
        chunk's first byte, or None where it declines none."""
        begin, left = bounds[k], bounds[k + 1] - bounds[k]
        buf = bytearray(_WINDOW + _READ_BYTES + 1)
        kept = 0  # the bytes of a line carried over
        with open(path, "rb", buffering=0) as raw:
            raw.seek(begin)
            while kept or left:
                stop = _WINDOW + kept
                got = raw.readinto(memoryview(buf)[stop:min(len(buf) - 1, stop + left)])
                stop += got
                left = left - got if got else 0
                if left:
                    cut = buf.rfind(b"\n", _WINDOW, stop) + 1
                    if not cut:  # a line longer than the buffer
                        buf.extend(bytes(len(buf)))
                        kept = stop - _WINDOW
                        continue
                else:
                    cut = stop
                    if buf[cut - 1] != ord("\n"):  # the last line ends without one
                        buf[cut] = ord("\n")
                        cut += 1
                cells = _kernel_cells(np.frombuffer(buf, np.uint8), cut, width, kernel, labels)
                if cells is None:
                    return begin
                place(*cells)
                begin += cut - _WINDOW
                kept = max(stop - cut, 0)
                buf[_WINDOW:_WINDOW + kept] = buf[cut:stop]
        return None

    def send(k, pipe):
        # parsed in full first: a write blocks once the pipe is full.  The
        # values go raw, after the ids, and are read straight into their
        # rows: arrays unpickled a chunk at a time here left the heap
        # holding tens of MB more after some reads than after others
        chunks = []
        declined = parse(k, lambda *cells: chunks.append(cells))
        pickle.dump(([sid for chunk_ids, _ in chunks for sid in chunk_ids], declined), pipe)
        pipe.writelines(block for _, block in chunks)

    with _forked(path, len(bounds) - 1, send) as pipes:
        # in a mapping of its own, whose pages past the last row are never
        # touched: the caller copies the values and drops them, and their
        # memory goes back to the system at once instead of leaving a hole
        # in the heap for later arrays to split.  Imported here, so
        # start-up never loads it
        import mmap

        values = np.frombuffer(mmap.mmap(-1, max(most * width * dtype.itemsize, 1)), dtype,
                               most * width).reshape(most, width)
        ids = []

        def place(chunk_ids, block):
            values[len(ids):len(ids) + len(chunk_ids)] = block
            ids.extend(chunk_ids)

        declined = start if kernel is None else parse(0, place)
        for k, pipe in enumerate(pipes, 1):
            if declined is not None:
                break
            cut_short = RuntimeError(f"{path}: the process of part {k + 1} of {len(pipes) + 1} "
                                     "ended before sending it")
            try:
                part_ids, declined = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise cut_short from None
            block = values[len(ids):len(ids) + len(part_ids)]
            if pipe.readinto(block) != block.nbytes:
                raise cut_short
            ids += part_ids
        if declined is not None:
            for pipe in pipes:  # a child still parsing ends at its first write
                pipe.close()
            try:
                with open(path, "rb") as binary:
                    binary.seek(declined)
                    text = io.TextIOWrapper(binary, encoding="utf-8", newline="")
                    for cells in _csv_cells(text, delimiter, width, labels, len(ids)):
                        place(*cells)
            except _TEXT_ERRORS as err:
                raise _table_error(path, err) from None
    if not ids:
        raise InvalidInput(f"{path}: no data rows")
    return header, tuple(ids), values[:len(ids)]


def read_matrix_table(path: Path, delimiter: str = ","):
    """Read a sample-by-method table: header of method ids, first column
    of sample ids, numeric cells."""
    header, sample_ids, values = _read_table(path, delimiter)
    return tuple(h.strip() for h in header[1:]), sample_ids, values.T  # -> methods x samples


def read_labels_table(path: Path, delimiter: str = ","):
    """Read a ``sample_id,label`` table; cells after the label are ignored."""
    _, sample_ids, labels = _read_table(path, delimiter, labels=True)
    try:
        return sample_ids, LabelVector(labels[:, 0])
    except InvalidInput as err:
        raise InvalidInput(f"{path}: {err}") from None
