"""CSV emission and run manifests.

Every cell keeps one rule: a real (any ``float``) is written with 17
significant digits, ``format(x, ".17g")``, so a rerun with the same seed is
byte-identical and values round-trip exactly through text; an integer as
``str(n)``; None empty; anything else as ``str`` gives it; with csv's
minimal quoting and ``\\r\\n`` line ends.

The writer formats a column ``CHUNK_ROWS`` rows at a time as a uint8 byte
matrix and writes each block of rows at once, so its working set is
O(``CHUNK_ROWS`` x row width) bytes whatever the table's length.  Cells of
float arrays (float16, float32, float64) and of lists of Python floats
take a path in numpy integer arithmetic whose bytes equal ``format(x,
".17g")``: a zero, or a real with 10**-38 <= |x| < 10**17, is split exactly
as mant * 2**(e - 64) and multiplied by 10**(16 - k) = 5**(16 - k) * 2**(16 -
k) in one 192-bit product on uint64 limbs (5**54 < 2**127 bounds the
window), rounded half to even to 17 digits and laid out by ``%g``'s rule.
Cells of integer arrays and of lists of Python ints within int64 take the
same digit layout, equal to ``str(n)``.  Every other cell is formatted by
itself by the rule above: NaN and infinities, reals outside that window
(and the rare one at its edge whose log10 estimate falls outside),
strings, bools, None, numpy scalars in lists, mixed or object columns and
Python ints beyond int64.

The manifest lists every emitted file with its sha256 digest and carries
no timestamps, keeping it reproducible too.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from pathlib import Path

import numpy as np

#: data rows formatted and written per write call
CHUNK_ROWS = 1 << 12

#: characters that make csv's minimal quoting quote a field
_SPECIAL = re.compile(r'[,"\r\n]')

#: decimal exponents k of the nonzero reals formatted in integer arithmetic:
#: 10**(16 - k) = 5**s * 2**s with 5**s < 2**127, s = 16 - k <= 54
_EXP_MIN, _EXP_MAX = -38, 16

#: 5**s shifted to 127 bits, as its high and low 64-bit limbs, and the
#: shift less 64, for s = 0..54
_POW5 = [5 ** s << 127 - (5 ** s).bit_length() for s in range(_EXP_MAX + 1 - _EXP_MIN)]
_POW5_HI = np.array([f >> 64 for f in _POW5], dtype=np.uint64)
_POW5_LO = np.array([f & (1 << 64) - 1 for f in _POW5], dtype=np.uint64)
_POW5_SHIFT = np.array([63 - (5 ** s).bit_length() for s in range(len(_POW5))])

#: 10**0 .. 10**19, the powers of ten below 2**64
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)

#: the bytes a real's layout takes besides its digits, in whole uint32 words
_ALPHABET = b"-.e+0123456789\0\0"


def _text(cell, alone: bool) -> str:
    """One cell as csv.writer writes it: a real (any ``float``) with 17
    significant digits, None empty, anything else by ``str``, quoted when
    it holds a delimiter, a quote or a line break, or when it is empty and
    ``alone`` in its row."""
    text = format(cell, ".17g") if isinstance(cell, float) else "" if cell is None else str(cell)
    if _SPECIAL.search(text) or alone and not text:
        return '"' + text.replace('"', '""') + '"'
    return text


@functools.cache
def _quads() -> tuple:
    """Per 0..9999: its four ASCII digits as one uint32 word (in memory
    order), and the place 1..4 of its last nonzero digit (-99 for 0)."""
    digits = (np.arange(10_000, dtype=np.int16)[:, None]
              // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    words = (digits + ord("0")).view(np.uint32).ravel()
    last = np.where(digits != 0, np.arange(1, 5, dtype=np.int8), np.int8(-99)).max(axis=1)
    words.setflags(write=False)
    last.setflags(write=False)
    return words, last


def _split(value: np.ndarray, count: int) -> np.ndarray:
    """uint64 ``value`` as ``count`` base-10**4 digits, most significant
    first (the first takes what is left): a (count, n) index array into
    :func:`_quads`."""
    quads = np.empty((count, len(value)), dtype=np.intp)
    for row in range(count - 1, 0, -1):
        value, quads[row] = np.divmod(value, 10_000)
    quads[0] = value
    return quads


@functools.cache
def _layouts() -> tuple:
    """``%.17g``'s layout of a real with all 17 digits, per code (X -
    _EXP_MIN) * 2 + negative for decimal exponents X = _EXP_MIN.._EXP_MAX +
    1, then 0 and -0: the byte of each output character in a 36-byte row of
    :func:`_real_cells`' source (digit i at 3 + i, ``_ALPHABET`` from 20 on),
    the place that keeps it (digit i and a point before it are kept when
    the real has more than i significant digits, the rest always, padding
    never), and the layout's length."""
    char = {chr(c): 20 + i for i, c in enumerate(_ALPHABET)}
    bodies = []
    for x in range(_EXP_MIN, _EXP_MAX + 2):
        if x < -4 or x >= 17:
            body = [(3, -1), (char["."], 1)] + [(3 + i, i) for i in range(1, 17)]
            body += [(char[c], -1) for c in f"e{'-' if x < 0 else '+'}{abs(x):02d}"]
        elif x < 0:
            body = [(char[c], -1) for c in "0." + "0" * (-x - 1)] + [(3 + i, i) for i in range(17)]
        else:
            body = [(3 + i, -1) for i in range(x + 1)]
            if x < 16:
                body += [(char["."], x + 1)] + [(3 + i, i) for i in range(x + 1, 17)]
        bodies.append(body)
    bodies.append([(char["0"], -1)])
    cells = [[(char["-"], -1)] * neg + body for body in bodies for neg in (0, 1)]
    rows = np.array([[b for b, _ in row] + [0] * (23 - len(row)) for row in cells], dtype=np.intp)
    places = np.array([[p for _, p in row] + [99] * (23 - len(row)) for row in cells],
                      dtype=np.int8)
    lengths = np.array([len(row) for row in cells])
    for table in (rows, places, lengths):
        table.setflags(write=False)
    return rows, places, lengths


def _product(a: np.ndarray, b: np.ndarray) -> tuple:
    """Exact a * b of uint64 arrays, as the high and low 64-bit limbs of
    the 128-bit product."""
    a_hi, a_lo, b_hi, b_lo = a >> 32, a & 0xFFFFFFFF, b >> 32, b & 0xFFFFFFFF
    low, cross, across = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (low >> 32) + (cross & 0xFFFFFFFF) + (across & 0xFFFFFFFF)
    high = a_hi * b_hi + (cross >> 32) + (across >> 32) + (mid >> 32)
    return high, mid << 32 | low & 0xFFFFFFFF


def _scaled(mant: np.ndarray, e: np.ndarray, s: np.ndarray) -> tuple:
    """v = mant * 2**(e - 64) * 10**s for uint64 mant >= 2**63 and s =
    0..54, from the 192-bit product mant * 5**s * 2**z: floor(v), whether v
    rounds up to the nearest integer (half to even), and whether floor(v)
    lies in the product's top limb with the rounding bit (else not exact)."""
    shift = _POW5_SHIFT[s] - e - s
    exact = (shift >= 1) & (shift <= 63)
    shift = np.where(exact, shift, 1).astype(np.uint64)
    top, mid = _product(mant, _POW5_HI[s])
    carry, rest = _product(mant, _POW5_LO[s])
    mid += carry
    top += mid < carry
    whole = top >> shift
    below, half = top & ((1 << shift) - 1), 1 << (shift - 1)
    up = (below > half) | (below == half) & ((mid | rest != 0) | (whole & 1 == 1))
    return whole, up, exact


def _real_cells(x: np.ndarray) -> tuple:
    """``format(c, ".17g")`` of float64 cells ``x`` in integer arithmetic:
    (text, keep, exact); for each i with ``exact[i]``, cell i is the bytes
    of row i of the uint8 matrix ``text`` where ``keep`` holds.

    |x| = mant * 2**(e - 64) exactly, and v = |x| * 10**(16 - k) is split
    into floor and rounding bit by one 192-bit product, k taken from log10
    and stepped once where floor(v) does not have 17 digits.  A 17-digit
    floor proves k; a round up to 10**17 moves to the next power of ten."""
    a, neg, zero = np.abs(x), np.signbit(x), x == 0
    exact = (a > 0) & (a < np.inf)
    a = np.where(exact, a, 1.0)
    m, e = np.frexp(a)
    mant = (m * 2.0 ** 53).astype(np.uint64) << 11
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    exact &= (s >= 0) & (s < len(_POW5))
    s = np.clip(s, 0, len(_POW5) - 1)
    whole, up, split = _scaled(mant, e, s)
    step = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)
    redo = np.flatnonzero(exact & (step != 0))
    if redo.size:
        s[redo] -= step[redo]
        exact[redo] &= (s[redo] >= 0) & (s[redo] < len(_POW5))
        s[redo] = np.clip(s[redo], 0, len(_POW5) - 1)
        whole[redo], up[redo], split[redo] = _scaled(mant[redo], e[redo], s[redo])
    exact &= split & (whole >= 10 ** 16) & (whole < 10 ** 17)
    digits = whole + up
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    power = np.where(exact, 16 - s + carry, _EXP_MIN)

    words, last = _quads()
    quads = _split(digits, 5)
    # significant digits: the place of the last nonzero one, quad by quad
    # (the first quad holds the leading digit alone)
    sig = (last.take(quads) + np.array([[-3], [1], [5], [9], [13]], dtype=np.int8)).max(axis=0)
    rows, places, lengths = _layouts()
    code = np.where(zero, len(rows) - 2, (power - _EXP_MIN) * 2) + neg
    source = np.empty((len(x), 9), dtype=np.uint32)
    source[:, :5] = words.take(quads).T
    source[:, 5:] = np.frombuffer(_ALPHABET, dtype=np.uint32)
    width = lengths[code].max()
    index = rows[:, :width].take(code, axis=0)
    index += (np.arange(len(x)) * 36)[:, None]
    text = source.view(np.uint8).reshape(-1).take(index)
    return text, places[:, :width].take(code, axis=0) < sig[:, None], exact | zero


def _integer_cells(x: np.ndarray) -> tuple:
    """``str(n)`` of int64 or uint64 cells ``x``: (text, keep), cell i
    being the bytes of row i of the uint8 matrix ``text`` where ``keep``,
    right-aligned."""
    neg = x < 0
    mag = x.astype(np.uint64)
    mag = np.where(neg, ~mag + 1, mag)
    lengths = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1) + neg
    width = lengths.max()
    count = -(-width // 4)
    text = np.ascontiguousarray(_quads()[0].take(_split(mag, count)).T).view(np.uint8)
    text = text[:, 4 * count - width:]
    signed = np.flatnonzero(neg)
    text[signed, width - lengths[signed]] = ord("-")
    return text, _prefixes(width)[:, ::-1].take(lengths, axis=0)


def _numeric(part):
    """``part`` as a float64, int64 or uint64 array when every cell takes
    the integer-arithmetic path, else None: float16/32/64 and integer
    arrays, lists of Python floats, lists of Python ints within int64."""
    if isinstance(part, np.ndarray):
        if part.dtype.kind == "f" and part.dtype.itemsize <= 8:
            return part.astype(np.float64, copy=False)
        if part.dtype.kind in "iu":
            return part if part.dtype == np.uint64 else part.astype(np.int64, copy=False)
        return None
    kinds = set(map(type, part))
    if kinds == {float}:
        return np.array(part, dtype=np.float64)
    if kinds == {int} and -2 ** 63 <= min(part) and max(part) < 2 ** 63:
        return np.array(part, dtype=np.int64)
    return None


def _texts(cells, alone: bool, width: int = 1) -> tuple:
    """``cells`` one by one through :func:`_text`, encoded as UTF-8:
    (text, keep) of at least ``width`` bytes a row, left-aligned."""
    encoded = [_text(cell, alone).encode("utf-8") for cell in cells]
    width = max([width, *map(len, encoded)])
    text = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)
    return text, _prefixes(width).take([len(cell) for cell in encoded], axis=0)


def _cells(part, alone: bool) -> tuple:
    """One block of a column as (text, keep): cell i is the bytes of row i
    of the uint8 matrix ``text`` where the bool matrix ``keep`` holds.
    Cells the integer-arithmetic path cannot format exactly go through
    :func:`_texts`."""
    values = _numeric(part)
    if values is None:
        return _texts(part.tolist() if isinstance(part, np.ndarray) else part, alone)
    if values.dtype != np.float64:
        return _integer_cells(values)
    text, keep, exact = _real_cells(values)
    others = np.flatnonzero(~exact)
    if others.size:
        cells = part[others].tolist() if isinstance(part, np.ndarray) else [part[i] for i in others]
        more, more_keep = _texts(cells, alone, text.shape[1])
        if more.shape[1] > text.shape[1]:
            grow = ((0, 0), (0, more.shape[1] - text.shape[1]))
            text, keep = np.pad(text, grow), np.pad(keep, grow)
        text[others], keep[others] = more, more_keep
    return text, keep


def _prefixes(width: int) -> np.ndarray:
    """Row l: the first l of ``width`` places, for l = 0..width."""
    return np.arange(width) < np.arange(width + 1)[:, None]


def _rows(fields: list) -> np.ndarray:
    """The bytes of a block of rows from its columns' (text, keep): each
    cell followed by ``,``, the last one by ``\r\n``."""
    n = len(fields[0][0])
    out = np.empty((n, sum(text.shape[1] + 1 for text, _ in fields) + 1), dtype=np.uint8)
    keep = np.ones(out.shape, dtype=bool)
    at = 0
    for text, mask in fields:
        width = text.shape[1]
        out[:, at:at + width] = text
        keep[:, at:at + width] = mask
        out[:, at + width] = ord(",")
        at += width + 1
    out[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return out[keep]


class Written(int):
    """The number of data rows :func:`write_csv` wrote, carrying ``sha256``,
    the hex digest of the file's bytes.  It stays an ``int``, so a caller
    that counts rows reads it as before."""

    sha256: str

    def __new__(cls, rows: int, sha256: str):
        written = super().__new__(cls, rows)
        written.sha256 = sha256
        return written


def write_csv(path: Path, table: dict) -> Written:
    """Write ``table`` ({column name: column}, columns of equal length) as
    a CSV file with a header row; returns the number of data rows, with
    the sha256 of the bytes written (hashed as they are written, so the
    file is never read back).

    Cells keep one rule: a real (a Python or numpy ``float``) is written
    with 17 significant digits, an integer, a string or any other value as
    ``str`` gives it, with csv's minimal quoting and ``\r\n`` line ends,
    encoded as UTF-8.  Arrays are taken as ``tolist`` gives their cells and
    lists as they are, so an integer never passes through a float.
    ``CHUNK_ROWS`` rows at a time, each column is formatted as a byte matrix
    (see the module docstring) and the rows' bytes are written at once.
    """
    columns = list(table.values())
    rows = len(columns[0]) if columns else 0
    ragged = [f"{name!r} has {len(column)}" for name, column in table.items()
              if len(column) != rows]
    if ragged:
        raise ValueError(f"columns of {path.name} differ in length: {next(iter(table))!r} "
                         f"has {rows} rows, " + ", ".join(ragged))
    alone = len(columns) == 1
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def write(data):
            fh.write(data)
            digest.update(data)

        write((",".join(_text(name, alone) for name in table) + "\r\n").encode("utf-8"))
        for start in range(0, rows, CHUNK_ROWS):
            write(_rows([_cells(column[start:start + CHUNK_ROWS], alone) for column in columns]))
    return Written(rows, digest.hexdigest())


def write_manifest(outdir: Path, task: str, config: dict, seed, grids: dict,
                   tolerances: dict, files: list) -> Path:
    """Write ``outdir/manifest.json``; ``files`` lists each output as
    (name, data rows, sha256), as :func:`write_csv` returned them."""
    manifest = {
        "task": task,
        "seed": seed,
        "grids": grids,
        "tolerances": tolerances,
        "config": config,
        "outputs": [
            {"file": name, "rows": int(rows), "sha256": sha256}
            for name, rows, sha256 in files
        ],
    }
    path = outdir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
