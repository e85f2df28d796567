"""CSV emission and run manifests.

Real cells are written with 17 significant digits so a rerun with the
same seed is byte-identical and values round-trip exactly through text.
The manifest lists every emitted file with its sha256 digest and carries
no timestamps, keeping it reproducible too.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

#: data rows formatted and written per write call
CHUNK_ROWS = 1 << 14

#: %-conversion of a column whose cells are all of exactly this type
_CONVERSIONS = {float: "%.17g", int: "%d"}

#: characters that make csv's minimal quoting quote a field
_SPECIAL = re.compile(r'[,"\r\n]')


def _conversion(column) -> str:
    """One column's %-conversion, from its cells' exact types: ``%.17g``
    for reals, ``%d`` for integers, ``%s`` for anything else (strings,
    bools, mixed columns), whose cells go through :func:`_text` first.  A
    numeric array has one cell type, so one cell decides."""
    if isinstance(column, np.ndarray):
        column = (column[:1] if column.dtype != object else column).tolist()
    kinds = set(map(type, column))
    return _CONVERSIONS.get(kinds.pop(), "%s") if len(kinds) == 1 else "%s"


def _text(cell, alone: bool) -> str:
    """A ``%s`` cell as csv.writer writes it: a real (any ``float``) with 17
    significant digits, None empty, anything else by ``str``, quoted when
    it holds a delimiter, a quote or a line break, or when it is empty and
    ``alone`` in its row."""
    text = format(cell, ".17g") if isinstance(cell, float) else "" if cell is None else str(cell)
    if _SPECIAL.search(text) or alone and not text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path, table: dict) -> int:
    """Write ``table`` ({column name: column}, columns of equal length) as
    a CSV file with a header row; returns the number of data rows.

    Cells keep one rule: a real (a Python or numpy ``float``) is written
    with 17 significant digits, an integer, a string or any other value as
    ``str`` gives it, with csv's minimal quoting and ``\r\n`` line ends.
    Arrays go through ``tolist`` and lists are taken as they are, so an
    integer never passes through a float.  Each row is one template of the
    columns' conversions, filled ``CHUNK_ROWS`` rows at a time.
    """
    columns = list(table.values())
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError(f"columns of {path.name} differ in length")
    alone = len(columns) == 1
    conversions = [_conversion(column) for column in columns]
    template = ",".join(conversions) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_text(name, alone) for name in table) + "\r\n")
        for start in range(0, rows, CHUNK_ROWS):
            cells = []
            for column, conversion in zip(columns, conversions):
                part = column[start:start + CHUNK_ROWS]
                part = part.tolist() if isinstance(part, np.ndarray) else part
                cells.append(part if conversion != "%s" else [_text(c, alone) for c in part])
            fh.write("".join(map(template.__mod__, zip(*cells))))
    return rows


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir: Path, task: str, config: dict, seed, grids: dict,
                   tolerances: dict, files: list) -> Path:
    manifest = {
        "task": task,
        "seed": seed,
        "grids": grids,
        "tolerances": tolerances,
        "config": config,
        "outputs": [
            {"file": name, "rows": rows, "sha256": sha256_of(outdir / name)}
            for name, rows in files
        ],
    }
    path = outdir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

