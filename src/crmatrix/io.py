"""CSV emission and run manifests.

Real cells are written with 17 significant digits so a rerun with the
same seed is byte-identical and values round-trip exactly through text.
The manifest lists every emitted file with its sha256 digest and carries
no timestamps, keeping it reproducible too.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def _cells(column) -> list:
    """One column's cells: reals with 17 significant digits, integers and
    strings as they are.  Arrays go through ``tolist`` and lists are taken
    as they are, so an integer never passes through a float."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [format(x, ".17g") if isinstance(x, float) else x for x in values]


def write_csv(path: Path, table: dict) -> int:
    """Write ``table`` ({column name: column}, columns of equal length) as
    a CSV file with a header row; returns the number of data rows."""
    columns = [_cells(column) for column in table.values()]
    rows = len(columns[0]) if columns else 0
    if any(len(cells) != rows for cells in columns):
        raise ValueError(f"columns of {path.name} differ in length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.keys())
        writer.writerows(zip(*columns))
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


def ordered_map(fn, items, workers: int = 1) -> list:
    """Map preserving input order; worker count never changes the result."""
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))

