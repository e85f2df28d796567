"""The column writer against the row-by-row writer it replaced.

``ref_*`` below are the former per-result row generators and cell
formatter, kept as the reference: every file the CLI writes must equal,
byte for byte, what they write from the same library results.
"""

import csv
import json

import numpy as np
import pytest

from crmatrix import gauge, io
from crmatrix.cli import load_config, main
from crmatrix.rmatrix import berry_connection, position_matrix


def ref_fmt(x) -> str:
    return format(float(x), ".17g")


def ref_write_csv(path, header, rows) -> int:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        count = 0
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def ref_position_matrix_rows(pm):
    nb, nk = pm.n_bands, pm.grid.n
    for m in range(nb):
        for p in range(nk):
            for n in range(nb):
                for q in range(nk):
                    z = pm.entries[m * nk + p, n * nk + q]
                    yield (m, p, n, q, ref_fmt(z.real), ref_fmt(z.imag))


def ref_connection_rows(conn):
    nk, nb = conn.values.shape[0], conn.values.shape[1]
    for p in range(nk):
        for m in range(nb):
            for n in range(nb):
                z = conn.values[p, m, n]
                yield (p, m, n, ref_fmt(z.real), ref_fmt(z.imag))


def ref_report_rows(reports):
    for r in reports:
        yield (r.name, r.band, r.seed, ref_fmt(r.before.real), ref_fmt(r.before.imag),
               ref_fmt(r.after.real), ref_fmt(r.after.imag), ref_fmt(r.delta), int(r.invariant))


def run_cli(tmp_path, task, model, lattice, **params):
    out = tmp_path / "out"
    cfg = {"lattice": lattice, "model": model, "task": {"name": task, "params": params},
           "output": {"directory": str(out)}, "seed": 5}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    return path, out


GENERIC = {"preset": "two-band-generic", "params": {"theta0": 1.2, "phi_amp": 0.35}}
ANGLES = {"angles": {"theta": "1.1 + 0.3*sin(k*a)", "phi": "2*k*a + 0.2*cos(k*a)"}}


@pytest.mark.parametrize("model, lattice", [
    (GENERIC, {"N": 6, "a": 1.3, "n_bands": 2, "origin": 0.4}),
    (ANGLES, {"N": 5, "a": 0.7, "n_bands": 2}),
    ({"preset": "identity"}, {"N": 4, "a": 1.0, "n_bands": 3}),
], ids=["generic", "angles", "identity-3-band"])
def test_crm_csv_equals_row_reference(tmp_path, model, lattice):
    path, out = run_cli(tmp_path, "crm", model, lattice)
    pm = position_matrix(load_config(path).field())
    ref = tmp_path / "ref.csv"
    rows = ref_write_csv(ref, ("m", "p", "n", "q", "re", "im"), ref_position_matrix_rows(pm))
    assert (out / "crm.csv").read_bytes() == ref.read_bytes()
    assert json.loads((out / "manifest.json").read_text())["outputs"][0]["rows"] == rows


@pytest.mark.parametrize("model", [GENERIC, ANGLES], ids=["generic", "angles"])
def test_connection_csv_equals_row_reference(tmp_path, model):
    path, out = run_cli(tmp_path, "connection", model, {"N": 7, "a": 1.1, "n_bands": 2})
    conn = berry_connection(load_config(path).field())
    ref = tmp_path / "ref.csv"
    ref_write_csv(ref, ("p", "m", "n", "re", "im"), ref_connection_rows(conn))
    assert (out / "connection.csv").read_bytes() == ref.read_bytes()


def test_gauge_audit_csv_equals_row_reference(tmp_path, monkeypatch):
    reports = []

    class Recorded(gauge.InvarianceReport):
        def __init__(self, *args):
            super().__init__(*args)
            reports.append(self)

    monkeypatch.setattr(gauge, "InvarianceReport", Recorded)
    _, out = run_cli(tmp_path, "gauge-audit", GENERIC, {"N": 16, "a": 1.0, "n_bands": 2},
                     seeds=3, band=1, kindex=2)
    ref = tmp_path / "ref.csv"
    ref_write_csv(ref, ("name", "band", "seed", "before_re", "before_im", "after_re",
                        "after_im", "delta", "invariant"), ref_report_rows(reports))
    assert len(reports) == 12
    assert (out / "gauge_audit.csv").read_bytes() == ref.read_bytes()


def test_write_csv_cell_rule(tmp_path):
    reals = [0.1, -0.0, 1e-300, 5e-324, float("nan"), float("inf"), -float("inf")]
    ints = [0, -1, 2 ** 62, 2 ** 63, 2 ** 63 + 1, 2 ** 64, 2 ** 70]
    text = ["plain", "comma,inside", 'quote"inside', "", "x", "y", "z"]
    path, ref = tmp_path / "table.csv", tmp_path / "ref.csv"
    table = {"real": reals, "array": np.array(reals), "int": ints, "index": np.arange(7),
             "text": text}
    assert io.write_csv(path, table) == 7
    ref_write_csv(ref, table.keys(), [(ref_fmt(x), ref_fmt(x), n, i, s)
                                      for i, (x, n, s) in enumerate(zip(reals, ints, text))])
    data = path.read_bytes()
    assert data == ref.read_bytes()
    assert data.startswith(b"real,array,int,index,text\r\n"
                           b"0.10000000000000001,0.10000000000000001,0,0,plain\r\n-0,-0,-1,1,")
    assert b"9223372036854775808" in data and b"1180591620717411303424" in data


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        io.write_csv(tmp_path / "t.csv", {"a": [1, 2], "b": [0.5]})


def ref_cell(x):
    """The former cell rule: reals through ``ref_fmt``, anything else to
    csv.writer as it is."""
    return ref_fmt(x) if isinstance(x, float) else x


def assert_writes_like_csv_writer(tmp_path, table):
    path, ref = tmp_path / "table.csv", tmp_path / "ref.csv"
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    rows = ref_write_csv(ref, table.keys(), ([ref_cell(x) for x in row] for row in zip(*columns)))
    assert io.write_csv(path, table) == rows
    assert path.read_bytes() == ref.read_bytes()


TEXT = ["comma,inside", 'quote"inside', '"', "cr\rlf\nboth\r\n", "", "plain", "trailing "]


@pytest.mark.parametrize("table", [
    {"text": TEXT, "index": np.arange(len(TEXT))},
    {"text": TEXT},
    {"only": ["", None, "x"]},
    {"a,b": [1], 'say "x"': [2.5]},
], ids=["quoted-strings", "one-string-column", "empty-cell-alone", "quoted-header"])
def test_write_csv_quotes_like_csv_writer(tmp_path, table):
    assert_writes_like_csv_writer(tmp_path, table)


def test_write_csv_bool_and_numpy_float_cells_in_lists(tmp_path):
    assert_writes_like_csv_writer(tmp_path, {
        "flag": [True, False, True],
        "flags": np.array([False, True, True]),
        "x": [np.float64(0.1), np.float64(-0.0), np.float64(1e-300)],
        "y": [np.float64(1.5), 2.0, np.float32(0.1)],
    })


def test_write_csv_mixed_int_float_column(tmp_path):
    assert_writes_like_csv_writer(tmp_path, {
        "mixed": [1, 2.5, -3, 1e-300, 2 ** 70, float("nan"), None, "s"],
        "objects": np.array([1, 2.5, -3, 1e-300, 2 ** 70, float("nan"), None, "s"], dtype=object),
        "ints": list(range(8)),
    })


@pytest.mark.parametrize("table", [{"a": [], "b": np.array([]), "c": np.arange(0)}, {}],
                         ids=["no-rows", "no-columns"])
def test_write_csv_empty_tables(tmp_path, table):
    assert_writes_like_csv_writer(tmp_path, table)


def test_write_csv_longer_than_one_chunk(tmp_path):
    rows = 2 * io.CHUNK_ROWS + 5
    values = np.random.default_rng(3).normal(size=rows)
    assert_writes_like_csv_writer(tmp_path, {
        "i": np.arange(rows), "x": values, "label": [f"r{i % 7}" for i in range(rows)],
        "y": values.tolist(),
    })
