"""The column writer against the row-by-row writer it replaced.

``ref_*`` below are the former per-result row generators and cell
formatter, kept as the reference: every file the CLI writes must equal,
byte for byte, what they write from the same library results.
"""

import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("table", [
    {}, {"a": [], "b": np.array([])}, {"s": ["x,y", 'q"', None, 1.5, 7]},
    {"x": np.linspace(-3.0, 3.0, 2 * io.CHUNK_ROWS + 5), "i": np.arange(2 * io.CHUNK_ROWS + 5)},
], ids=["no-columns", "no-rows", "quoted", "three-chunks"])
def test_write_csv_returns_the_sha256_of_its_bytes(tmp_path, table):
    path = tmp_path / "t.csv"
    written = io.write_csv(path, table)
    data = path.read_bytes()
    assert written.sha256 == hashlib.sha256(data).hexdigest()
    assert written == len(next(iter(table.values()), [])) and isinstance(written, int)


def test_write_csv_names_each_ragged_column(tmp_path):
    table = {"a": [1, 2, 3], "b": [0.5], "c": np.arange(3), "d": np.array([])}
    with pytest.raises(ValueError, match=r"^columns of t\.csv differ in length: 'a' has 3 rows, "
                                         r"'b' has 1, 'd' has 0$"):
        io.write_csv(tmp_path / "t.csv", table)


# -- the integer-arithmetic cell path against format(x, ".17g") and str(n) ---

def written_cells(path, column) -> list:
    """The text ``write_csv`` gives each cell of a one-column table."""
    io.write_csv(path, {"x": column})
    return path.read_bytes().decode().split("\r\n")[1:-1]


def assert_reals_as_format(path, values):
    """Every cell of the float64 column equals ``format(x, ".17g")``, and
    the integer path took every zero and every 10**-38 <= |x| < 1e16 (the
    double nearest 1e-38 lies below 10**-38)."""
    values = np.asarray(values, dtype=float)
    got = written_cells(path, values)
    want = [format(x, ".17g") for x in values.tolist()]
    assert len(got) == len(want)
    assert [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w][:5] == []
    size = np.abs(values)
    window = (size == 0) | (size > 1e-38) & (size < 1e16)
    assert window.sum() == 0 or io._real_cells(values[window])[2].all()


def powers_of_ten():
    """10**k and both of its float neighbours, k = -324..308."""
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


def notation_switches():
    """Floats around %g's switches to exponent notation at 1e16 and 1e17
    (17 digits) and at 1e-4 and 1e-5."""
    centres = np.array([1e16, 1e17, 1e-4, 1e-5])
    steps = np.arange(-40, 41)
    up = np.repeat(centres, len(steps))
    out = up.copy()
    for i, step in enumerate(np.tile(steps, len(centres))):
        for _ in range(abs(step)):
            out[i] = np.nextafter(out[i], np.inf if step > 0 else 0)
    return out


def eighteen_digit_ties(rng):
    """n * 2**-m whose exact decimal expansion n * 5**m has 18 digits and
    ends in 5: halfway between two 17-digit values, so ``.17g`` rounds to
    the even one.  Both directions are drawn."""
    ties = []
    for m in range(2, 26):
        lo = -(-10 ** 17 // 5 ** m)
        hi = min((10 ** 18 - 1) // 5 ** m, 2 ** 53 - 1)
        for n in rng.integers(lo, hi, 40, endpoint=True):
            n = int(n) | 1
            if n <= hi and 10 ** 17 <= n * 5 ** m:
                ties.append((n, m))
    parity = {n * 5 ** m // 10 % 2 for n, m in ties}
    assert parity == {0, 1}
    return [n / 2 ** m for n, m in ties]


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, float("nan"), float("inf"), -float("inf"), 1e-14, 1e-38,
         9.999999999999999e-39, 1e17, 9.9999999999999984e16, 0.1, 0.5, 1.0, 123456789.0]


def test_real_cells_at_the_edges(tmp_path):
    rng = np.random.default_rng(7)
    values = np.concatenate([EDGES, powers_of_ten(), notation_switches(),
                             eighteen_digit_ties(rng)])
    assert_reals_as_format(tmp_path / "edges.csv", np.concatenate([values, -values]))


def test_real_cells_of_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    assert_reals_as_format(tmp_path / "bits.csv", bits.view(np.float64))
    # a share of those mantissas with exponents inside the integer path's window
    bits = bits[:30_000]
    exponents = rng.integers(1023 - 127, 1023 + 57, len(bits), dtype=np.uint64)
    inside = bits & ((1 << 52) - 1 | 1 << 63) | exponents << 52
    assert_reals_as_format(tmp_path / "inside.csv", inside.view(np.float64))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_real_cells_property(tmp_path_factory, values):
    assert_reals_as_format(tmp_path_factory.getbasetemp() / "property.csv", values)


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_narrow_float_cells(tmp_path, dtype):
    rng = np.random.default_rng(5)
    values = (rng.normal(size=3000) * 10.0 ** rng.uniform(-7, 4, 3000)).astype(dtype)
    got = written_cells(tmp_path / "narrow.csv", values)
    assert got == [format(x, ".17g") for x in values.tolist()]


INT64, UINT64 = np.iinfo(np.int64), np.iinfo(np.uint64)


@pytest.mark.parametrize("column", [
    np.array([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]),
    np.array([0, 1, 2 ** 63 - 1, 2 ** 63, UINT64.max - 1, UINT64.max], dtype=np.uint64),
    np.array([-128, -1, 0, 127], dtype=np.int8),
    np.array([0, 2 ** 32 - 1], dtype=np.uint32),
    [-2 ** 63, -1, 0, 2 ** 63 - 1],
    [0, 2 ** 63, -2 ** 63 - 1],
    np.concatenate([[-10 ** k, -10 ** k + 1, 10 ** k - 1, 10 ** k] for k in range(19)]),
    np.random.default_rng(3).integers(INT64.min, INT64.max, 20_000),
], ids=["int64-extremes", "uint64-extremes", "int8", "uint32", "list-int64-extremes",
        "list-beyond-int64", "powers-of-ten", "random-int64"])
def test_integer_cells_as_str(tmp_path, column):
    cells = column.tolist() if isinstance(column, np.ndarray) else column
    assert written_cells(tmp_path / "ints.csv", column) == [str(n) for n in cells]


@pytest.mark.slow
def test_real_cells_exhaustive_sweep(tmp_path):
    """6 million random bit patterns, two thirds of them with exponents
    inside the integer path's window, and 1,000 floats on each side of
    every power of ten."""
    rng = np.random.default_rng(2024)
    for _ in range(12):
        bits = rng.integers(0, 2 ** 64, 500_000, dtype=np.uint64)
        exponents = rng.integers(1023 - 127, 1023 + 57, len(bits), dtype=np.uint64)
        inside = bits & ((1 << 52) - 1 | 1 << 63) | exponents << 52
        bits[len(bits) // 3:] = inside[len(bits) // 3:]
        assert_reals_as_format(tmp_path / "sweep.csv", bits.view(np.float64))
    ulps = np.arange(-1000, 1001)
    for k in range(-324, 309):
        centre = np.array(float(f"1e{k}")).view(np.int64)
        near = (centre + ulps)[centre + ulps >= 0].view(np.float64)
        assert_reals_as_format(tmp_path / "powers.csv", near[np.isfinite(near)])
