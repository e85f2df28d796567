import csv
import dataclasses
import hashlib
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from crmatrix import DriveSpec, LatticeSpec, OccupationSpec, PumpFamily, cli, io
from crmatrix.cli import list_presets, load_config, main
from crmatrix.presets import generic_two_band
from crmatrix.transport import shift_current_spectrum


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def base_config(task, outdir, model=None, lattice=None, **task_params):
    return {
        "lattice": lattice or {"N": 16, "a": 1.0, "n_bands": 2},
        "model": model or {"preset": "two-band-generic"},
        "task": {"name": task, "params": task_params},
        "output": {"directory": str(outdir)},
        "seed": 7,
    }


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_list_presets_exact_set(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "graphene-ribbon" in out
    assert "qwz-pump" in out
    names = [line.split()[0] for line in list_presets().splitlines()]
    assert names == ["identity", "two-band-generic", "graphene-ribbon",
                     "qwz-pump", "vacuum-gap-chain"]


def test_missing_lattice_key_names_it(tmp_path, capsys):
    cfg = base_config("crm", tmp_path / "out")
    del cfg["lattice"]["N"]
    code = main(["run", "--config", str(write_config(tmp_path, cfg))])
    assert code == 2
    assert "lattice.N" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = base_config("crm", tmp_path / "out")
    cfg["lattice"]["typo"] = 3
    code = main(["run", "--config", str(write_config(tmp_path, cfg))])
    assert code == 2
    assert "lattice.typo" in capsys.readouterr().err


def test_bad_task_name(tmp_path, capsys):
    cfg = base_config("crm", tmp_path / "out")
    cfg["task"]["name"] = "noop"
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2


@pytest.mark.parametrize("a", [1.0, 1e3, 1e6])
def test_crm_task_smoke(tmp_path, capsys, a):
    # the Hermiticity guard scales with a: no round-off exit 3 at large a
    out = tmp_path / "out"
    cfg = base_config("crm", out, lattice={"N": 64, "a": a, "n_bands": 2})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert "hermiticity check: pass" in capsys.readouterr().out
    rows = read_csv(out / "crm.csv")
    assert rows[0] == ["m", "p", "n", "q", "re", "im"]
    assert len(rows) - 1 == 128 * 128
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task"] == "crm"
    assert manifest["outputs"][0]["file"] == "crm.csv"
    assert manifest["tolerances"] == {"crm_hermiticity": 1e-10 * a}


def test_berry_phase_task_graphene(tmp_path):
    out = tmp_path / "out"
    cfg = base_config("berry-phase", out,
                      model={"preset": "graphene-ribbon"},
                      lattice={"N": 512, "a": 1.0, "n_bands": 2})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    rows = read_csv(out / "berry_phase.csv")
    assert len(rows) == 2
    theta = float(rows[1][1])
    assert abs(abs(theta) - np.pi) < 1e-3


def test_angle_expressions_model(tmp_path):
    out = tmp_path / "out"
    cfg = base_config("connection", out,
                      model={"angles": {"theta": "1.1 + 0.4*cos(k*a)",
                                        "phi": "k*a"}})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert (out / "connection.csv").exists()
    assert (out / "reduced_r.csv").exists()


def test_hamiltonian_table_model(tmp_path):
    out = tmp_path / "out"
    cfg = base_config("connection", out,
                      model={"hamiltonian": [["cos(k)", "sin(k)"],
                                             ["sin(k)", "-cos(k)"]]})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0


def test_degenerate_hamiltonian_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config("connection", out,
                      model={"hamiltonian": [["cos(k)", "0"], ["0", "-cos(k)"]]},
                      lattice={"N": 4, "a": 1.0, "n_bands": 2})
    code = main(["run", "--config", str(write_config(tmp_path, cfg))])
    assert code == 3
    err = capsys.readouterr().err
    assert "DegenerateRibbon" in err
    assert "k index" in err


def test_pump_task(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config("pump", out, model={"preset": "qwz-pump", "params": {"mu": -1.0}},
                      lattice={"N": 48, "a": 1.0, "n_bands": 2}, n_lambda=48)
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    rows = read_csv(out / "oracle.csv")
    assert abs(int(rows[1][2])) == 1
    pump_rows = read_csv(out / "pump.csv")
    assert abs(abs(float(pump_rows[-1][2])) - 1.0) < 1e-3


def test_pump_model_is_built_by_the_context(tmp_path):
    cfg = base_config("pump", tmp_path / "out", model={"preset": "qwz-pump"})
    ctx = load_config(write_config(tmp_path, cfg))
    for family, n_lambda in ((ctx.field(), 16), (ctx.field(n_lambda=8), 8)):
        assert isinstance(family, PumpFamily)
        assert (family.n_k, family.n_lambda) == (16, n_lambda)


def test_default_fillings_follow_the_mean_energy_order(tmp_path):
    """With gap -0.2 the two-band-generic bands cross: column 1 is lower at
    k = 0, column 0 is lower on average.  The default fills column 0, the
    lower band in the spectrum's own (mean-energy) order."""
    out, model = tmp_path / "out", {"preset": "two-band-generic",
                                    "params": {"gap": -0.2, "bandwidth": 0.5}}
    cfg = base_config("shift-current", out, model=model,
                      lattice={"N": 64, "a": 1.0, "n_bands": 2})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    rows = read_csv(out / "spectrum.csv")[1:]
    assert float(rows[0][0]) == 0.5
    assert float(rows[0][1]) == pytest.approx(-0.3169, abs=1e-4)
    field = generic_two_band(LatticeSpec(64, 1.0, 2), gap=-0.2, bandwidth=0.5)
    want = shift_current_spectrum(field, OccupationSpec([1.0, 0.0]),
                                  DriveSpec(np.linspace(0.5, 4.0, 176), 1.0, 0.02))
    assert [float(row[1]) for row in rows] == want.currents.tolist()


def test_shift_current_task(tmp_path):
    out = tmp_path / "out"
    cfg = base_config("shift-current", out,
                      model={"preset": "graphene-ribbon", "params": {"mass": 0.3}},
                      lattice={"N": 128, "a": 1.0, "n_bands": 2},
                      fillings=[0.0, 1.0],
                      frequencies={"start": 1.0, "stop": 2.5, "count": 16})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert rows[0] == ["omega", "J_s", "skipped_fraction"]
    assert len(rows) == 17


def test_divergence_and_incompleteness_tasks(tmp_path):
    out1, out2 = tmp_path / "d", tmp_path / "i"
    cfg = base_config("divergence-demo", out1,
                      model={"preset": "vacuum-gap-chain"},
                      lattice={"N": 8, "a": 1.0, "n_bands": 1},
                      windows=[2, 4, 8, 16])
    assert main(["run", "--config", str(write_config(tmp_path, cfg, "d.json"))]) == 0
    assert (out1 / "truncation.csv").exists()
    cfg2 = base_config("incompleteness", out2,
                       model={"preset": "vacuum-gap-chain"},
                       lattice={"N": 4, "a": 1.0, "n_bands": 1},
                       n_max_list=[1, 4, 16])
    assert main(["run", "--config", str(write_config(tmp_path, cfg2, "i.json"))]) == 0
    rows = read_csv(out2 / "residual.csv")
    assert all(abs(float(r[1]) - 1.0) < 1e-12 for r in rows[1:])


def test_gauge_audit_task_rerun_determinism(tmp_path):
    outs = []
    for label in ("r1", "r2"):
        out = tmp_path / label
        cfg = base_config("gauge-audit", out,
                          lattice={"N": 64, "a": 1.0, "n_bands": 2}, seeds=6)
        assert main(["run", "--config", str(write_config(tmp_path, cfg, label + ".json"))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        outs.append(((out / "gauge_audit.csv").read_bytes(),
                     manifest["outputs"][0]["sha256"]))
    assert outs[0] == outs[1]


def test_seed_override_changes_audit(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg_a = base_config("gauge-audit", a, lattice={"N": 32, "a": 1.0, "n_bands": 2}, seeds=3)
    cfg_b = base_config("gauge-audit", b, lattice={"N": 32, "a": 1.0, "n_bands": 2}, seeds=3)
    assert main(["run", "--config", str(write_config(tmp_path, cfg_a, "a.json"))]) == 0
    assert main(["run", "--config", str(write_config(tmp_path, cfg_b, "b.json")),
                 "--seed", "99"]) == 0
    assert (a / "gauge_audit.csv").read_bytes() != (b / "gauge_audit.csv").read_bytes()


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CRMATRIX_OUTDIR", str(tmp_path / "envout"))
    cfg = {
        "lattice": {"N": 8, "a": 1.0, "n_bands": 2},
        "model": {"preset": "identity"},
        "task": {"name": "connection"},
    }
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert (tmp_path / "envout" / "connection.csv").exists()


@pytest.mark.parametrize("directory", [None, "cfgout"])
@pytest.mark.parametrize("env", [None, "", "envout"])
@pytest.mark.parametrize("override", [None, "argout"])
def test_output_directory_precedence(tmp_path, monkeypatch, directory, env, override):
    """load_config resolves the output directory: the config's
    output.directory, else CRMATRIX_OUTDIR (when set and non-empty), else
    crmatrix-out; --outdir overrides all three.  The run writes there and
    nowhere else."""
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("CRMATRIX_OUTDIR", raising=False)
    else:
        monkeypatch.setenv("CRMATRIX_OUTDIR", env)
    cfg = base_config("connection", directory, model={"preset": "identity"})
    if directory is None:
        del cfg["output"]
    path = write_config(tmp_path, cfg)
    expected = directory or env or "crmatrix-out"
    assert load_config(path).outdir == Path(expected)
    assert load_config(path).task == "connection"
    assert main(["run", "--config", str(path)] + (["--outdir", override] if override else [])) == 0
    written = override or expected
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.json", written])
    assert (tmp_path / written / "connection.csv").exists()


def test_bad_output_directory_exits_2_writing_nothing(tmp_path, monkeypatch, capsys):
    """An empty output.directory used to write into the working directory,
    and a number or list ran the whole task before failing with a
    TypeError; each now exits 2 naming the key before the task runs, even
    with --outdir.  An empty --outdir, which fell back to the config's
    directory, exits 2 naming --outdir."""
    monkeypatch.chdir(tmp_path)
    cases = [(directory, extra, "output.directory") for directory in ("", 5, ["a"], None)
             for extra in ([], ["--outdir", "argout"])] + [("out", ["--outdir", ""], "--outdir")]
    for directory, extra, key in cases:
        cfg = base_config("connection", "unused", model={"preset": "identity"})
        cfg["output"]["directory"] = directory
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path)] + extra) == 2
        assert f"{key} must be a non-empty string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


#: every task's documented files and their headers
TASK_SCHEMAS = {
    "crm": {"crm.csv": ["m", "p", "n", "q", "re", "im"]},
    "connection": {"connection.csv": ["p", "m", "n", "re", "im"],
                   "reduced_r.csv": ["p", "m", "n", "re", "im"]},
    "berry-phase": {"berry_phase.csv": ["band", "theta"]},
    "gauge-audit": {"gauge_audit.csv": ["name", "band", "seed", "before_re",
                                        "before_im", "after_re", "after_im",
                                        "delta", "invariant"]},
    "shift-current": {"spectrum.csv": ["omega", "J_s", "skipped_fraction"]},
    "pump": {"pump.csv": ["lambda", "P", "Q_cumulative"],
             "oracle.csv": ["preset", "band", "chern", "residue"]},
    "divergence-demo": {"truncation.csv": ["W", "value"],
                        "translation.csv": ["before", "after", "predicted_shift"]},
    "incompleteness": {"residual.csv": ["n_max", "residual"],
                       "orthogonality.csv": ["n_max", "N", "worst_off_diagonal"]},
}


def run_every_task(tmp_path):
    """Run each task of TASK_SCHEMAS at N=24; yields (task, output directory)."""
    models = {
        "pump": {"preset": "qwz-pump"},
        "shift-current": {"preset": "graphene-ribbon", "params": {"mass": 0.3}},
        "divergence-demo": {"preset": "vacuum-gap-chain"},
        "incompleteness": {"preset": "vacuum-gap-chain"},
    }
    for i, task in enumerate(TASK_SCHEMAS):
        out = tmp_path / f"t{i}"
        cfg = base_config(task, out, model=models.get(task),
                          lattice={"N": 24, "a": 1.0, "n_bands": 2})
        if task == "gauge-audit":
            cfg["task"]["params"]["seeds"] = 2
        if task == "pump":
            cfg["task"]["params"]["n_lambda"] = 24
        if task == "incompleteness":
            cfg["task"]["params"]["n_max_list"] = [1, 2]
        path = write_config(tmp_path, cfg, f"t{i}.json")
        assert main(["run", "--config", str(path)]) == 0, task
        yield task, out


def test_every_task_csv_schema(tmp_path):
    # headers must match the documented schemas exactly
    for task, out in run_every_task(tmp_path):
        for name, header in TASK_SCHEMAS[task].items():
            assert read_csv(out / name)[0] == header, (task, name)


def test_manifest_lists_each_file_with_the_sha256_of_its_bytes(tmp_path):
    """The digests are taken as the files are written; each must equal the
    sha256 of the file as it lies on disk, and the row count its data rows."""
    for task, out in run_every_task(tmp_path):
        manifest = json.loads((out / "manifest.json").read_text())
        assert [o["file"] for o in manifest["outputs"]] == list(TASK_SCHEMAS[task]), task
        for entry in manifest["outputs"]:
            data = (out / entry["file"]).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest(), (task, entry["file"])
            assert entry["rows"] == data.count(b"\r\n") - 1, (task, entry["file"])


def test_csv_seventeen_digit_round_trip(tmp_path):
    out = tmp_path / "out"
    cfg = base_config("connection", out, lattice={"N": 8, "a": 1.0, "n_bands": 2})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 0
    from crmatrix import berry_connection
    conn = berry_connection(load_config(path).field())
    rows = read_csv(out / "connection.csv")[1:]
    for row in rows[:20]:
        p, m, n = int(row[0]), int(row[1]), int(row[2])
        assert float(row[3]) == conn.values[p, m, n].real
        assert float(row[4]) == conn.values[p, m, n].imag


@pytest.mark.parametrize("model", [None, {"angles": {"theta": "1.1 + 0.3*cos(k*a)",
                                                      "phi": "k*a"}}], ids=["preset", "angles"])
def test_connection_task_builds_the_connection_once(tmp_path, monkeypatch, model):
    """connection.csv and reduced_r.csv come from one berry_connection call,
    and reduced_r.csv is that connection plus Rbar on the diagonal."""
    from crmatrix import rmatrix
    calls, build = [], rmatrix.berry_connection

    def counted(field):
        calls.append(field)
        return build(field)

    monkeypatch.setattr(rmatrix, "berry_connection", counted)
    monkeypatch.setattr(cli, "berry_connection", counted)
    out = tmp_path / "out"
    cfg = base_config("connection", out, model=model,
                      lattice={"N": 8, "a": 1.3, "n_bands": 2, "origin": 0.4})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert len(calls) == 1
    conn = build(calls[0]).values + LatticeSpec(8, 1.3, 2, 0.4).rbar * np.eye(2)
    rows = read_csv(out / "reduced_r.csv")[1:]
    assert len(rows) == 8 * 4
    for p, m, n, re, im in rows:
        assert complex(float(re), float(im)) == conn[int(p), int(m), int(n)]


def random_complex(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(3, 37, 3, 41), (45, 2, 2), (1, 1, 1)])
def test_complex_table_writes_the_rows_of_whole_table_indices(tmp_path, shape):
    """The index columns made a write block at a time (13,653 rows: four
    blocks) give the bytes of a table that holds np.indices whole."""
    values, names = random_complex(shape), "abcd"[:len(shape)]
    written = io.write_csv(tmp_path / "blocked.csv", cli._complex_table(values, *names))
    index, flat = np.indices(shape).reshape(len(shape), -1), values.reshape(-1)
    whole = io.write_csv(tmp_path / "whole.csv", {**dict(zip(names, index)), "re": flat.real,
                                                  "im": flat.imag})
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert written == whole == values.size


def test_index_column_honours_a_slice_step():
    """A stepped slice of an index column is that slice of np.indices."""
    shape = (3, 5, 4)
    index = np.indices(shape).reshape(len(shape), -1)
    for axis in range(len(shape)):
        column = cli._IndexColumn(shape, axis)
        for rows in (slice(1, 9, 3), slice(None, None, -7), slice(50, 2, -5)):
            assert np.array_equal(column[rows], index[axis][rows]), (axis, rows)


def test_complex_table_holds_no_whole_table_index(tmp_path):
    """At NB = 2, N = 256 the crm table has 262,144 rows, whose four int64
    indices take 8 MiB; writing its index columns peaks at about 0.25 MiB,
    where indices made whole peaked at 8.25 MiB."""
    values = np.zeros((2, 256, 2, 256), dtype=complex)
    tracemalloc.start()
    try:
        table = cli._complex_table(values, "m", "p", "n", "q")
        io.write_csv(tmp_path / "crm.csv", {name: table[name] for name in "mpnq"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * values.size * 8 / 8


def _subclass_escape(marker):
    """The classic eval-sandbox escape: reach os.system through object's
    subclasses and touch ``marker``."""
    return ("[c for c in ().__class__.__base__.__subclasses__() if c.__name__ == '_wrap_close']"
            f"[0].__init__.__globals__['system']('touch {marker}')")


@pytest.mark.parametrize("expr", [
    "k.real",
    "k[0]",
    "(lambda: k)()",
    "[x for x in (1, 2)][0]",
    "__import__('os').getcwd()",
    "sin(x=k)",
    "'text'",
    "sin",
    "escape",
], ids=["attribute", "subscript", "lambda", "comprehension", "dunder", "keyword",
        "string", "uncalled-function", "subclass-escape"])
@pytest.mark.parametrize("model", ["angles", "hamiltonian"])
def test_expression_outside_grammar_exits_2_before_output(tmp_path, capsys, expr, model):
    marker = tmp_path / "escaped"
    if expr == "escape":
        expr = _subclass_escape(marker)
    if model == "angles":
        spec, path = {"angles": {"theta": "1.1", "phi": expr}}, "model.angles.phi"
    else:
        spec, path = {"hamiltonian": [["cos(k)", expr], ["0", "-cos(k)"]]}, "model.hamiltonian[0][1]"
    out = tmp_path / "out"
    cfg = base_config("connection", out, model=spec, lattice={"N": 4, "a": 1.0, "n_bands": 2})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert path in capsys.readouterr().err
    assert not marker.exists()
    assert not out.exists()


GRAPHENE, CHAIN = {"preset": "graphene-ribbon"}, {"preset": "vacuum-gap-chain"}
THREE_BANDS = {"lattice": {"N": 16, "a": 1.0, "n_bands": 3}}
NAN = float("nan")  # json.dumps writes it as the token NaN


#: (task, model, task params, top-level keys, text the error must name) of
#: configs that exit 2; they also seed the config fuzzer
MALFORMED = [
    ("gauge-audit", None, {"seeds": "x"}, {}, "task.params.seeds"),
    ("berry-phase", None, {"band": 5}, {}, "task.params.band"),
    ("pump", {"preset": "qwz-pump"}, {"n_lambda": 0}, {}, "task.params.n_lambda"),
    ("crm", {"preset": "two-band-generic", "params": {"thetaO": 1.0}}, {}, {},
     "model.params.thetaO"),
    ("gauge-audit", None, {"seedz": 3}, {}, "task.params.seedz"),
    ("crm", None, {}, {"workers": 2}, "config.workers"),
    ("pump", {"preset": "qwz-pump", "params": {"gap_tol": 1e-3}}, {}, {},
     "model.params.gap_tol"),
    ([], None, {}, {}, "task.name"),
    ("crm", {"preset": ["identity"]}, {}, {}, "model.preset"),
    ("shift-current", GRAPHENE, {"eta": 0}, {}, "task.params.eta"),
    ("divergence-demo", CHAIN, {"centering": "x"}, {}, "task.params.centering"),
    ("divergence-demo", CHAIN, {"windows": [16, 8]}, {}, "task.params.windows"),
    ("shift-current", GRAPHENE, {"frequencies": [2.0, 1.0]}, {}, "task.params.frequencies"),
    ("shift-current", GRAPHENE, {"frequencies": {"start": 1.0, "stop": 2.0, "count": "x"}}, {},
     "task.params.frequencies.count"),
    ("shift-current", GRAPHENE, {"fillings": [2, 0]}, {}, "task.params.fillings"),
    ("shift-current", GRAPHENE, {"fillings": [0.5]}, {}, "task.params.fillings"),
    ("incompleteness", CHAIN, {"orthogonality": {"n_max": "x", "N": 4}}, {},
     "task.params.orthogonality.n_max"),
    ("gauge-audit", None, {"scale": "x"}, {}, "task.params.scale"),
    ("shift-current", GRAPHENE, {"amplitude": "x"}, {}, "task.params.amplitude"),
    ("shift-current", GRAPHENE, {"amplitude": [1.0, 2.0, 3.0], "frequencies": [1.0, 2.0]}, {},
     "task.params.amplitude"),
    ("connection", {"angles": {"theta": "1.1 + 3*cos(k*a)", "phi": "k*a"}}, {}, {},
     "model.angles"),
    ("crm", None, {}, THREE_BANDS, "lattice.n_bands"),
    ("crm", {"angles": {"theta": "1.1", "phi": "k*a"}}, {}, THREE_BANDS, "lattice.n_bands"),
    ("pump", {"preset": "qwz-pump"}, {}, THREE_BANDS, "lattice.n_bands"),
    ("crm", GRAPHENE, {}, THREE_BANDS, "lattice.n_bands"),
    ("crm", None, {}, {"lattice": {"N": 16, "a": NAN, "n_bands": 2}}, "lattice.a"),
    ("shift-current", GRAPHENE, {"frequencies": [0.5, NAN, 1.0]}, {},
     "task.params.frequencies[1]"),
    ("connection", None, {}, {"lattice": {"N": 16, "a": 1.0, "n_bands": 2, "origin": NAN}},
     "lattice.origin"),
    ("gauge-audit", None, {"scale": -np.inf}, {}, "task.params.scale"),
    ("shift-current", GRAPHENE, {"eta": 1e308}, {}, "task.params.eta"),
    ("crm", {"preset": "graphene-ribbon", "params": {"mass": 1e308, "hopping": 1e308}}, {}, {},
     "model.params"),
    ("crm", {"preset": "graphene-ribbon", "params": {"hopping": 1e308}}, {}, {}, "model.params"),
    ("crm", None, {}, {"lattice": {"N": 16, "a": 10 ** 400, "n_bands": 2}}, "lattice.a"),
    ("gauge-audit", None, {"scale": 1e308}, {}, "task.params.scale"),
    ("gauge-audit", None, {"scale": 1e307, "modes": 20}, {}, "task.params.scale"),
    ("shift-current", GRAPHENE, {"amplitude": 1e308}, {}, "task.params.amplitude"),
    ("divergence-demo", CHAIN, {"windows": [8]}, {}, "task.params.windows"),
    ("pump", {"preset": "qwz-pump", "params": {"mu": 1e308}}, {}, {}, "model.params.mu"),
    ("connection", {"hamiltonian": [["1e308", "0"], ["0", "-1e308"]]}, {}, {},
     "model.hamiltonian"),
    ("connection", {"hamiltonian": [["1", "1e308"], ["-1e308", "-1"]]}, {}, {},
     "model.hamiltonian overflows a float"),
    ("connection", {"hamiltonian": [["1e308*j", "0"], ["0", "1"]]}, {}, {},
     "model.hamiltonian overflows a float"),
    ("connection", {"hamiltonian": [["1", "1.5e308*(1+j)"], ["1.5e308*(1-j)", "0/(k-k)"]]},
     {}, {}, "model.hamiltonian: hamiltonian at k index 0 has a non-finite entry (1, 1): "
             "(nan+0j)\n"),
    ("connection", {"hamiltonian": [["1", "1.5e308*(1+j)"], ["1.5e308*(1-j)", "0"]]}, {}, {},
     "model.hamiltonian overflows a float: hamiltonian at k index 0 has an entry (0, 1) "
     "whose modulus overflows: (1.5e+308+1.5e+308j)\n"),
    ("berry-phase", None, {"band": 1, "bands": [0]}, {}, "task.params.bands"),
    ("incompleteness", CHAIN, {"n_max_list": []}, {}, "task.params.n_max_list"),
    ("berry-phase", None, {"bands": []}, {}, "task.params.bands"),
    ("connection", {"angles": {"theta": "1.1", "phi": "k*a", "dtheta": "0*k"}}, {}, {},
     "model.angles.dphi"),
    ("connection", {"angles": {"theta": "1.1", "phi": "k*a", "dphi": "a + 0*k"}}, {}, {},
     "model.angles.dtheta"),
    ("crm", None, {}, {"output": {"directory": 5}}, "output.directory"),
    ("crm", None, {}, {"output": {"directory": ["a"]}}, "output.directory"),
    ("crm", None, {}, {"output": {"directory": ""}}, "output.directory"),
    ("crm", None, {}, {"lattice": {"N": 16, "a": 1e-310, "n_bands": 2}},
     "lattice.a: lattice_constant 1e-310 puts the zone width 2 pi / a past the float range"),
    ("crm", None, {}, {"lattice": {"N": 17, "a": 1.2e307, "n_bands": 2}},
     "lattice.a: lattice_constant 1.2e+307 puts the chain length (N - 1) a past the float range"),
    ("crm", None, {}, {"lattice": {"N": 17, "a": 1e307, "n_bands": 2, "origin": 1e308}},
     "lattice.origin: origin 1e+308 puts the last site past the float range"),
    ("crm", None, {}, {"lattice": {"N": 16, "a": 1.0, "n_bands": 2, "origin": 1e308}},
     "lattice.origin: origin 1e+308 puts the origin phase |origin| 2 pi / a past the float "
     "range"),
]
MALFORMED_IDS = [
    "seeds-type", "band-range", "n_lambda-zero", "preset-param-typo", "task-param-typo",
    "workers-key", "pump-keyword-not-a-model-param", "task-name-list", "preset-list", "eta-zero",
    "centering", "windows-decreasing", "frequencies-decreasing", "frequency-count-type",
    "fillings-range", "fillings-length", "orthogonality-n_max-type", "scale-type",
    "amplitude-type", "amplitude-length", "theta-range", "two-band-preset-3-bands",
    "angles-3-bands", "pump-3-bands", "graphene-3-bands", "a-nan", "frequency-nan", "origin-nan",
    "scale-infinite", "eta-square-overflows", "graphene-mass-and-hopping-overflow",
    "graphene-energy-overflows", "a-beyond-float", "scale-draws-overflow",
    "scale-generator-overflows", "amplitude-square-overflows", "one-window-no-fit",
    "pump-gap-overflows", "hamiltonian-gap-overflows", "hamiltonian-difference-overflows",
    "hamiltonian-imaginary-diagonal-overflows", "hamiltonian-nan-past-an-overflowing-modulus",
    "hamiltonian-modulus-overflows", "band-and-bands", "n_max_list-empty", "bands-empty",
    "dtheta-without-dphi", "dphi-without-dtheta", "output-directory-number",
    "output-directory-list", "output-directory-empty", "a-zone-width-overflows",
    "chain-length-overflows", "last-site-overflows", "origin-phase-overflows",
]


@pytest.mark.parametrize("task, model, params, top, key", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_params_exit_2_naming_key(tmp_path, capsys, task, model, params, top, key):
    out = tmp_path / "out"
    cfg = {**base_config(task, out, model=model, **params), **top}
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


#: expressions for the mutated model sections: zeros, subnormals, entries
#: near the float limit and non-finite values, on top of smooth ones
ENTRY = st.sampled_from(["0", "-0.0", "1e-320", "-1e-320", "1", "cos(k) + 0.5", "sin(k*a)",
                         "1e308", "-1e308", "0/(k-k)", "exp(1000*k)", "sqrt(k-1)"])
THETA = st.sampled_from(["0", "0*k", "pi", "pi + 0*k", "1.1 + 0.4*cos(k*a)", "-1e-11", "-1e-13",
                         "pi + 1e-11", "pi + 1e-13", "1e-320", "1e308", "0/(k-k)"])
PHI = st.sampled_from(["k*a", "0", "1e-320", "-k*a + 1e308", "0/(k-k)", "exp(1000*k)"])
DERIVATIVE = st.sampled_from(["0*k", "a + 0*k", "-0.4*a*sin(k*a)", "0/k", "1e308"])


@st.composite
def two_band_table(draw):
    """A 2-band ``hamiltonian`` table: Hermitian (its off-diagonal pair
    conjugate to each other), scalar, or with any four entries."""
    kind = draw(st.sampled_from(["hermitian", "scalar", "any"]))
    if kind == "any":
        return [[draw(ENTRY), draw(ENTRY)], [draw(ENTRY), draw(ENTRY)]]
    if kind == "scalar":
        c = draw(ENTRY)
        return [[c, "0"], ["0", c]]
    re_part, im_part = draw(ENTRY), draw(ENTRY)
    return [[draw(ENTRY), f"({re_part}) + ({im_part})*j"],
            [f"({re_part}) - ({im_part})*j", draw(ENTRY)]]


@st.composite
def two_band_angles(draw):
    """A ``model.angles`` set, with both derivatives or neither."""
    angles = {"theta": draw(THETA), "phi": draw(PHI)}
    if draw(st.booleans()):
        angles.update(dtheta=draw(DERIVATIVE), dphi=draw(DERIVATIVE))
    return angles


#: lattice mutations: grids too coarse for a loop or past any machine's
#: memory, and lattice constants and origins at and past the float range of
#: the zone width 2 pi / a, of the last site, of the origin phase and of |r_mn|^2
LATTICE = st.fixed_dictionaries({
    "N": st.sampled_from([2, 3, 16, 17, 2 ** 40]),
    "a": st.sampled_from([1.0, 0.37, 5e-324, 1e-310, 1e-300, 1e-160, 1e100, 1e154, 1e300,
                          1e307]),
    "origin": st.sampled_from([0.0, -3.5, 1e-320, 1e300, -1e307, 1e308]),
})
#: task parameter mutations as (key, value), at and past the float range
#: and the index ranges; a config takes those whose key its task has
TASK_PARAM = st.sampled_from([
    ("seeds", 1), ("seeds", 3), ("modes", 0), ("modes", 20), ("scale", 0.0), ("scale", 1e-320),
    ("scale", 1e154), ("scale", 1e307), ("band", 1), ("band", 2), ("bands", [0, 1]),
    ("kindex", 15), ("kindex", 16), ("eta", 1e-320), ("eta", 1e-300), ("eta", 1e154),
    ("amplitude", 1e154), ("amplitude", 1e-320), ("frequencies", [1e-320, 1e308]),
    ("frequencies", {"start": 0.0, "stop": 1e308, "count": 3}),
    ("frequencies", {"start": 1.0, "stop": 2.0, "count": 0}), ("fillings", [1, 0]),
    ("fillings", [0.5, 0.5]), ("n_lambda", 2), ("n_lambda", 3), ("windows", [8, 16]),
    ("window", 1), ("centering", "centered"), ("samples", 64), ("n_max_list", [1, 2]),
    ("orthogonality", {"n_max": 1, "N": 1}),
    # sizes past any machine's memory exit 2; windows are a closed form and run
    ("window", 2 ** 40), ("windows", [8, 2 ** 40]), ("samples", 2 ** 40),
    ("n_max_list", [2 ** 40]), ("modes", 2 ** 40), ("n_lambda", 2 ** 40),
    ("frequencies", {"start": 1.0, "stop": 2.0, "count": 2 ** 40}),
    ("orthogonality", {"n_max": 1, "N": 2 ** 40}),
])
#: output mutations; None keeps the config's own directory
OUTPUT = st.sampled_from([None, {"directory": 5}, {"directory": ""}, {"directory": ["a"]},
                          {"directory": None}, {}, "out"])


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(row=st.sampled_from(MALFORMED),
       model=st.one_of(st.none(), two_band_table().map(lambda h: {"hamiltonian": h}),
                       two_band_angles().map(lambda a: {"angles": a})),
       defaults=st.booleans(), lattice=st.none() | LATTICE,
       changes=st.lists(TASK_PARAM, max_size=3), output=OUTPUT)
@example(row=MALFORMED[MALFORMED_IDS.index("hamiltonian-modulus-overflows")], model=None,
         defaults=True, lattice=None, changes=[], output=None)
@example(row=MALFORMED[MALFORMED_IDS.index("theta-range")],
         model={"angles": {"theta": "pi + 1e-13", "phi": "k*a"}}, defaults=False, lattice=None,
         changes=[], output=None)
@example(row=MALFORMED[MALFORMED_IDS.index("a-nan")], model=None, defaults=True,
         lattice={"N": 16, "a": 1e-310, "origin": 0.0}, changes=[], output=None)
@example(row=MALFORMED[MALFORMED_IDS.index("a-nan")], model=None, defaults=True,
         lattice={"N": 16, "a": 1.0, "origin": 1e308}, changes=[], output=None)
@example(row=MALFORMED[MALFORMED_IDS.index("eta-zero")], model=None, defaults=True,
         lattice={"N": 16, "a": 1e300, "origin": 0.0}, changes=[], output=None)
def test_config_fuzzer_exits_0_2_or_3(row, model, defaults, lattice, changes, output):
    """A malformed config whose model section is kept or swapped for a
    2-band table or angle set toward the NB = 2 closed forms, with its task
    params kept or dropped for the defaults, its lattice and its output
    section mutated, and some task params set to extreme values, exits 0, 2
    or 3 and raises nothing (a numpy warning is an error here).  Exit 2 or
    3 writes nothing, exit 0 only its output directory, and every CSV cell
    it writes is finite."""
    task, row_model, params, top, _ = row
    entry = cli.TASKS.get(task) if isinstance(task, str) else None
    params = {**({} if defaults else params),
              **{key: value for key, value in changes if entry and key in entry.params}}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = {**base_config(task, out, model=model or row_model, **params), **top}
        if lattice is not None:
            cfg["lattice"] = {**cfg["lattice"], **lattice}
        if output is not None:
            cfg["output"] = output
        code = main(["run", "--config", str(write_config(Path(tmp), cfg))])
        event(f"exit {code}, {next(iter(cfg['model']))} model")
        assert code in (0, 2, 3), cfg
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["out", "run.json"][code != 0:], cfg
        for path in out.glob("*.csv"):
            assert not re.search(r"\b(nan|inf)\b", path.read_text(), re.IGNORECASE), (cfg, path)


@pytest.mark.parametrize("task, preset", [
    ("crm", "vacuum-gap-chain"), ("crm", "qwz-pump"), ("pump", "two-band-generic"),
    ("shift-current", "identity"),
])
def test_preset_task_mismatch_exits_2_before_output(tmp_path, capsys, task, preset):
    out = tmp_path / "out"
    cfg = base_config(task, out, model={"preset": preset})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert f"model.preset '{preset}'" in capsys.readouterr().err
    assert not out.exists()


def test_integer_power_is_taken_in_floats(tmp_path, capsys):
    """An exact integer tower such as 9**9**9**9 would never finish; taken in
    floats it overflows at once and the run exits 2 naming the key."""
    cfg = base_config("connection", tmp_path / "out",
                      model={"angles": {"theta": "1.1", "phi": "k*a + 9**9**9**9"}})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "model.angles.phi" in capsys.readouterr().err


TWO_POINTS = {"N": 2, "a": 1.0, "n_bands": 2}


@pytest.mark.parametrize("model, task, lattice, params, code, error", [
    ({"angles": {"theta": "1.1", "phi": "k*a + 9**9**9**9"}}, "connection", None, {}, 2, None),
    ({"preset": "qwz-pump", "params": {"mu": 0.0}}, "pump", None, {}, 3, "DegenerateRibbon"),
    ({"preset": "graphene-ribbon", "params": {"radius": 0}}, "connection", None, {}, 3,
     "DegenerateRibbon"),
    ({"preset": "graphene-ribbon", "params": {"hopping": 0}}, "crm", None, {}, 3,
     "DegenerateRibbon"),
    (None, "berry-phase", TWO_POINTS, {}, 3, "UnderResolvedGrid"),
    (None, "gauge-audit", TWO_POINTS, {}, 3, "UnderResolvedGrid"),
    ({"preset": "qwz-pump"}, "pump", TWO_POINTS, {}, 3, "UnderResolvedGrid"),
    ({"hamiltonian": [["cos(k)", "0"], ["0", "-cos(k)"]]}, "connection",
     {"N": 4, "a": 1.0, "n_bands": 2}, {}, 3, "DegenerateRibbon"),
    ({"hamiltonian": [["0", "0"], ["0", "0"]]}, "connection", None, {}, 3, "DegenerateRibbon"),
    ({"hamiltonian": [["3", "0"], ["0", "3"]]}, "connection", None, {}, 3, "DegenerateRibbon"),
    (GRAPHENE, "shift-current", {"N": 16, "a": 1e300, "n_bands": 2}, {}, 3,
     "NonFiniteResult: shift current at omega 0.5 is nan: its terms overflow a float"),
    (CHAIN, "divergence-demo", {"N": 16, "a": 1e307, "n_bands": 1}, {}, 3,
     "NonFiniteResult: the truncated <r> of the window W = 64 is inf: W a is past the float "
     "range"),
    (CHAIN, "divergence-demo", {"N": 16, "a": 1.0, "n_bands": 1}, {"window": 10 ** 400}, 3,
     f"NonFiniteResult: the truncated <r> of the window W = {10 ** 400} is inf"),
    (CHAIN, "divergence-demo", {"N": 16, "a": 1.0, "n_bands": 1}, {"windows": [8, 10 ** 400]}, 3,
     f"NonFiniteResult: the truncated <r> of the window W = {10 ** 400} is inf"),
    (CHAIN, "divergence-demo", {"N": 16, "a": 1.0, "n_bands": 1},
     {"windows": [8, 10 ** 400], "centering": "centered"}, 3,
     f"NonFiniteResult: the window W = {10 ** 400} is past the float range"),
], ids=["overflow-exit-2", "gap-closing-pump-exit-3", "loop-on-band-touching-exit-3",
        "zero-hopping-and-mass-exit-3", "berry-phase-two-points-exit-3",
        "gauge-audit-two-points-exit-3", "pump-two-points-exit-3", "crossing-bands-exit-3",
        "zero-hamiltonian-exit-3", "scalar-hamiltonian-exit-3", "shift-current-overflows-exit-3",
        "truncation-window-overflows-exit-3", "window-past-the-float-range-exit-3",
        "windows-past-the-float-range-exit-3", "centered-windows-past-the-float-range-exit-3"])
def test_failed_run_creates_no_output_directory(tmp_path, capsys, model, task, lattice, params,
                                                code, error):
    """Errors found only while a task runs leave nothing behind: the output
    directory is created after the task succeeds."""
    out = tmp_path / "not-yet"
    cfg = base_config(task, tmp_path / "unused", model=model, lattice=lattice, **params)
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--outdir", str(out)]) == code
    if error is not None:
        assert error in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, top, key", [
    ({"hamiltonian": [["exp(1000*k)", "0"], ["0", "-1"]]}, {}, "model.hamiltonian"),
    ({"hamiltonian": [["0/k", "1"], ["1", "0"]]}, {}, "model.hamiltonian"),
    ({"hamiltonian": [["1", "0"], ["0", "sqrt(k-1)"]]}, {}, "model.hamiltonian"),
    ({"angles": {"theta": "1.1", "phi": "j*k"}}, {}, "model.angles.phi"),
    ({"angles": {"theta": "1.1", "phi": "k", "dtheta": "0*k", "dphi": "0/k"}}, {},
     "model.angles: angle derivatives produced non-finite values"),
    (None, {"seed": -1}, "seed"),
], ids=["hamiltonian-overflow", "hamiltonian-zero-over-zero", "hamiltonian-sqrt-negative",
        "complex-angle", "nan-angle-derivative", "negative-seed"])
def test_bad_model_values_exit_2_naming_key(tmp_path, capsys, model, top, key):
    """Non-finite Hamiltonian entries and angle derivatives, complex angles
    and negative seeds are config errors, found before any output is written."""
    out = tmp_path / "out"
    cfg = {**base_config("gauge-audit", out, model=model, seeds=2), **top}
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_override_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config("gauge-audit", out, seeds=2)
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--seed", "-5"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_removed_workers_flag_exits_2(tmp_path, capsys):
    """``--workers`` is no longer an option: argparse refuses it with exit
    2 before the config is read, so no output directory is made."""
    out = tmp_path / "out"
    cfg = base_config("gauge-audit", out, seeds=2)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(write_config(tmp_path, cfg)), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not out.exists()


def test_incompleteness_gram_guard_exits_3(tmp_path, capsys, monkeypatch):
    """A worst Gram off-diagonal at or above the recorded gram_off_diag
    tolerance, 1e-10 x N, stops the run with exit 3, naming n_max, N and
    the value."""
    monkeypatch.setattr("crmatrix.divergence.gapped_basis_gram",
                        lambda n_max, n, a, samples: (None, 5e-10))
    out = tmp_path / "out"
    cfg = base_config("incompleteness", out, orthogonality={"n_max": 3, "N": 5})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err
    assert "NumericalGuardError" in err
    assert "worst Gram off-diagonal 5.000e-10 at orthogonality n_max 3, N 5" in err
    assert not out.exists()


def test_incompleteness_gram_limit_scales_with_n(tmp_path):
    """The Gram diagonal is N, so its off-diagonal round-off grows with N
    (1.2e-10 at N = 1024); the limit grows with it and the run passes."""
    out = tmp_path / "out"
    cfg = base_config("incompleteness", out, n_max_list=[1], samples=64,
                      orthogonality={"n_max": 1, "N": 1024})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    tolerance = json.loads((out / "manifest.json").read_text())["tolerances"]["gram_off_diag"]
    assert tolerance == 1e-10 * 1024
    assert float(read_csv(out / "orthogonality.csv")[1][2]) < tolerance


def test_centered_divergence_demo_passes_fit_guard(tmp_path):
    """Centered windows hold the truncated value flat; the fit guard must
    not read round-off in that flat sequence as a bad fit."""
    cfg = base_config("divergence-demo", tmp_path / "out", model=CHAIN,
                      lattice={"N": 16, "a": 7.3, "n_bands": 1}, centering="centered")
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0


def test_windows_past_int64_run(tmp_path):
    """Windows are kept as the config's ints: W = 2**63, past int64, runs
    and is written as it was given."""
    out = tmp_path / "out"
    cfg = base_config("divergence-demo", out, model=CHAIN,
                      lattice={"N": 16, "a": 1.0, "n_bands": 1}, windows=[8, 2 ** 63])
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    rows = read_csv(out / "truncation.csv")
    assert [row[0] for row in rows] == ["W", "8", str(2 ** 63)]
    assert rows[2][1] == "4.6116860184273879e+18"


def test_truncation_fit_guard_exits_3(tmp_path, capsys, monkeypatch):
    """A truncation fit with R^2 below the recorded fit_r2 tolerance stops
    the run with exit 3."""
    real = cli.divergence.truncated_position_expectation
    monkeypatch.setattr("crmatrix.divergence.truncated_position_expectation",
                        lambda *args: dataclasses.replace(real(*args), r_squared=0.99))
    out = tmp_path / "out"
    cfg = base_config("divergence-demo", out, model=CHAIN)
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err
    assert "NumericalGuardError" in err
    assert "truncation fit R^2 0.990000 is below 0.999" in err
    assert not out.exists()


def test_pump_guard_names_k_and_lambda_index(tmp_path, capsys):
    """At mu = 0 the qwz gap closes at (k, lambda) = (0, 1/2) and (pi, 0);
    the guard names the first of these points by both of its indices."""
    out = tmp_path / "out"
    cfg = base_config("pump", out, model={"preset": "qwz-pump", "params": {"mu": 0.0}})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err
    assert "DegenerateRibbon" in err
    assert "k index 0, lambda index 8" in err
    assert not out.exists()


@pytest.mark.parametrize("model, expressions", [
    ({"hamiltonian": [["cos(k)", "sin(k)"], ["sin(k)", "-cos(k)"]]}, 4),
    ({"angles": {"theta": "1.1 + 0.4*cos(k*a)", "phi": "k*a"}}, 2),
], ids=["hamiltonian", "angles"])
def test_each_expression_compiled_once_per_run(tmp_path, monkeypatch, model, expressions):
    compiled, compile_expr = [], cli._compile_expr
    monkeypatch.setattr(cli, "_compile_expr",
                        lambda expr, path: compiled.append(path) or compile_expr(expr, path))
    cfg = base_config("connection", tmp_path / "out", model=model)
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert len(compiled) == len(set(compiled)) == expressions


def test_load_config_parses_defaults_like_given_values(tmp_path):
    cfg = base_config("shift-current", tmp_path / "out", model=GRAPHENE, eta=1)
    ctx = load_config(write_config(tmp_path, cfg))
    assert ctx.spec == LatticeSpec(n_cells=16, lattice_constant=1.0, n_bands=2)
    assert ctx.seed == 7
    np.testing.assert_array_equal(ctx.params["frequencies"], np.linspace(0.5, 4.0, 176))
    np.testing.assert_array_equal(ctx.params["amplitude"], 1.0)
    assert ctx.params["eta"] == 1
    assert ctx.params["fillings"] is None
    cfg["task"]["params"]["fillings"] = [0, 1]
    ctx = load_config(write_config(tmp_path, cfg))
    np.testing.assert_array_equal(ctx.params["fillings"].fillings, [0.0, 1.0])


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"A config is a single JSON file:\s*```json\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.json"
    path.write_text(example.group(1))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--outdir", str(out)]) == 0
    assert len(read_csv(out / "spectrum.csv")) == 102


def round_off_table(s):
    """Hermitian in exact arithmetic; the two off-diagonal expressions round
    differently, a defect of about 4e-12 at s = 1e5."""
    return [[f"{s!r}", f"{s!r}*0.3*exp(1j*k)*exp(1j*k)"], [f"{s!r}*0.3*exp(-2j*k)", f"-{s!r}"]]


def gapped_table(s):
    """Eigenvalues -s and +s at every k: a relative gap of 2."""
    return [[f"{s!r}*cos(k)", f"{s!r}*sin(k)"], [f"{s!r}*sin(k)", f"-{s!r}*cos(k)"]]


@pytest.mark.parametrize("table, s", [(round_off_table, 1e5), (gapped_table, 1e-9)],
                         ids=["hermiticity-round-off-at-1e5", "gap-at-1e-9"])
def test_eigen_guards_do_not_depend_on_the_units_of_h(tmp_path, table, s):
    """The Hermiticity and gap limits scale with the stack, so a model
    scaled by s runs as it does at s = 1 and gives the same ribbon."""
    fields = []
    for scale in (1.0, s):
        path = write_config(tmp_path, base_config("connection", tmp_path / repr(scale),
                                                  model={"hamiltonian": table(scale)}))
        assert main(["run", "--config", str(path)]) == 0
        fields.append(load_config(path).field())
    assert np.max(np.abs(fields[1].coeffs - fields[0].coeffs)) < 1e-14


def test_shift_modulus_limit_scales_with_the_lattice_constant(tmp_path):
    """|r_mn| is a length: at a = 1e-12 the graphene loop keeps every point
    (skipped fraction 0, as at a = 1) and the manifest records 1e-10 * a."""
    spectra = []
    for a in (1.0, 1e-12):
        out = tmp_path / repr(a)
        cfg = base_config("shift-current", out, model={"preset": "graphene-ribbon",
                                                       "params": {"mass": 0.3}},
                          lattice={"N": 32, "a": a, "n_bands": 2})
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        rows = np.array(read_csv(out / "spectrum.csv")[1:], dtype=float)
        assert np.all(rows[:, 2] == 0.0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tolerances"]["shift_modulus"] == 1e-10 * a
        spectra.append(rows[:, 1])
    assert np.any(spectra[1] != 0.0)
