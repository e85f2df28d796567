import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from crmatrix import LatticeSpec, cli
from crmatrix.cli import list_presets, load_config, main


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


def test_every_task_csv_schema(tmp_path):
    # headers must match the documented schemas exactly
    expected = {
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
    models = {
        "pump": {"preset": "qwz-pump"},
        "shift-current": {"preset": "graphene-ribbon", "params": {"mass": 0.3}},
        "divergence-demo": {"preset": "vacuum-gap-chain"},
        "incompleteness": {"preset": "vacuum-gap-chain"},
    }
    for i, (task, files) in enumerate(expected.items()):
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
        for name, header in files.items():
            assert read_csv(out / name)[0] == header, (task, name)


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


@pytest.mark.parametrize("task, model, params, top, key", [
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
], ids=["seeds-type", "band-range", "n_lambda-zero", "preset-param-typo", "task-param-typo",
        "workers-key", "pump-keyword-not-a-model-param", "task-name-list", "preset-list",
        "eta-zero", "centering", "windows-decreasing", "frequencies-decreasing",
        "frequency-count-type", "fillings-range", "fillings-length", "orthogonality-n_max-type",
        "scale-type", "amplitude-type", "amplitude-length", "theta-range",
        "two-band-preset-3-bands", "angles-3-bands", "pump-3-bands", "graphene-3-bands"])
def test_malformed_params_exit_2_naming_key(tmp_path, capsys, task, model, params, top, key):
    out = tmp_path / "out"
    cfg = {**base_config(task, out, model=model, **params), **top}
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("model, task, code", [
    ({"angles": {"theta": "1.1", "phi": "k*a + 9**9**9**9"}}, "connection", 2),
    ({"preset": "qwz-pump", "params": {"mu": 0.0}}, "pump", 3),
    ({"preset": "graphene-ribbon", "params": {"radius": 0}}, "connection", 3),
    ({"preset": "graphene-ribbon", "params": {"hopping": 0}}, "crm", 3),
], ids=["overflow-exit-2", "gap-closing-pump-exit-3", "loop-on-band-touching-exit-3",
        "zero-hopping-and-mass-exit-3"])
def test_failed_run_creates_no_output_directory(tmp_path, capsys, model, task, code):
    """Errors found only while a task runs leave nothing behind: the output
    directory is created after the task succeeds."""
    out = tmp_path / "not-yet"
    cfg = base_config(task, tmp_path / "unused", model=model)
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--outdir", str(out)]) == code
    if code == 3:
        assert "DegenerateRibbon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, top, key", [
    ({"hamiltonian": [["exp(1000*k)", "0"], ["0", "-1"]]}, {}, "model.hamiltonian"),
    ({"hamiltonian": [["0/k", "1"], ["1", "0"]]}, {}, "model.hamiltonian"),
    ({"hamiltonian": [["1", "0"], ["0", "sqrt(k-1)"]]}, {}, "model.hamiltonian"),
    ({"angles": {"theta": "1.1", "phi": "j*k"}}, {}, "model.angles.phi"),
    (None, {"seed": -1}, "seed"),
], ids=["hamiltonian-overflow", "hamiltonian-zero-over-zero", "hamiltonian-sqrt-negative",
        "complex-angle", "negative-seed"])
def test_bad_model_values_exit_2_naming_key(tmp_path, capsys, model, top, key):
    """Non-finite Hamiltonian entries, complex angles and negative seeds are
    config errors, found before any output is written."""
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
    tolerance stops the run with exit 3, naming n_max, N and the value."""
    monkeypatch.setattr("crmatrix.divergence.gapped_basis_gram",
                        lambda n_max, n, a, samples: (None, 1e-10))
    out = tmp_path / "out"
    cfg = base_config("incompleteness", out, orthogonality={"n_max": 3, "N": 5})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err
    assert "NumericalGuardError" in err
    assert "worst Gram off-diagonal 1.000e-10 at orthogonality n_max 3, N 5" in err
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
