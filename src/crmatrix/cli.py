"""Config-driven command line front end.

``crmatrix run --config run.json`` executes one named task and writes CSV
files plus a manifest into the output directory; ``crmatrix list-presets``
prints the shipped model presets.  Exit codes: 0 success, 2 config error or
a size past the memory the machine can allocate, 3 numerical guard tripped.
The output directory is ``--outdir``, else ``output.directory`` (each must
be non-empty), else a non-empty CRMATRIX_OUTDIR, else ``crmatrix-out``.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import divergence, gauge, io, presets, transport
from .errors import ConfigError, NumericalGuardError
from .model import (BlochField, LatticeSpec, _first, _where, build_kgrid,
                    eigenfield_from_stack, two_band_field)
from .rmatrix import (ZERO_OVERLAP_TOL, berry_connection, position_matrix,
                      reduced_position_matrix)

_EXPR_NAMES = {
    "pi": np.pi, "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs, "arccos": np.arccos, "arcsin": np.arcsin,
    "arctan": np.arctan, "angle": np.angle, "cosh": np.cosh, "sinh": np.sinh,
    "j": 1j,
}
#: the names an expression may use other than as the function of a call
_EXPR_VALUES = ("pi", "j", "k", "a")
_EXPR_NODES = (ast.Expression, ast.Load, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult,
               ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.UAdd, ast.USub)


def _integer_only(node) -> bool:
    return all(isinstance(n, (ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
               or isinstance(n, ast.Constant) and type(n.value) is int for n in ast.walk(node))


def _compile_expr(expr, path: str):
    """Compile one numeric expression in ``k`` and ``a``.

    Only numbers, ``k``, ``a``, ``pi``, ``j``, arithmetic operators and
    keyword-free calls of the functions in ``_EXPR_NAMES`` pass; anything
    else (attributes, subscripts, lambdas, comprehensions, a bare function
    name) is a ConfigError naming ``path``, so a config can never run code.
    A power of integers is taken in floats: exact integer powers such as
    ``9**9**9**9`` would run for ever, float ones overflow at once.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is not an expression: {expr!r}") from exc
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if not (isinstance(node, _EXPR_NODES)
                or isinstance(node, ast.Constant) and type(node.value) in (int, float, complex)
                or isinstance(node, ast.Name) and (callable(_EXPR_NAMES.get(node.id))
                                                   if id(node) in called
                                                   else node.id in _EXPR_VALUES)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and not node.keywords):
            raise ConfigError(f"{path}: {type(node).__name__} not allowed in {expr!r}")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _integer_only(node):
            for leaf in ast.walk(node):
                if isinstance(leaf, ast.Constant):
                    leaf.value = float(leaf.value)
    return compile(tree, path, "eval")


def _eval_expr(code, **variables):
    """Evaluate a compiled expression; numpy's floating-point warnings are
    off, because the model checks reject non-finite values."""
    try:
        with np.errstate(all="ignore"):
            return eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, **variables})
    except Exception as exc:
        raise ConfigError(f"cannot evaluate {code.co_filename}: {exc}") from exc


def _library_rule(path: str, rule: Callable, *args, **kwargs):
    """``rule(*args, **kwargs)``: a library constructor or check applied to
    config values, whose ValueError, TypeError, OverflowError or
    FloatingPointError becomes a ConfigError naming ``path``."""
    try:
        return rule(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigError(f"{path} overflows a float: {exc}") from exc


def _real_angle(code, key: str, k: np.ndarray, a: float) -> np.ndarray:
    """An angle expression on the k array; a nonzero imaginary part is a
    ConfigError naming the key and the first such point."""
    values = np.broadcast_to(_eval_expr(code, k=k, a=a), np.shape(k))
    if np.any(np.imag(values) != 0):
        at = _first(np.imag(values) != 0)
        raise ConfigError(f"model.angles.{key} is complex at {_where(at)}: {values[at]}")
    return np.real(values).astype(float)


def _model_builder(model: dict, params: dict, spec: LatticeSpec) -> Callable[..., BlochField]:
    """Compile the expressions of a model section, so a bad one is a
    ConfigError naming its key, and return the builder of its field.  The
    builder evaluates each expression once on the k array and applies the
    library's own checks to the evaluated model (theta within [0, pi], a
    finite Hermitian table, ...), naming the model section, or the one
    given preset parameter; keywords (``n_lambda``) go to the preset."""
    grid, a = build_kgrid(spec), spec.lattice_constant
    if "angles" in model:
        codes = {key: _compile_expr(expr, f"model.angles.{key}")
                 for key, expr in model["angles"].items()}
        return lambda: _library_rule("model.angles", two_band_field, grid, **{
            key: _real_angle(code, key, grid.points, a) for key, code in codes.items()})
    if "hamiltonian" in model:
        table, nb = model["hamiltonian"], spec.n_bands
        if (not isinstance(table, list) or len(table) != nb
                or any(not isinstance(row, list) or len(row) != nb for row in table)):
            raise ConfigError(f"model.hamiltonian must be a {nb}x{nb} matrix of expressions")
        codes = [[_compile_expr(expr, f"model.hamiltonian[{i}][{j}]")
                  for j, expr in enumerate(row)] for i, row in enumerate(table)]

        def stack():
            hk = np.empty((grid.n, nb, nb), dtype=complex)
            for i, row in enumerate(codes):
                for j, code in enumerate(row):
                    hk[:, i, j] = _eval_expr(code, k=grid.points, a=a)
            return hk

        return lambda: _library_rule("model.hamiltonian", eigenfield_from_stack, stack(), grid)
    builder = presets.PRESETS[model["preset"]].builder
    where = f"model.params.{next(iter(params))}" if len(params) == 1 else "model.params"
    return lambda **kw: _library_rule(where, builder, spec, **kw, **params)


# -- schema ------------------------------------------------------------------

def _check_keys(section: dict, path: str, allowed: dict):
    """Reject unknown keys and missing required keys, naming the dotted path."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigError(f"missing required key {path}.{key}")


def _integer(value, path: str, low: int = 1, high=None) -> int:
    """An integer in low..high-1 (no upper bound when ``high`` is None)."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < low
            or high is not None and value >= high):
        raise ConfigError(f"{path} must be an integer >= {low}" if high is None
                          else f"{path} must be an integer in {low}..{high - 1}")
    return value


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path} must be a number")
    return _library_rule(path, float, value)


def _check_finite(value, path: str):
    """Reject a non-finite number (JSON's ``NaN``, ``Infinity``, ``1e400``)
    anywhere in the config, naming its path, e.g. ``task.params.frequencies[1]``."""
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, not {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")


def _task_params(params: dict, table: dict, spec: LatticeSpec) -> dict:
    """Each task.params value parsed by its check: the given ones in config
    order, then the defaults of the rest; a None default stays unset."""
    _check_keys(params, "task.params", dict.fromkeys(table, False))
    if {"band", "bands"} <= params.keys():
        raise ConfigError("task.params.band and task.params.bands exclude each other")
    parsed = {key: table[key][1](value, f"task.params.{key}", spec)
              for key, value in params.items()}
    for key, (default, check) in table.items():
        if key not in parsed:
            parsed[key] = None if default is None else check(default, f"task.params.{key}", spec)
    return parsed


class Context(NamedTuple):
    """A parsed run config, and a task handler's one argument: the config
    as read (for the manifest), its lattice, the builder of its model
    field (or pump family), its parsed task parameters, its seed, its task
    name and its output directory.  Handlers return (outputs, tolerances);
    outputs maps each file name, in manifest order, to its table
    {column name: column} for :func:`io.write_csv`."""

    cfg: dict
    spec: LatticeSpec
    field: Callable[..., BlochField]
    params: dict
    seed: int
    task: str
    outdir: Path


def load_config(path: Path) -> Context:
    """Read, validate and parse a run config; every error is a ConfigError
    naming the dotted key, raised before anything is written."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _check_finite(cfg, "")
    _check_keys(cfg, "config", {"lattice": True, "model": True, "task": True,
                                "output": False, "seed": False})
    lat = cfg["lattice"]
    _check_keys(lat, "lattice", {"N": True, "a": True, "n_bands": True, "origin": False})
    try:
        spec = LatticeSpec(_integer(lat["N"], "lattice.N"), _number(lat["a"], "lattice.a"),
                           _integer(lat["n_bands"], "lattice.n_bands"),
                           _number(lat.get("origin", 0.0), "lattice.origin"))
    except ValueError as exc:  # LatticeSpec's message starts with the field at fault
        key = {"n_cells": "N", "lattice_constant": "a", "n_bands": "n_bands",
               "origin": "origin"}[str(exc).split()[0]]
        raise ConfigError(f"lattice.{key}: {exc}") from exc

    model = cfg["model"]
    _check_keys(model, "model", {"preset": False, "params": False,
                                 "angles": False, "hamiltonian": False})
    if sum(k in model for k in ("preset", "angles", "hamiltonian")) != 1:
        raise ConfigError("model needs exactly one of model.preset, model.angles, model.hamiltonian")
    if "angles" in model:
        _check_keys(model["angles"], "model.angles",
                    {"theta": True, "phi": True, "dtheta": False, "dphi": False})
        # analytic derivatives replace both central differences or neither
        for given, needed in (("dtheta", "dphi"), ("dphi", "dtheta")):
            if given in model["angles"] and needed not in model["angles"]:
                raise ConfigError(f"missing key model.angles.{needed}: "
                                  f"model.angles.{given} needs it")
    if "preset" in model and (not isinstance(model["preset"], str)
                              or model["preset"] not in presets.PRESETS):
        raise ConfigError(f"model.preset must be one of {sorted(presets.PRESETS)}")
    preset = presets.PRESETS.get(model.get("preset"))
    _check_keys(model.get("params", {}), "model.params",
                dict.fromkeys(preset.params if preset else (), False))
    model_params = {key: _number(value, f"model.params.{key}")
                    for key, value in model.get("params", {}).items()}
    kind = model.get("preset") or ("angles" if "angles" in model else "hamiltonian")
    n_bands = 2 if kind == "angles" else preset and preset.n_bands
    if n_bands is not None and spec.n_bands != n_bands:
        raise ConfigError(f"lattice.n_bands must be {n_bands} for model {kind!r}")
    field = _model_builder(model, model_params, spec)

    task = cfg["task"]
    _check_keys(task, "task", {"name": True, "params": False})
    if not isinstance(task["name"], str) or task["name"] not in TASKS:
        raise ConfigError(f"task.name must be one of {tuple(TASKS)}")
    entry = TASKS[task["name"]]
    if entry.models is not None and kind not in entry.models:
        where = f"model.preset {kind!r}" if "preset" in model else f"model.{kind}"
        raise ConfigError(f"{where} cannot run task {task['name']}, which accepts "
                          + ", ".join(entry.models))
    params = _task_params(task.get("params", {}), entry.params, spec)
    outdir = os.environ.get("CRMATRIX_OUTDIR") or "crmatrix-out"
    if "output" in cfg:
        _check_keys(cfg["output"], "output", {"directory": True})
        outdir = cfg["output"]["directory"]
        if not isinstance(outdir, str) or not outdir:
            raise ConfigError("output.directory must be a non-empty string")
    seed = _integer(cfg["seed"], "seed", 0) if "seed" in cfg else 0
    return Context(cfg, spec, field, params, seed, task["name"], Path(outdir))


# -- tasks -------------------------------------------------------------------

class _IndexColumn:
    """Index ``axis`` of every entry of an array of shape ``shape``, in C
    order, as a column that :func:`io.write_csv` slices a block of rows at a
    time, so no index of the whole table is held.  The index columns of one
    table share ``blocks``, the indices of the last block on every axis,
    made from one arange of its rows and the axis strides."""

    def __init__(self, shape: tuple, axis: int, blocks: dict):
        self.rows, self.shape, self.axis, self.blocks = math.prod(shape), shape, axis, blocks

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.rows)
        if (start, stop) not in self.blocks:
            row = np.arange(start, stop)
            # row // stride of axis a is that of axis a - 1 times extent a, plus index a
            quotients = [row // math.prod(self.shape[axis + 1:]) for axis in range(len(self.shape))]
            self.blocks.clear()
            self.blocks[start, stop] = [quotient - outer * extent for quotient, outer, extent
                                        in zip(quotients, [0, *quotients], self.shape)]
        return self.blocks[start, stop][self.axis]


def _complex_table(values: np.ndarray, *index_names: str) -> dict:
    """One row per entry of ``values`` in C order: its indices, then its
    real and imaginary parts."""
    flat, blocks = values.reshape(-1), {}
    return {**{name: _IndexColumn(values.shape, axis, blocks)
               for axis, name in enumerate(index_names)},
            "re": flat.real, "im": flat.imag}


def _task_crm(ctx: Context):
    pm = position_matrix(ctx.field())
    print(f"hermiticity check: pass (defect {pm.hermiticity_defect:.3e})")
    nb, n = pm.n_bands, pm.grid.n
    return ({"crm.csv": _complex_table(pm.entries.reshape(nb, n, nb, n), "m", "p", "n", "q")},
            {"crm_hermiticity": pm.hermiticity_tol})


def _task_connection(ctx: Context):
    field = ctx.field()
    conn = berry_connection(field)
    return ({"connection.csv": _complex_table(conn.values, "p", "m", "n"),
             "reduced_r.csv": _complex_table(reduced_position_matrix(field, conn).values,
                                             "p", "m", "n")},
            {})


def _task_berry_phase(ctx: Context):
    field, bands = ctx.field(), ctx.params["bands"]
    bands = [ctx.params["band"]] if bands is None else bands
    return ({"berry_phase.csv": {"band": bands,
                                 "theta": [gauge.berry_phase(field, b) for b in bands]}},
            {"zero_overlap": ZERO_OVERLAP_TOL})


def _task_gauge_audit(ctx: Context):
    reports = _library_rule("task.params.scale", gauge.gauge_audit, ctx.field(), ctx.seed,
                            **ctx.params)
    before = np.array([r.before for r in reports], dtype=complex)
    after = np.array([r.after for r in reports], dtype=complex)
    table = {"name": [r.name for r in reports], "band": [r.band for r in reports],
             "seed": [r.seed for r in reports], "before_re": before.real,
             "before_im": before.imag, "after_re": after.real, "after_im": after.imag,
             "delta": [r.delta for r in reports],
             "invariant": [int(r.invariant) for r in reports]}
    # the manifest lists the loop tolerances; the pointwise value moves by design
    return ({"gauge_audit.csv": table},
            {r.name: r.tolerance for r in reports[:4] if r.name != "diagonal_value"})


def _task_shift_current(ctx: Context):
    params = ctx.params
    # frequencies and eta passed their checks; the amplitude's length or square can still fail
    drive = _library_rule("task.params.amplitude", transport.DriveSpec,
                          params["frequencies"], params["amplitude"], params["eta"])
    result = transport.shift_current_spectrum(ctx.field(), params["fillings"], drive)
    print(f"skipped shift-undefined fraction: {result.skipped_fraction:.4f}")
    skipped = np.full(len(result.frequencies), result.skipped_fraction)
    return ({"spectrum.csv": {"omega": result.frequencies, "J_s": result.currents,
                              "skipped_fraction": skipped}},
            {"shift_modulus": transport.SHIFT_MODULUS_TOL * ctx.spec.lattice_constant})


def _task_pump(ctx: Context):
    band, family = ctx.params["band"], ctx.field(n_lambda=ctx.params["n_lambda"])
    pump = transport.pumped_charge(family, band)
    oracle = transport.chern_number(family, band)
    print(f"pumped charge {pump.delta_q:+.6f}, plaquette invariant {oracle.value:+d}")
    return ({"pump.csv": {"lambda": pump.lambdas, "P": pump.polarization,
                          "Q_cumulative": pump.cumulative_charge},
             "oracle.csv": {"preset": ["qwz-pump"], "band": [band], "chern": [oracle.value],
                            "residue": [oracle.residue]}},
            {"chern_residue": transport.CHERN_RESIDUE_LIMIT})


def _task_divergence(ctx: Context):
    params, a = ctx.params, ctx.spec.lattice_constant
    cell = divergence.SampledCellFunction.from_callable(
        lambda r: np.sin(2.0 * np.pi * r / a) ** 2, a, params["samples"]).normalized()
    study = divergence.truncated_position_expectation(cell, params["windows"],
                                                      params["centering"])
    if not study.r_squared >= divergence.MIN_FIT_R2:
        raise NumericalGuardError(f"truncation fit R^2 {study.r_squared:.6f} is below "
                                  f"{divergence.MIN_FIT_R2:g}")
    audit = divergence.translation_audit(cell, params["window"], params["centering"])
    print(f"truncation slope {study.slope:.6f} (R^2 {study.r_squared:.6f}); "
          f"translation shift {audit.measured_shift:+.6f}")
    return ({"truncation.csv": {"W": study.windows, "value": study.values},
             "translation.csv": {"before": [audit.before], "after": [audit.after],
                                 "predicted_shift": [audit.predicted_shift]}},
            {"fit_r2": divergence.MIN_FIT_R2})


def _task_incompleteness(ctx: Context):
    params, a = ctx.params, ctx.spec.lattice_constant
    target = divergence.SampledCellFunction.from_callable(
        lambda r: np.where(r > a / 2.0, 1.0, 0.0), a, params["samples"]).normalized()
    residuals = [divergence.projection_residual(target, nm) for nm in params["n_max_list"]]
    ortho = params["orthogonality"]
    tol = divergence.GRAM_OFF_DIAGONAL_TOL * ortho["N"]
    _, worst = divergence.gapped_basis_gram(ortho["n_max"], ortho["N"], a, params["samples"])
    if not worst < tol:
        raise NumericalGuardError(f"worst Gram off-diagonal {worst:.3e} at orthogonality n_max "
                                  f"{ortho['n_max']}, N {ortho['N']} is not below {tol:g}")
    print(f"gap-supported residuals all {residuals[-1]:.12f}; "
          f"worst Gram off-diagonal {worst:.3e}")
    return ({"residual.csv": {"n_max": params["n_max_list"], "residual": residuals},
             "orthogonality.csv": {"n_max": [ortho["n_max"]], "N": [ortho["N"]],
                                   "worst_off_diagonal": [worst]}},
            {"gram_off_diag": tol})


class Int(NamedTuple):
    """Check of an integer task parameter: at least ``low`` and below the
    LatticeSpec field named ``high`` (unbounded when None); ``many`` wants
    a non-empty list of such integers."""

    low: int
    high: Optional[str] = None
    many: bool = False

    def __call__(self, value, path: str, spec: LatticeSpec):
        if self.many and not (isinstance(value, list) and value):
            raise ConfigError(f"{path} must be a non-empty list")
        for item in value if self.many else [value]:
            _integer(item, path, self.low, self.high and getattr(spec, self.high))
        return value


# Checks of the other task parameters: check(value, path, spec) returns the
# parsed value or raises a ConfigError naming ``path``; where the library
# has a rule, it applies it.

def _real(value, path: str, spec: LatticeSpec) -> float:
    return _number(value, path)


def _reals(value, path: str, spec: LatticeSpec) -> np.ndarray:
    return _library_rule(path, np.asarray, value, dtype=float)


def _frequencies(value, path: str, spec: LatticeSpec) -> np.ndarray:
    """The drive frequencies of a ``{"start", "stop", "count"}`` object or
    a list, strictly increasing by DriveSpec's rule."""
    if isinstance(value, dict):
        _check_keys(value, path, {"start": True, "stop": True, "count": True})
        value = np.linspace(_number(value["start"], f"{path}.start"),
                            _number(value["stop"], f"{path}.stop"),
                            _integer(value["count"], f"{path}.count", 0))
    return _library_rule(path, transport.DriveSpec, value, 1.0, 1.0).frequencies


def _broadening(value, path: str, spec: LatticeSpec):
    return _library_rule(path, transport.DriveSpec, [1.0], 1.0, value).broadening


def _fillings(value, path: str, spec: LatticeSpec) -> Optional[transport.OccupationSpec]:
    if value is None:
        return None
    occupation = _library_rule(path, transport.OccupationSpec, value)
    if occupation.fillings.shape not in ((spec.n_bands,), (spec.n_cells, spec.n_bands)):
        raise ConfigError(f"{path} must hold one filling per band, or an N x n_bands table")
    return occupation


def _windows(value, path: str, spec: LatticeSpec):
    Int(1, many=True)(value, path, spec)
    _library_rule(path, divergence.check_windows, value)
    return value


def _centering(value, path: str, spec: LatticeSpec):
    if value not in divergence.CENTERINGS:
        raise ConfigError(f"{path} must be one of {divergence.CENTERINGS}")
    return value


def _orthogonality(value, path: str, spec: LatticeSpec):
    _check_keys(value, path, {"n_max": True, "N": True})
    for key, item in value.items():
        _integer(item, f"{path}.{key}")
    return value


class Task(NamedTuple):
    """A task's handler, the model kinds it runs on (None: any, unused),
    and its task.params keys, each with its (default, check)."""

    handler: Callable[[Context], tuple]
    models: Optional[tuple]
    params: dict


_FIELD_MODELS = ("identity", "two-band-generic", "graphene-ribbon", "angles", "hamiltonian")
_ENERGY_MODELS = ("two-band-generic", "graphene-ribbon", "hamiltonian")
_BAND, _COUNT = Int(0, "n_bands"), Int(1)
_SAMPLES = (divergence.DEFAULT_SAMPLES, Int(divergence.MIN_SAMPLES))

TASKS = {
    "crm": Task(_task_crm, _FIELD_MODELS, {}),
    "connection": Task(_task_connection, _FIELD_MODELS, {}),
    "berry-phase": Task(_task_berry_phase, _FIELD_MODELS,
                        {"band": (0, _BAND), "bands": (None, Int(0, "n_bands", many=True))}),
    "gauge-audit": Task(_task_gauge_audit, _FIELD_MODELS,
                        {"seeds": (20, _COUNT), "modes": (3, Int(0)), "scale": (0.2, _real),
                         "band": (0, _BAND), "kindex": (0, Int(0, "n_cells"))}),
    "shift-current": Task(_task_shift_current, _ENERGY_MODELS,
                          {"fillings": (None, _fillings), "amplitude": (1.0, _reals),
                           "eta": (0.02, _broadening),
                           "frequencies": ({"start": 0.5, "stop": 4.0, "count": 176},
                                           _frequencies)}),
    "pump": Task(_task_pump, ("qwz-pump",), {"n_lambda": (None, _COUNT), "band": (0, _BAND)}),
    "divergence-demo": Task(_task_divergence, None,
                            {"windows": ([8, 16, 32, 64, 128, 256], _windows),
                             "window": (32, _COUNT),
                             "centering": (divergence.FROM_ORIGIN, _centering),
                             "samples": _SAMPLES}),
    "incompleteness": Task(_task_incompleteness, None,
                           {"n_max_list": ([1, 2, 4, 8, 16, 32, 64], Int(1, many=True)),
                            "orthogonality": ({"n_max": 2, "N": 4}, _orthogonality),
                            "samples": _SAMPLES}),
}


def run(ctx: Context, verbose: bool = False) -> int:
    """Run the task of the :class:`Context` that :func:`load_config`
    returned, then write its files and the manifest into its directory."""
    spec, outdir = ctx.spec, ctx.outdir
    outputs, tolerances = TASKS[ctx.task].handler(ctx)
    outdir.mkdir(parents=True, exist_ok=True)
    files = [(name, io.write_csv(outdir / name, table)) for name, table in outputs.items()]

    io.write_manifest(outdir, ctx.task, ctx.cfg, ctx.seed,
                      grids={"N": spec.n_cells, "a": spec.lattice_constant,
                             "n_bands": spec.n_bands},
                      tolerances=tolerances,
                      files=[(name, rows, rows.sha256) for name, rows in files])
    if verbose:
        for name, rows in files:
            print(f"wrote {outdir / name} ({rows} rows)")
    print(f"wrote {outdir / 'manifest.json'}")
    return 0


def list_presets() -> str:
    lines = [f"{name:18s} {preset.description}" for name, preset in presets.PRESETS.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="crmatrix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a task described by a JSON config")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--outdir", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument("-v", "--verbose", action="store_true")
    sub.add_parser("list-presets", help="print the shipped model presets")

    args = parser.parse_args(argv)
    if args.command == "list-presets":
        print(list_presets())
        return 0
    try:
        ctx = load_config(args.config)
        if args.seed is not None:
            ctx = ctx._replace(seed=_integer(args.seed, "--seed", 0))
        if args.outdir == "":
            raise ConfigError("--outdir must be a non-empty string")
        if args.outdir:
            ctx = ctx._replace(outdir=Path(args.outdir))
        return run(ctx, verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's text names the array it could not allocate
        print(f"config error: the run needs more memory than the machine can allocate: {exc}",
              file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
