"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from crmatrix import (BlochField, ConnectionField, DriveSpec, LatticeSpec,
                      OccupationSpec, apply_gauge_to_field,
                      berry_connection, berry_phase, build_kgrid,
                      chern_number, curvature_substitution_check, diagonal_loop,
                      diagonal_value, embedded_gram, gauge_transform,
                      position_matrix, position_momentum_commutator,
                      position_phase_sum, pump_family_from_angles,
                      pumped_charge, random_gauge_field,
                      reduced_position_matrix, shift_current_spectrum,
                      two_band_field)
from crmatrix.divergence import (FROM_ORIGIN, SampledCellFunction,
                                 gapped_cell_basis, projection_residual,
                                 truncated_position_expectation)
from crmatrix.presets import (generic_two_band, graphene_loop, identity_field,
                              qwz_pump)

from conftest import on_grid, smooth_angles, smooth_field


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_isomorphism_gram():
    t0 = time.perf_counter()
    worst = 0.0
    for i, n in enumerate((4, 8, 16)):
        f = smooth_field(n_cells=n, seed=100 + i, winding=i)
        g = embedded_gram(f)
        worst = max(worst, np.max(np.abs(g - np.eye(2 * n))))
    elapsed = time.perf_counter() - t0
    report(1, "product-basis Gram identity",
           worst < 1e-12 and elapsed < 1.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_closed_form_overlaps():
    t0 = time.perf_counter()
    spec = LatticeSpec(n_cells=64, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    angles = on_grid(smooth_angles(seed=7), grid)
    f = two_band_field(grid, *angles)
    th, ph = angles[:2]
    crm = position_matrix(f)
    s = position_phase_sum(grid)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        p, q = rng.choice(64, 2, replace=False)
        k = crm.block(p, q) / s[p, q]  # the overlap factor of a CRM block
        k11 = (np.cos(th[p] / 2) * np.cos(th[q] / 2)
               + np.sin(th[p] / 2) * np.sin(th[q] / 2) * np.exp(-1j * (ph[p] - ph[q])))
        k12 = (-np.cos(th[p] / 2) * np.sin(th[q] / 2) * np.exp(-1j * ph[q])
               + np.sin(th[p] / 2) * np.cos(th[q] / 2) * np.exp(-1j * ph[p]))
        worst = max(worst, abs(k[0, 0] - k11), abs(k[0, 1] - k12))
    elapsed = time.perf_counter() - t0
    report(2, "closed-form band overlaps",
           worst < 1e-12 and elapsed < 1.0,
           f"max |K - closed form| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_connection_closed_forms_and_convergence():
    angles = smooth_angles(seed=8)
    spec = LatticeSpec(n_cells=128, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    th, ph, dth, dph = on_grid(angles, grid)
    f = two_band_field(grid, th, ph, dth, dph)
    a = berry_connection(f).values
    off = -0.5j * np.exp(-1j * ph) * dth - 0.5 * np.sin(th) * np.exp(-1j * ph) * dph
    err_off = np.max(np.abs(a[:, 0, 1] - off))
    err_diag = np.max(np.abs(a[:, 0, 0] - (-np.sin(th / 2) ** 2 * dph)))

    fd_err = {}
    for n in (128, 256):
        s = LatticeSpec(n_cells=n, lattice_constant=1.0, n_bands=2)
        g = build_kgrid(s)
        fa = two_band_field(g, *on_grid(angles, g))
        ffd = BlochField(grid=g, coeffs=fa.coeffs)
        fd_err[n] = np.max(np.abs(berry_connection(fa).values
                                  - berry_connection(ffd).values))
    ratio = fd_err[128] / fd_err[256]
    report(3, "connection closed forms + quadratic convergence",
           err_off < 1e-12 and err_diag < 1e-12 and ratio >= 3.5,
           f"off-diag err {err_off:.2e}, diag err {err_diag:.2e}, ratio {ratio:.2f}")


def test_criterion_04_commutator_never_canonical():
    fields = [
        identity_field(LatticeSpec(n_cells=32, lattice_constant=1.0, n_bands=2)),
        generic_two_band(LatticeSpec(n_cells=32, lattice_constant=1.0, n_bands=2)),
        graphene_loop(LatticeSpec(n_cells=32, lattice_constant=1.0, n_bands=2)),
    ]
    worst = 0.0
    canonical_gap = []
    for f in fields:
        comm = position_momentum_commutator(f)
        worst = max(worst, np.max(np.abs(comm)))
        canonical_gap.append(np.min(np.linalg.norm(comm - 1j * np.eye(2), axis=(1, 2))))
    never_canonical = min(canonical_gap) > 1.0
    report(4, "position-momentum commutator identically zero",
           worst <= 1e-14 and never_canonical,
           f"max |[r,k]| {worst:.1e}, min distance from iI {min(canonical_gap):.3f}")


def test_criterion_05_berry_phase_winding_and_gauge():
    spec = LatticeSpec(n_cells=512, lattice_constant=1.0, n_bands=2)
    f = graphene_loop(spec)
    th = berry_phase(f, 0)
    err = abs(abs(th) - np.pi)

    # plaquette-style refinement oracle: wrapped overlap increments at two
    # resolutions must agree on the winding
    oracles = []
    for n in (512, 1024):
        fo = graphene_loop(LatticeSpec(n_cells=n, lattice_constant=1.0, n_bands=2))
        cols = fo.coeffs[:, :, 0]
        inc = np.angle(np.einsum("pl,pl->p", cols.conj(), np.roll(cols, -1, axis=0)))
        oracles.append(-np.sum(inc))
    oracle_err = abs(oracles[0] - oracles[1])

    worst = 0.0
    for seed in range(100):
        g = random_gauge_field(2, f.grid, modes=3, seed=seed, diagonal=True)
        after = berry_phase(apply_gauge_to_field(f, g), 0)
        worst = max(worst, abs(np.angle(np.exp(1j * (after - th)))))
    report(5, "winding-loop Berry phase",
           err < 1e-3 and oracle_err < 1e-3 and worst < 1e-9,
           f"|theta|-pi = {err:.2e}, oracle drift {oracle_err:.2e}, "
           f"gauge spread {worst:.2e}")


def test_criterion_06_functional_invariances():
    f = smooth_field(n_cells=256, seed=3)
    conn = berry_connection(f).values
    grid = f.grid

    loop_base = diagonal_loop(conn, 0, grid)
    worst_loop = 0.0
    for seed in range(100):
        g = random_gauge_field(2, grid, modes=3, seed=seed, scale=0.4, diagonal=True)
        worst_loop = max(worst_loop, abs(
            diagonal_loop(gauge_transform(conn, g), 0, grid) - loop_base))

    shift_err = {}
    for n in (128, 256):
        fn = smooth_field(n_cells=n, seed=3)
        cn = berry_connection(fn).values
        g = random_gauge_field(2, fn.grid, modes=3, seed=77, scale=0.4, diagonal=True)
        m2 = gauge_transform(cn, g)
        shift = np.array([diagonal_value(m2, 0, p) - diagonal_value(cn, 0, p)
                          for p in range(n)])
        shift_err[n] = np.max(np.abs(shift - g.generator_kderiv[:, 0, 0]))
    shift_ratio = shift_err[128] / shift_err[256]

    trace_err = {}
    for n in (128, 256):
        fn = smooth_field(n_cells=n, seed=4)
        cn = berry_connection(fn).values
        from crmatrix import trace_loop
        base = trace_loop(cn, fn.grid)
        worst = 0.0
        for seed in range(10):
            g = random_gauge_field(2, fn.grid, modes=2, seed=seed, scale=0.25)
            worst = max(worst, abs(trace_loop(gauge_transform(cn, g), fn.grid) - base))
        trace_err[n] = worst
    trace_ratio = trace_err[128] / trace_err[256]

    report(6, "observable functional invariances",
           worst_loop < 1e-9 and shift_err[256] < 5e-3 and shift_ratio >= 3.5
           and trace_err[256] < 1e-3 and trace_ratio >= 3.5,
           f"U(1) loop {worst_loop:.2e}, pointwise shift err {shift_err[256]:.2e} "
           f"(ratio {shift_ratio:.2f}), U(2) trace loop {trace_err[256]:.2e} "
           f"(ratio {trace_ratio:.2f})")


def test_criterion_07_local_failure_of_substitution():
    grid = build_kgrid(LatticeSpec(n_cells=256, lattice_constant=1.0, n_bands=2))
    fam = pump_family_from_angles(
        lambda k, lam: 1.0 + 0.3 * np.cos(k),
        lambda k, lam: k + 0.5 * np.sin(2 * np.pi * lam) * np.cos(k),
        grid, 64)
    chk = curvature_substitution_check(fam, 0)
    report(7, "curvature substitution fails locally, holds on loops",
           chk.max_abs_g > 1e-2 and chk.max_loop_mismatch < 1e-6,
           f"max |dk<phi|dl phi>| = {chk.max_abs_g:.3f}, "
           f"loop mismatch {chk.max_loop_mismatch:.2e}")


def test_criterion_08_divergence_demos():
    t0 = time.perf_counter()
    a = 1.0
    basis = gapped_cell_basis(1, a, 2048)
    cell = SampledCellFunction(values=basis[0].astype(complex),
                               lattice_constant=a).normalized()
    study = truncated_position_expectation(cell, [8, 16, 32, 64, 128, 256],
                                           FROM_ORIGIN)

    target = SampledCellFunction.from_callable(
        lambda r: np.where(r > a / 2, np.exp(-((r - 0.75) ** 2) / 0.002), 0.0),
        a, 2048).normalized()
    worst_resid = max(abs(projection_residual(target, nm) - 1.0)
                      for nm in (1, 2, 4, 8, 16, 32, 64))
    elapsed = time.perf_counter() - t0
    report(8, "truncation growth and representation gap",
           study.r_squared > 0.999 and study.slope > 0
           and worst_resid < 1e-12 and elapsed < 5.0,
           f"R^2 {study.r_squared:.5f}, slope {study.slope:.3f}, "
           f"gap residual departure {worst_resid:.1e}, {elapsed:.2f}s")


def test_criterion_09_transport_suite():
    t0 = time.perf_counter()
    fam = qwz_pump(LatticeSpec(n_cells=128, lattice_constant=1.0, n_bands=2), 128,
                   mu=-1.0)
    pump = pumped_charge(fam, 0)
    oracle = chern_number(fam, 0)
    quantized = abs(abs(pump.delta_q) - 1.0) < 1e-3
    matches = round(pump.delta_q) == -oracle.value and oracle.residue < 0.05

    f = graphene_loop(LatticeSpec(n_cells=256, lattice_constant=1.0, n_bands=2),
                      mass=0.3)
    occ = OccupationSpec([0.0, 1.0])
    drv = DriveSpec(np.linspace(0.5, 3.5, 121), 1.0, 0.05)
    base = shift_current_spectrum(f, occ, drv)
    peak = np.max(np.abs(base.currents))
    conn = reduced_position_matrix(f)
    worst = 0.0
    for seed in range(20):
        g = random_gauge_field(2, f.grid, modes=3, seed=seed, scale=0.3, diagonal=True)
        gc = ConnectionField(grid=f.grid, values=gauge_transform(conn.values, g))
        res = shift_current_spectrum(f, occ, drv, connection=gc)
        worst = max(worst, np.max(np.abs(res.currents - base.currents)))
    gauge_ok = worst / peak < 1e-8

    grid = build_kgrid(LatticeSpec(n_cells=128, lattice_constant=1.0, n_bands=2))
    real_field = two_band_field(grid, 1.2 + 0.5 * np.sin(grid.points), 0.0 * grid.points,
                                energies=np.column_stack([np.ones(128), -np.ones(128)]))
    real_res = shift_current_spectrum(real_field, occ, drv)
    real_zero = bool(np.all(real_res.currents == 0.0))
    elapsed = time.perf_counter() - t0
    report(9, "transport suite",
           quantized and matches and gauge_ok and real_zero and elapsed < 60.0,
           f"dQ {pump.delta_q:+.4f} vs plaquette {oracle.value:+d} "
           f"(residue {oracle.residue:.1e}), gauge drift {worst / peak:.1e}, "
           f"real-family peak {np.max(np.abs(real_res.currents)):.1e}, {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    from crmatrix.cli import main

    def run_once(label):
        out = tmp_path / label
        cfg = {
            "lattice": {"N": 64, "a": 1.0, "n_bands": 2},
            "model": {"preset": "two-band-generic"},
            "task": {"name": "gauge-audit", "params": {"seeds": 8}},
            "output": {"directory": str(out)},
            "seed": 11,
        }
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return ((out / "gauge_audit.csv").read_bytes(),
                tuple(o["sha256"] for o in manifest["outputs"]))

    runs = [run_once("r1"), run_once("r2")]
    identical = runs[0] == runs[1]
    report(10, "byte-identical reruns", identical,
           f"digest {runs[0][1][0][:12]}... reproduced across reruns")
