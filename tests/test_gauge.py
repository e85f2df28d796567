import json
import tracemalloc

import numpy as np
import pytest

from crmatrix import (BlochField, InvarianceReport, LatticeSpec, TwoBandAngles,
                      ZeroOverlap, apply_gauge_to_field, berry_connection,
                      berry_phase, build_kgrid, central_difference,
                      curvature_substitution_check, diagonal_loop,
                      diagonal_value, gauge, gauge_audit, gauge_transform,
                      pump_family_from_angles, random_gauge_field,
                      similarity_transform, trace_loop, two_band_field)
from crmatrix.cli import main
from crmatrix.gauge import DIAGONAL_VALUE_TOL, LOOP_TOL, gauge_inhomogeneous_term
from crmatrix.presets import generic_two_band, graphene_loop, identity_field, qwz_pump
from crmatrix.rmatrix import loop_phases

from conftest import smooth_field


def grid_of(n, a=1.0, nb=2):
    return build_kgrid(LatticeSpec(n_cells=n, lattice_constant=a, n_bands=nb))


# -- gauge field construction --------------------------------------------


def test_gauge_field_unitary_and_periodic_generator():
    g = random_gauge_field(3, grid_of(32, nb=3), modes=4, seed=9)
    assert g.unitarity_defect() < 1e-12
    h = g.generator
    assert np.max(np.abs(h - h.conj().transpose(0, 2, 1))) < 1e-13


def test_gauge_field_modes_zero_constant():
    g = random_gauge_field(2, grid_of(16), modes=0, seed=1)
    assert np.max(np.abs(g.unitaries - g.unitaries[0])) == 0.0


def test_gauge_field_trivial_generator():
    g = random_gauge_field(1, grid_of(8, nb=1), modes=0, seed=0, scale=0.0)
    assert np.allclose(g.unitaries, 1.0)


def test_gauge_field_seed_reproducible():
    g1 = random_gauge_field(2, grid_of(16), modes=3, seed=42)
    g2 = random_gauge_field(2, grid_of(16), modes=3, seed=42)
    assert np.array_equal(g1.unitaries, g2.unitaries)
    g3 = random_gauge_field(2, grid_of(16), modes=3, seed=43)
    assert not np.array_equal(g1.unitaries, g3.unitaries)


def test_diagonal_gauge_field_is_diagonal():
    g = random_gauge_field(2, grid_of(16), modes=2, seed=5, diagonal=True)
    assert np.max(np.abs(g.unitaries[:, 0, 1])) == 0.0
    assert np.max(np.abs(g.unitaries[:, 1, 0])) == 0.0


@pytest.mark.parametrize("diagonal", [False, True])
def test_gauge_field_refuses_an_overflowing_scale(diagonal):
    """A scale whose coefficients overflow raises, as in gauge_audit, instead
    of returning non-finite unitaries."""
    with pytest.raises(FloatingPointError):
        random_gauge_field(2, grid_of(16), modes=3, seed=7, scale=1e308, diagonal=diagonal)


# -- similarity rule -------------------------------------------------------


def test_similarity_identity_gauge():
    f = smooth_field(n_cells=16, seed=0)
    conn = berry_connection(f).values
    g = random_gauge_field(2, f.grid, modes=0, seed=0, scale=0.0)
    assert np.max(np.abs(similarity_transform(conn, g) - conn)) < 1e-14


def test_similarity_scalar_field_invariant():
    grid = grid_of(16)
    c = np.cos(grid.points)
    m = c[:, None, None] * np.eye(2)[None, :, :]
    g = random_gauge_field(2, grid, modes=3, seed=7)
    assert np.max(np.abs(similarity_transform(m, g) - m)) < 1e-13


def test_similarity_preserves_spectra():
    rng = np.random.default_rng(4)
    grid = grid_of(12)
    for trial in range(10):
        x = rng.normal(size=(12, 2, 2)) + 1j * rng.normal(size=(12, 2, 2))
        m = x + x.conj().transpose(0, 2, 1)
        g = random_gauge_field(2, grid, modes=2, seed=trial)
        before = np.sort(np.linalg.eigvalsh(m), axis=1)
        after = np.sort(np.linalg.eigvalsh(similarity_transform(m, g)), axis=1)
        assert np.max(np.abs(before - after)) < 1e-12


# -- derivative-operator rule ----------------------------------------------


def test_gauge_transform_identity_gauge():
    f = smooth_field(n_cells=16, seed=1)
    conn = berry_connection(f).values
    g = random_gauge_field(2, f.grid, modes=0, seed=0, scale=0.0)
    assert np.max(np.abs(gauge_transform(conn, g) - conn)) < 1e-14


def test_gauge_transform_scalar_phase_shifts_by_phase_derivative():
    # M = 0 picks up exactly the discrete derivative of the phase, which
    # matches the analytic derivative to O(dk^2)
    grid = grid_of(256, nb=1)
    zero = np.zeros((256, 1, 1), dtype=complex)
    g = random_gauge_field(1, grid, modes=3, seed=11, diagonal=True)
    out = gauge_transform(zero, g)
    dxi = central_difference(g.generator, grid.spacing, axis=0)
    assert np.max(np.abs(out - dxi)) < 1e-14
    assert np.max(np.abs(out - g.generator_kderiv)) < 2e-3

    grid2 = grid_of(512, nb=1)
    g2 = random_gauge_field(1, grid2, modes=3, seed=11, diagonal=True)
    out2 = gauge_transform(np.zeros((512, 1, 1), complex), g2)
    err1 = np.max(np.abs(out - g.generator_kderiv))
    err2 = np.max(np.abs(out2 - g2.generator_kderiv))
    assert err1 / err2 >= 3.5


def test_gauge_transform_difference_property():
    # the inhomogeneous terms cancel in differences, leaving the
    # similarity-transformed difference
    grid = grid_of(24)
    rng = np.random.default_rng(3)
    x1 = rng.normal(size=(24, 2, 2)) + 1j * rng.normal(size=(24, 2, 2))
    x2 = rng.normal(size=(24, 2, 2)) + 1j * rng.normal(size=(24, 2, 2))
    m1, m2 = x1 + x1.conj().transpose(0, 2, 1), x2 + x2.conj().transpose(0, 2, 1)
    g = random_gauge_field(2, grid, modes=2, seed=8)
    lhs = gauge_transform(m1, g) - gauge_transform(m2, g)
    rhs = similarity_transform(m1 - m2, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_matrix_rule_matches_field_rule():
    # transforming the coefficient field and recomputing the connection
    # approaches the matrix-rule transform at O(dk^2)
    errs = {}
    for n in (128, 256):
        f = smooth_field(n_cells=n, seed=5)
        fd = BlochField(grid=f.grid, coeffs=f.coeffs)
        conn = berry_connection(fd).values
        g = random_gauge_field(2, f.grid, modes=2, seed=2)
        via_matrix = gauge_transform(conn, g)
        via_field = berry_connection(apply_gauge_to_field(fd, g)).values
        errs[n] = np.max(np.abs(via_matrix - via_field))
    assert errs[128] / errs[256] >= 3.5


def test_inner_form_invariance_matrix_operator():
    # sandwich of a similarity-transformed matrix between co-rotated
    # ribbon vectors is exactly invariant
    grid = grid_of(16)
    rng = np.random.default_rng(12)
    m = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
    phi = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    psi = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    g = random_gauge_field(2, grid, modes=2, seed=13)
    u = g.unitaries
    before = np.einsum("pm,pmn,pn->p", phi.conj(), m, psi)
    after = np.einsum("pm,pmn,pn->p",
                      np.einsum("pmn,pn->pm", u, phi).conj(),
                      similarity_transform(m, g),
                      np.einsum("pmn,pn->pm", u, psi))
    assert np.max(np.abs(before - after)) < 1e-12


def test_inner_form_gains_inhomogeneous_term_for_derivative_rule():
    grid = grid_of(32)
    rng = np.random.default_rng(14)
    m = rng.normal(size=(32, 2, 2)) + 1j * rng.normal(size=(32, 2, 2))
    phi = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
    psi = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
    g = random_gauge_field(2, grid, modes=2, seed=15)
    u = g.unitaries
    before = np.einsum("pm,pmn,pn->p", phi.conj(), m, psi)
    after = np.einsum("pm,pmn,pn->p",
                      np.einsum("pmn,pn->pm", u, phi).conj(),
                      gauge_transform(m, g),
                      np.einsum("pmn,pn->pm", u, psi))
    sandwiched = np.einsum("pim,pij,pjn->pmn", u.conj(),
                           gauge_inhomogeneous_term(g), u)
    extra = np.einsum("pm,pmn,pn->p", phi.conj(), sandwiched, psi)
    assert np.max(np.abs(after - before - extra)) < 1e-12


# -- berry phase -----------------------------------------------------------


def test_berry_phase_constant_field():
    f = identity_field(LatticeSpec(n_cells=16, lattice_constant=1.0, n_bands=2))
    assert berry_phase(f, 0) == pytest.approx(0.0, abs=1e-14)
    assert berry_phase(f, 1) == pytest.approx(0.0, abs=1e-14)


def test_berry_phase_reshuffle_invariant():
    # arbitrary per-k phases on one band cancel in the wraparound product
    f = smooth_field(n_cells=64, seed=6)
    before = berry_phase(f, 0)
    rng = np.random.default_rng(5)
    coeffs = np.array(f.coeffs)
    coeffs[:, :, 0] *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=64))[:, None]
    shuffled = BlochField(grid=f.grid, coeffs=coeffs)
    assert abs(berry_phase(shuffled, 0) - before) < 1e-12


def test_berry_phase_unit_winding():
    spec = LatticeSpec(n_cells=512, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    angles = TwoBandAngles(theta=lambda k: np.full_like(k, np.pi / 2),
                           phi=lambda k: k)
    f = two_band_field(angles, grid)
    th = berry_phase(f, 0)
    assert abs(abs(th) - np.pi) < 1e-3   # -pi mod 2pi
    # independent Riemann-sum oracle of -(1/2) * loop of dphi
    inc = np.angle(np.exp(1j * np.diff(np.append(grid.points, 2 * np.pi))))
    oracle = -0.5 * np.sum(inc)
    assert abs(np.angle(np.exp(1j * (th - oracle)))) < 1e-3


def test_berry_phase_zero_overlap_guard():
    # consecutive columns orthogonal: e_x, e_y, alternating
    coeffs = np.zeros((4, 2, 2), dtype=complex)
    coeffs[0::2, 0, 0] = 1.0
    coeffs[0::2, 1, 1] = 1.0
    coeffs[1::2, 1, 0] = 1.0
    coeffs[1::2, 0, 1] = 1.0
    f = BlochField(grid=grid_of(4), coeffs=coeffs)
    with pytest.raises(ZeroOverlap):
        berry_phase(f, 0)


@pytest.mark.parametrize("family", ["qwz", "angles"])
def test_loop_phases_of_a_stack_equal_berry_phase_per_slice(family):
    """One loop-phase implementation: a (N, n_lambda, NB) stack gives the
    bits of berry_phase on each lambda slice alone."""
    if family == "qwz":
        fam = qwz_pump(LatticeSpec(64, 1.0, 2), 24, mu=-1.0)
    else:
        fam = pump_family_from_angles(lambda k, lam: 1.0 + 0.4 * np.cos(k + 2 * np.pi * lam),
                                      lambda k, lam: k + np.sin(2 * np.pi * lam), grid_of(37), 11)
    for band in range(2):
        phases = loop_phases(fam.coeffs[:, :, :, band])
        assert phases.shape == (fam.n_lambda,)
        for j in range(fam.n_lambda):
            slice_phase = berry_phase(BlochField(grid=fam.grid, coeffs=fam.coeffs[:, j]), band)
            assert phases[j].tobytes() == np.float64(slice_phase).tobytes()


def test_berry_phase_diagonal_gauge_invariant_100_seeds():
    f = smooth_field(n_cells=64, seed=20)
    before = berry_phase(f, 0)
    worst = 0.0
    for seed in range(100):
        g = random_gauge_field(2, f.grid, modes=3, seed=seed, diagonal=True)
        after = berry_phase(apply_gauge_to_field(f, g), 0)
        worst = max(worst, abs(np.angle(np.exp(1j * (after - before)))))
    assert worst < 1e-9


# -- observable functionals --------------------------------------------


def test_diagonal_value_identity_connection():
    f = identity_field(LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2))
    conn = berry_connection(f).values
    assert diagonal_value(conn, 0, 3) == pytest.approx(0.0, abs=1e-14)


def test_diagonal_value_invariant_for_matrix_rule():
    grid = grid_of(16)
    rng = np.random.default_rng(21)
    m = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
    g = random_gauge_field(2, grid, modes=3, seed=3, diagonal=True)
    m2 = similarity_transform(m, g)
    for p in (0, 7):
        assert abs(diagonal_value(m2, 0, p) - diagonal_value(m, 0, p)) < 1e-13


def test_diagonal_value_shifts_under_derivative_rule():
    f = smooth_field(n_cells=128, seed=2)
    conn = berry_connection(f).values
    g = random_gauge_field(2, f.grid, modes=3, seed=6, diagonal=True)
    m2 = gauge_transform(conn, g)
    shift = np.array([diagonal_value(m2, 0, p) - diagonal_value(conn, 0, p)
                      for p in range(128)])
    dxi = central_difference(g.generator, f.grid.spacing, axis=0)[:, 0, 0]
    assert np.max(np.abs(shift - dxi)) < 1e-13


def test_diagonal_loop_zero_field():
    grid = grid_of(16)
    assert diagonal_loop(np.zeros((16, 2, 2)), 0, grid) == 0.0


def test_diagonal_loop_u1_invariance_100_seeds():
    f = smooth_field(n_cells=256, seed=7)
    conn = berry_connection(f).values
    grid = f.grid
    base = diagonal_loop(conn, 0, grid)
    worst = 0.0
    for seed in range(100):
        g = random_gauge_field(2, grid, modes=3, seed=seed, scale=0.4, diagonal=True)
        worst = max(worst, abs(diagonal_loop(gauge_transform(conn, g), 0, grid) - base))
    assert worst < 1e-9


def test_diagonal_loop_matches_berry_phase_quadratically():
    gaps = {}
    for n in (128, 256):
        f = smooth_field(n_cells=n, seed=9)
        fd = BlochField(grid=f.grid, coeffs=f.coeffs)
        loop = diagonal_loop(berry_connection(fd).values, 0, f.grid)
        phase = berry_phase(fd, 0)
        gaps[n] = abs(np.angle(np.exp(1j * (loop - phase))))
    assert gaps[128] < 1e-3
    assert gaps[128] / gaps[256] >= 3.5


def test_trace_loop_zero_field():
    grid = grid_of(16)
    assert trace_loop(np.zeros((16, 2, 2)), grid) == 0.0


def test_trace_loop_full_unitary_invariance_and_refinement():
    errs = {}
    for n in (128, 256):
        f = smooth_field(n_cells=n, seed=3)
        conn = berry_connection(f).values
        base = trace_loop(conn, f.grid)
        worst = 0.0
        for seed in range(10):
            g = random_gauge_field(2, f.grid, modes=2, seed=seed, scale=0.25)
            worst = max(worst, abs(trace_loop(gauge_transform(conn, g), f.grid) - base))
        errs[n] = worst
    assert errs[256] < 1e-3
    assert errs[128] / errs[256] >= 3.5


# -- conjugation identities ------------------------------------------------


def test_conjugation_identity_exact():
    # conj <m | d_k n> = <d_k n | m> for the discrete inner products
    f = smooth_field(n_cells=32, seed=16)
    dc = central_difference(f.coeffs, f.grid.spacing, axis=0)
    for m in range(2):
        for n in range(2):
            lhs = np.conj(np.einsum("pl,pl->p", f.coeffs[:, :, m].conj(), dc[:, :, n]))
            rhs = np.einsum("pl,pl->p", dc[:, :, n].conj(), f.coeffs[:, :, m])
            assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_mixed_parameter_conjugation_identity():
    grid = grid_of(32)
    fam = pump_family_from_angles(
        lambda k, lam: 1.0 + 0.3 * np.cos(k) + 0.2 * np.cos(2 * np.pi * lam),
        lambda k, lam: k + 0.4 * np.sin(2 * np.pi * lam),
        grid, 16)
    phi = fam.coeffs[:, :, :, 0]
    dk_phi = central_difference(phi, grid.spacing, axis=0)
    dl_phi = central_difference(phi, 1.0 / 16, axis=1)
    lhs = np.conj(np.einsum("pjl,pjl->pj", dl_phi.conj(), dk_phi))
    rhs = np.einsum("pjl,pjl->pj", dk_phi.conj(), dl_phi)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_sign_reversal_for_orthonormal_ribbons():
    # <d_k m | n> = -<m | d_k n> holds to O(dk^2) for unitary columns
    errs = {}
    for n_cells in (128, 256):
        f = smooth_field(n_cells=n_cells, seed=17)
        dc = central_difference(f.coeffs, f.grid.spacing, axis=0)
        worst = 0.0
        for m in range(2):
            for n in range(2):
                lhs = np.einsum("pl,pl->p", dc[:, :, m].conj(), f.coeffs[:, :, n])
                rhs = -np.einsum("pl,pl->p", f.coeffs[:, :, m].conj(), dc[:, :, n])
                worst = max(worst, np.max(np.abs(lhs - rhs)))
        errs[n_cells] = worst
    assert errs[128] / errs[256] >= 3.5


# -- curvature substitution -------------------------------------------


def generic_family(n_k=256, n_lambda=64):
    grid = grid_of(n_k)
    return pump_family_from_angles(
        lambda k, lam: 1.0 + 0.3 * np.cos(k),
        lambda k, lam: k + 0.5 * np.sin(2 * np.pi * lam) * np.cos(k),
        grid, n_lambda)


def test_curvature_check_lambda_independent():
    grid = grid_of(64)
    fam = pump_family_from_angles(lambda k, lam: 1.0 + 0.3 * np.cos(k),
                                  lambda k, lam: k + 0.0 * lam, grid, 16)
    chk = curvature_substitution_check(fam, 0)
    assert chk.max_abs_g == 0.0
    assert np.max(np.abs(chk.loop_lhs)) < 1e-14
    assert np.max(np.abs(chk.loop_rhs)) < 1e-14


def test_curvature_check_local_failure_global_equality():
    chk = curvature_substitution_check(generic_family(), 0)
    assert chk.max_abs_g > 1e-2
    assert chk.max_pointwise_gap > 1e-2
    assert chk.max_loop_mismatch < 1e-6


# -- the gauge audit -------------------------------------------------------


def ref_gauge_audit(field, seed, seeds, modes, scale, band=0, kindex=0):
    """The whole-field audit: per seed, both gauge fields and the transformed
    connection stacks, read by the four public functionals.  Under U(NB)
    the trace loop reads the traced similarity transform plus d_k tr H,
    the exact trace of U i d_k(U^dag) for U = exp(i H)."""
    conn = berry_connection(field).values
    grid = field.grid
    reports = []
    for gauge_seed in range(seed, seed + seeds):
        diag = random_gauge_field(field.n_bands, grid, modes, gauge_seed,
                                  scale=scale, diagonal=True)
        full = random_gauge_field(field.n_bands, grid, modes, gauge_seed + 10_000,
                                  scale=scale, diagonal=False)
        m_diag = gauge_transform(conn, diag)
        traced = np.trace(similarity_transform(conn, full), axis1=1, axis2=2) \
            + central_difference(np.trace(full.generator, axis1=1, axis2=2), grid.spacing)
        reports += [
            InvarianceReport("diagonal_value", band, gauge_seed,
                             diagonal_value(conn, band, kindex),
                             diagonal_value(m_diag, band, kindex),
                             DIAGONAL_VALUE_TOL * grid.spec.lattice_constant),
            InvarianceReport("diagonal_loop", band, gauge_seed,
                             diagonal_loop(conn, band, grid),
                             diagonal_loop(m_diag, band, grid), LOOP_TOL),
            InvarianceReport("trace_loop", band, gauge_seed, trace_loop(conn, grid),
                             trace_loop(traced[:, None, None], grid), LOOP_TOL),
            InvarianceReport("berry_phase", band, gauge_seed, berry_phase(field, band),
                             berry_phase(apply_gauge_to_field(field, diag), band), LOOP_TOL),
        ]
    return reports


THREE_BANDS = [["-2 + 0.2*cos(k*a)", "0.3*exp(-j*(k*a + 0.4))", "0.2*sin(k*a)"],
               ["0.3*exp(j*(k*a + 0.4))", "0.1*cos(k*a + 0.4)", "0.25*exp(-j*(k*a + 0.4))"],
               ["0.2*sin(k*a)", "0.25*exp(j*(k*a + 0.4))", "2 + 0.3*cos(k*a + 0.8)"]]


@pytest.mark.parametrize("n_bands, model, params", [
    (2, {"preset": "two-band-generic"}, {}),
    (2, {"preset": "graphene-ribbon"}, {"modes": 4}),
    (1, {"preset": "identity"}, {}),
    (3, {"hamiltonian": THREE_BANDS}, {"band": 2, "kindex": 5}),
    (2, {"preset": "two-band-generic"}, {"band": 1, "kindex": 17}),
    (2, {"preset": "two-band-generic"}, {"modes": 0}),
    (2, {"preset": "two-band-generic"}, {"scale": 0}),
], ids=["generic", "graphene-modes4", "identity-nb1", "hamiltonian-nb3", "band1-kindex17",
        "modes0", "scale0"])
def test_gauge_audit_csv_equals_whole_field_reference(tmp_path, monkeypatch, n_bands, model,
                                                      params):
    """gauge_audit.csv holds the same bytes whether the rows come from the
    need-only audit or from whole transformed fields."""
    def audit_csv(label):
        out = tmp_path / label
        cfg = {"lattice": {"N": 64, "a": 1.0, "n_bands": n_bands}, "model": model,
               "task": {"name": "gauge-audit", "params": {"seeds": 6, **params}},
               "output": {"directory": str(out)}, "seed": 11}
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return (out / "gauge_audit.csv").read_bytes(), manifest["tolerances"]

    need_only = audit_csv("need-only")
    monkeypatch.setattr(gauge, "gauge_audit", ref_gauge_audit)
    assert audit_csv("whole-field") == need_only


def test_gauge_audit_memory_is_per_seed():
    """The audit holds O(1) connection-sized stacks, not one per seed: its
    tracemalloc peak at N=1024 over 20 seeds measures 10x one (N, NB, NB)
    complex stack (the whole-field reference measures 15.6x)."""
    gauge_audit(smooth_field(n_cells=16), 0, 1, 3, 0.2)  # first-call allocations
    field = generic_two_band(LatticeSpec(n_cells=1024, lattice_constant=1.0, n_bands=2))
    stack = field.n_k * field.n_bands ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        gauge_audit(field, 7, 20, 3, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * stack


@pytest.mark.parametrize("field, modes", [
    (lambda: generic_two_band(LatticeSpec(n_cells=1024, lattice_constant=1.0, n_bands=2)), 3),
    (lambda: graphene_loop(LatticeSpec(n_cells=512, lattice_constant=1.0, n_bands=2),
                           mass=0.3), 4),
], ids=["generic-N1024", "graphene-mass-N512"])
def test_gauge_audit_trace_loop_is_invariant_at_round_off(field, modes):
    """d_k tr H is the exact trace of U i d_k(U^dag), so on the bench's two
    audit models the U(NB) trace loop moves only by round-off."""
    rows = [r for r in gauge_audit(field(), 0, 10, modes, 0.2) if r.name == "trace_loop"]
    assert len(rows) == 10
    assert all(r.invariant for r in rows)
    assert max(r.delta for r in rows) < 1e-14
