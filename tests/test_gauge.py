import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crmatrix import (BlochField, InvarianceReport, LatticeSpec,
                      ZeroOverlap, apply_gauge_to_field, berry_connection,
                      berry_phase, build_kgrid, central_difference,
                      curvature_substitution_check, diagonal_loop,
                      diagonal_value, eigenfield_from_hamiltonian, eigenfield_from_stack,
                      gauge, gauge_audit, gauge_transform, pump_family_from_angles,
                      random_gauge_field, similarity_transform, trace_loop, two_band_field)
from crmatrix.cli import main
from crmatrix._su2 import (entries as _entries, exp_i as _su2_exp, expm_i,
                           sandwich as _two_band_similarity, stack as _stack)
from crmatrix.gauge import (DIAGONAL_VALUE_TOL, LOOP_TOL, _fourier_coefficients,
                            gauge_inhomogeneous_term)
from crmatrix.model import stack_unitarity_defect
from crmatrix.presets import generic_two_band, graphene_loop, identity_field, qwz_pump
from crmatrix.rmatrix import link_overlaps, loop_phases

from conftest import smooth_field, three_band_hamiltonian


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
    f = two_band_field(grid, np.full_like(grid.points, np.pi / 2), grid.points)
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


def test_loop_phases_on_the_cut_is_plus_pi():
    """A closed link product of -1 + 0j is the phase +pi: the documented
    range is (-pi, pi], and -angle(-1 + 0j) alone is -pi."""
    cols = np.array([[1, 0], [1, 1], [-1, 2]], dtype=complex)  # links 1, 1, -1
    assert repr(np.prod(link_overlaps(cols, 0))) == repr(np.complex128(-1 + 0j))
    assert float(loop_phases(cols)) == np.pi
    stacked = loop_phases(np.stack([cols, cols], axis=1))
    assert stacked.tobytes() == np.array([np.pi, np.pi]).tobytes()


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


def eigh_gauge_audit(field, seed, seeds, modes, scale, band=0, kindex=0):
    """The audit with every U(NB) gauge by eigh, written out: each generator
    summed as an (N, NB, NB) complex stack, U = V e^{i w} V^dag and the
    traced diagonal of U M U^dag by one einsum."""
    grid, nb, dk = field.grid, field.n_bands, field.grid.spacing
    conn = berry_connection(field).values
    n = grid.n
    angles = 2.0 * np.pi * ((np.arange(1, modes + 1)[:, None] * np.arange(n)) % n) / n
    cos_table, sin_table = np.cos(angles), np.sin(angles)

    def series(cos_coeffs, sin_coeffs):
        at_p = (slice(None),) + (None,) * (cos_coeffs.ndim - 1)
        out = np.zeros((n,) + cos_coeffs.shape[1:], dtype=complex)
        out += cos_coeffs[0]
        for s in range(1, modes + 1):
            out += cos_table[s - 1][at_p] * cos_coeffs[s] + sin_table[s - 1][at_p] * sin_coeffs[s]
        return out

    names = ("diagonal_value", "diagonal_loop", "trace_loop", "berry_phase")
    tolerances = (DIAGONAL_VALUE_TOL * grid.spec.lattice_constant, LOOP_TOL, LOOP_TOL, LOOP_TOL)
    before = (diagonal_value(conn, band, kindex), diagonal_loop(conn, band, grid),
              trace_loop(conn, grid), berry_phase(field, band))
    reports = []
    for gauge_seed in range(seed, seed + seeds):
        xi = series(*_fourier_coefficients(nb, modes, gauge_seed, scale, True)[:, :, band, band])
        u = np.exp(1j * xi)
        a_bb = np.einsum("p,p,p->p", u, conn[:, band, band], u.conj()) \
            + central_difference(xi, dk)
        gen = series(*_fourier_coefficients(nb, modes, gauge_seed + 10_000, scale, False))
        full = eigh_exp_i(gen)
        traced = np.einsum("pmi,pij,pmj->pm", full, conn, full.conj()).sum(axis=1) \
            + central_difference(np.trace(gen, axis1=1, axis2=2), dk)
        after = (complex(a_bb[kindex]), float(np.real(np.sum(a_bb) * dk)),
                 float(np.real(np.sum(traced) * dk)),
                 float(loop_phases(np.einsum("pl,p->pl", field.coeffs[:, :, band], u.conj()))))
        reports += [InvarianceReport(name, band, gauge_seed, b, a, tol) for name, b, a, tol
                    in zip(names, before, after, tolerances)]
    return reports


@pytest.mark.parametrize("n_bands, model, params", [
    (1, {"preset": "identity"}, {"scale": 2.0, "modes": 5}),
    (3, {"hamiltonian": THREE_BANDS}, {"band": 2, "kindex": 5}),
    (3, {"hamiltonian": THREE_BANDS}, {"scale": 1.5, "modes": 0}),
], ids=["identity-nb1", "hamiltonian-nb3", "hamiltonian-nb3-modes0"])
def test_gauge_audit_off_two_bands_keeps_the_eigh_path(tmp_path, monkeypatch, n_bands, model,
                                                       params):
    """Off NB = 2 the audit takes eigh and one einsum: gauge_audit.csv holds
    the bytes of the written-out eigh audit."""
    def audit_csv(label):
        out = tmp_path / label
        cfg = {"lattice": {"N": 48, "a": 1.3, "n_bands": n_bands}, "model": model,
               "task": {"name": "gauge-audit", "params": {"seeds": 5, **params}},
               "output": {"directory": str(out)}, "seed": 3}
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        return (out / "gauge_audit.csv").read_bytes()

    audit = audit_csv("audit")
    monkeypatch.setattr(gauge, "gauge_audit", eigh_gauge_audit)
    assert audit_csv("eigh") == audit


@pytest.mark.parametrize("modes, scale", [(0, 0.0), (3, 0.0), (0, 0.7)])
def test_gauge_audit_trivial_and_constant_gauges(modes, scale):
    """scale 0 draws H = 0, so U = I exactly (b = 0) and every row keeps its
    value bit for bit; modes 0 draws one k-independent U, and the loops
    stay invariant."""
    rows = gauge_audit(generic_two_band(LatticeSpec(64, 1.0, 2)), 0, 4, modes, scale)
    assert all(r.invariant for r in rows if r.name != "diagonal_value")
    if scale == 0:
        assert all(r.after == r.before for r in rows)


def test_gauge_audit_berry_phase_of_pi_is_invariant():
    """A Berry phase of pi sits on the branch cut of the angle: round-off
    leaves the link product on the negative real axis under some gauges,
    which is +pi, the end of (-pi, pi] that loop_phases returns, and carries
    it an ulp below +pi under others; no row lands at -pi."""
    grid = grid_of(64)
    k = grid.points
    hk = np.empty((64, 2, 2), dtype=complex)
    hk[:, 0, 0], hk[:, 1, 1] = np.cos(k) + 0.5, -np.cos(k) - 0.5
    hk[:, 0, 1] = hk[:, 1, 0] = np.sin(k)
    rows = [r for r in gauge_audit(eigenfield_from_stack(hk, grid), 0, 5, 3, 0.3)
            if r.name == "berry_phase"]
    assert all(r.before == np.pi and abs(r.after - np.pi) < 1e-15 and r.delta < 1e-15
               and r.invariant for r in rows)


def test_gauge_audit_memory_is_per_seed():
    """The audit holds O(1) connection-sized stacks, not one per seed: its
    tracemalloc peak at N=1024 over 20 seeds, in blocks of 2 seeds,
    measures 10.1x one (N, NB, NB) complex stack (the whole-field
    reference measures 15.6x)."""
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


def report_fields(rows):
    """Every field of each report, floats by repr, so -0.0 and 0.0 differ."""
    return [(r.name, r.band, r.seed, repr(r.before), repr(r.after), repr(r.tolerance))
            for r in rows]


@pytest.mark.parametrize("field, args", [
    (lambda: generic_two_band(LatticeSpec(1024, 1.0, 2)), (7, 1, 3, 0.2)),
    (lambda: generic_two_band(LatticeSpec(1024, 1.0, 2)), (7, 2, 3, 0.2)),
    (lambda: generic_two_band(LatticeSpec(1024, 1.0, 2)), (7, 3, 3, 0.2)),
    (lambda: generic_two_band(LatticeSpec(1024, 1.0, 2)), (7, 5, 3, 0.2)),
    (lambda: graphene_loop(LatticeSpec(512, 1.0, 2), mass=0.3), (91, 7, 4, 0.2)),
    (lambda: generic_two_band(LatticeSpec(4096, 1.0, 2)), (2, 3, 3, 0.2)),
    (lambda: generic_two_band(LatticeSpec(1024, 1.0, 2)), (40, 5, 3, 0.2, 1, 613)),
], ids=["N1024-1-seed", "N1024-2-seeds", "N1024-3-seeds", "N1024-5-seeds",
        "graphene-N512-modes4-7-seeds", "N4096-3-seeds", "band1-kindex613"])
def test_gauge_audit_seed_blocks_equal_the_per_seed_reference(field, args):
    """Seed blocks (2 seeds at N = 1024, 4 at N = 512, 1 at N = 4096) give
    every field of every report the value of the per-seed whole-field
    reference, whatever block, or place in a block, a seed falls on."""
    f = field()
    assert report_fields(gauge_audit(f, *args)) == report_fields(ref_gauge_audit(f, *args))


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


# -- seeded coefficient streams and exp(i H) -----------------------------

#: sha256 of each stacked cos/sin coefficient array's dtype, shape and
#: bytes, for _fourier_coefficients(NB, modes, seed, 0.3, diagonal), keyed
#: (NB, modes, diagonal, seed); recorded when each matrix was drawn by
#: its own normal calls, so every gauge seed of earlier runs is kept
STREAM_DIGESTS = {
    (1, 0, True, 0): "91b8febf5a3a9e6d89b6c13c8c72e7d555422db42401fb1996b2f77da30a218f",
    (1, 0, True, 10007): "177ef0e5cc54da185ed8b30518b1977cdbe70be5b62b0e825d8f68e1a5090e18",
    (1, 0, False, 0): "8d276c5c136fe06eb0056426827a138c73883cf15a42f053514bbaf8bff312be",
    (1, 0, False, 10007): "95b31629f18757f29334eba6a67bb2adee6189bc22749d18a930ebcc435195f9",
    (1, 3, True, 0): "97d8e5ec0f8258fb51e64ba158c50e45c45fd917c6d19b610ebe3d28dd67f031",
    (1, 3, True, 10007): "9c0059c7fb4313e78188dc5cb2cf024ddf811111186f47cf92761ab3a6e27326",
    (1, 3, False, 0): "686fbedb49201947096180d334ee4dfda0de33f1e9993aa59807f3f252f7682f",
    (1, 3, False, 10007): "1814021c52f39d44388a1b2ef4365767b9924b661cbf326041d7fbe79395aa3f",
    (2, 0, True, 0): "2df95f783d224186500090d36135831a4701b69b5cbf509cf271a77711230f5a",
    (2, 0, True, 10007): "9ac759cab3b71661a24637c67ed711393b10fa1145aae85e7cff7857e300be13",
    (2, 0, False, 0): "aa122bbb0dce39c2d375f7823a78256b87bec72fc413d43d94bb5bfa144973a3",
    (2, 0, False, 10007): "e9c5c8f7cf61b2edd641468f5b8b196b3d0b2c5185f2bffa4bed8f796f9e2ce4",
    (2, 3, True, 0): "80110a748a5b60a9df680103cf1b2591ff506e68dbf3c7379a475d3dbd02c3dc",
    (2, 3, True, 10007): "626b424b2e0afed73bb8395d08dac98b3e848c6e0dbfeb0674a0200629df624c",
    (2, 3, False, 0): "21ada09c17f4198718dee9dd7e846014ce89fc7d2cff1af7a189612ff949bd60",
    (2, 3, False, 10007): "f6b74a8c40baa7e993cd91c8265e699dfd4b3b8ccb3fbfecf1fdf7916b3372ef",
    (3, 0, True, 0): "270f15ab7c3558f3eb0af0b30b88406a901fad9762d2380085a748e22b1277fb",
    (3, 0, True, 10007): "f058e659874c79098f3209d1c4284c52dd8db07d23aac344651d3e31d62d2991",
    (3, 0, False, 0): "cd45ef406e9d366f86411421d8de262d0f43c7c6f063f88f76406edf7c141712",
    (3, 0, False, 10007): "2cf8beef49bf6b8b42eb36dbbe6b71dbcd6c5213ab55737151fcddae1581d61f",
    (3, 3, True, 0): "ab7c07b0328dc44d202dca44b73ab2229794f8f6e7f57c527d68c043698a87aa",
    (3, 3, True, 10007): "10bd397f88ddd363c15cd0a4ce4017a0e376e6daf42e8ed107ff017b7f71bd17",
    (3, 3, False, 0): "c9d017608f2ed7227308adb46b14f49a50238871ff391d41208ef835a7c009dd",
    (3, 3, False, 10007): "a18fa2c084072dfc1658326ac43c67756972dbfda00b5747e6f854654cc679c1",
}


def test_fourier_coefficients_reproduce_the_pinned_streams():
    def digest(coeffs):
        h = hashlib.sha256()
        for c in coeffs:
            h.update(f"{c.dtype.str}{c.shape}".encode())
            h.update(np.ascontiguousarray(c).tobytes())
        return h.hexdigest()

    drawn = {(nb, modes, diagonal, seed): digest(_fourier_coefficients(nb, modes, seed, 0.3,
                                                                       diagonal))
             for nb, modes, diagonal, seed in itertools.product((1, 2, 3), (0, 3),
                                                                 (True, False), (0, 10_007))}
    assert drawn == STREAM_DIGESTS


def eigh_exp_i(h):
    """exp(i H) of a Hermitian stack as V e^{i w} V^dag, by eigh."""
    w, v = np.linalg.eigh(h)
    return np.einsum("pmi,pi,pni->pmn", v, np.exp(1j * w), v.conj())


#: an entry of t I + b.sigma: exactly zero, near 1e-10, or up to 1e3
SU2_ENTRY = st.one_of(st.just(0.0), st.floats(-1e-10, 1e-10), st.floats(-1e3, 1e3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(SU2_ENTRY, SU2_ENTRY, SU2_ENTRY, SU2_ENTRY), min_size=1, max_size=8))
@example([(0.0, 0.0, 0.0, 0.0), (-1e3, 0.0, 0.0, 0.0), (0.7, 0.0, 0.0, 0.0)])
@example([(0.3, 1e-10, 0.0, 0.0), (-2.0, 6e-11, 5e-11, -3e-11), (0.0, 0.0, 0.0, 1e-10)])
@example([(1e3, -1e3, 1e3, -1e3), (0.0, 1e3, -1e3, 1e3), (-1e3, 0.0, 7e2, 0.0)])
def test_su2_closed_form_matches_eigh(entries):
    """For NB = 2, exp(i H) in closed form is within 16 eps (1 + max|H|) of
    eigh's per matrix, and unitary to 1e-14; at b = 0 it is e^{i t} I."""
    t, d, re, im = np.array(entries).T
    h = np.empty((len(entries), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = t + d, t - d
    h[:, 0, 1], h[:, 1, 0] = re + 1j * im, re - 1j * im
    u = _stack(_su2_exp(t + d, t - d, re + 1j * im))
    limit = 16 * np.finfo(float).eps * (1 + np.max(np.abs(h), axis=(1, 2)))
    assert np.all(np.max(np.abs(u - eigh_exp_i(h)), axis=(1, 2)) <= limit)
    assert stack_unitarity_defect(u) <= 1e-14
    scalar = (d == 0) & (re == 0) & (im == 0)
    assert np.array_equal(u[scalar], np.exp(1j * t[scalar])[:, None, None] * np.eye(2))


#: a complex 2x2 matrix, as eight real parts
MATRIX = st.tuples(*[st.floats(-1e2, 1e2)] * 8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.tuples(SU2_ENTRY, SU2_ENTRY, SU2_ENTRY, SU2_ENTRY), MATRIX),
                min_size=1, max_size=6))
@example([((0.0, 0.0, 0.0, 0.0), (1.0, 2.0, -3.0, 0.5, 0.0, 1.0, 4.0, -2.0)),
          ((0.7, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))])
@example([((0.3, 3.0, 1.0, -2.0), (1.0, 2.0, -3.0, 0.5, 0.0, 1.0, 4.0, -2.0)),
          ((-1e3, 0.0, 4.0, 0.0), (0.0, 1e2, 1e2, 0.0, -1e2, 3.0, 0.0, 1.0))])
def test_two_band_sandwich_matches_einsum_with_eigh(entries):
    """U M U^dag from the closed-form U and explicit 2x2 products is within
    64 eps (1 + max|H|) max|M| of the einsum sandwich with eigh's exp(i H),
    at b = 0 (a scalar H) and past |b| = pi alike."""
    (t, d, re, im), m = (np.array(x, dtype=float).T for x in zip(*entries))
    h = np.empty((len(t), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = t + d, t - d
    h[:, 0, 1], h[:, 1, 0] = re + 1j * im, re - 1j * im
    mat = (m[0::2] + 1j * m[1::2]).T.reshape(-1, 2, 2)
    u = _su2_exp(t + d, t - d, re + 1j * im)
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    sandwich = np.stack(_two_band_similarity(u, _entries(mat), pairs), axis=-1).reshape(-1, 2, 2)
    eigh_u = eigh_exp_i(h)
    want = np.einsum("pmi,pij,pnj->pmn", eigh_u, mat, eigh_u.conj())
    limit = 64 * np.finfo(float).eps * (1 + np.max(np.abs(h), axis=(1, 2))) \
        * np.max(np.abs(mat), axis=(1, 2))
    assert np.all(np.max(np.abs(sandwich - want), axis=(1, 2)) <= limit)


def written_out_similarity(u, m):
    """U M U^dag of 2x2 entry tables by the written-out products: every
    entry of V = U M, then (V U^dag)_rc = V_r0 conj(U_c0) + V_r1 conj(U_c1)."""
    v = [[u[r][0] * m[0][j] + u[r][1] * m[1][j] for j in range(2)] for r in range(2)]
    return {(r, c): v[r][0] * u[c][0].conj() + v[r][1] * u[c][1].conj()
            for r in range(2) for c in range(2)}


@pytest.mark.parametrize("pairs", [((0, 0), (0, 1), (1, 0), (1, 1)), ((0, 0), (1, 1)),
                                   ((1, 1), (0, 1))], ids=["full", "diagonal", "out-of-order"])
@pytest.mark.parametrize("seeds", [0, 3], ids=["one-gauge", "a-block-of-3-gauges"])
def test_two_band_similarity_equals_the_written_out_products(pairs, seeds):
    """V = U M built a row at a time, only for the rows asked for, gives
    each entry the bytes of the written-out 2x2 products, for one gauge's
    (N,) entries and for a block's (seeds, N) entries against (N,) ones;
    similarity_transform stacks the full set."""
    grid = grid_of(96)
    conn = berry_connection(generic_two_band(grid.spec)).values
    gauges = [random_gauge_field(2, grid, 3, seed=s + 10_000) for s in range(max(seeds, 1))]
    if seeds:
        u = tuple(tuple(np.stack([_entries(g.unitaries)[r][c] for g in gauges])
                        for c in range(2)) for r in range(2))
    else:
        u = _entries(gauges[0].unitaries)
    want = written_out_similarity(u, _entries(conn))
    got = _two_band_similarity(u, _entries(conn), pairs)
    assert [x.tobytes() for x in got] == [want[pair].tobytes() for pair in pairs]
    if not seeds:
        stacked = _stack(((want[0, 0], want[0, 1]), (want[1, 0], want[1, 1])))
        assert similarity_transform(conn, gauges[0]).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("nb", [1, 3])
def test_exp_i_takes_eigh_off_two_bands(nb):
    g = random_gauge_field(nb, grid_of(64, nb=nb), modes=3, seed=4)
    assert g.unitaries.tobytes() == eigh_exp_i(g.generator).tobytes()
    assert expm_i(g.generator).tobytes() == g.unitaries.tobytes()


class EighCalled(Exception):
    """Raised by a patched np.linalg.eigh."""


def hermitian_stack(n, nb, seed=0):
    """A seeded (n, nb, nb) stack of Hermitian matrices."""
    x = np.random.default_rng(seed).normal(size=(2, n, nb, nb))
    x = x[0] + 1j * x[1]
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def audit_call(nb):
    field = (generic_two_band(LatticeSpec(n_cells=64, n_bands=2)) if nb == 2
             else eigenfield_from_hamiltonian(three_band_hamiltonian, grid_of(64, nb=3)))
    return lambda: gauge_audit(field, 0, 3, 3, 0.3)


#: each case returns the call under test; an input that needs eigh (the
#: audit's 3-band field) is built before eigh is patched
DISPATCH_CASES = {
    "eigenfield_from_stack": lambda nb: lambda: eigenfield_from_stack(hermitian_stack(64, nb),
                                                                      grid_of(64, nb=nb)),
    "qwz_pump": lambda nb: lambda: qwz_pump(LatticeSpec(n_cells=32, n_bands=2), 16),
    "random_gauge_field": lambda nb: lambda: random_gauge_field(nb, grid_of(64, nb=nb), 3, 4),
    "similarity_transform": lambda nb: lambda: similarity_transform(
        hermitian_stack(64, nb), random_gauge_field(nb, grid_of(64, nb=nb), 3, 4)),
    "gauge_audit": audit_call,
}


@pytest.mark.parametrize("name, nb", [(name, 2) for name in DISPATCH_CASES]
                         + [(name, 3) for name in DISPATCH_CASES if name != "qwz_pump"])
def test_two_bands_run_without_eigh(monkeypatch, name, nb):
    """At NB = 2 the eigen path, exp(i H), U M U^dag and the gauge audit
    take the closed forms of _su2: they run with np.linalg.eigh patched to
    raise.  At NB = 3 the same call reaches eigh (qwz_pump is two-band)."""
    call = DISPATCH_CASES[name](nb)

    def eigh(*args, **kwargs):
        raise EighCalled

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    if nb == 2:
        call()
    else:
        with pytest.raises(EighCalled):
            call()


@pytest.mark.slow
@pytest.mark.parametrize("nb", [2, 3])
@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_gauge_audit_sweep(n, nb):
    """Over N, modes, scale and NB every loop row is invariant; for NB = 2
    each trace loop is within 1e-14 (1 + |before|) of the same row
    recomputed with an eigh-built U."""
    spec = LatticeSpec(n_cells=n, lattice_constant=1.0, n_bands=nb)
    field = (generic_two_band(spec) if nb == 2
             else eigenfield_from_hamiltonian(three_band_hamiltonian, build_kgrid(spec)))
    grid, conn = field.grid, berry_connection(field).values
    for modes, scale in itertools.product((0, 3, 6), (0.2, 2.0)):
        rows = gauge_audit(field, 0, 4, modes, scale)
        assert all(r.invariant for r in rows if r.name != "diagonal_value"), (modes, scale)
        for r in (r for r in rows if nb == 2 and r.name == "trace_loop"):
            gen = random_gauge_field(nb, grid, modes, r.seed + 10_000, scale=scale).generator
            u = eigh_exp_i(gen)
            traced = np.einsum("pmi,pij,pmj->pm", u, conn, u.conj()).sum(axis=1) \
                + central_difference(np.trace(gen, axis1=1, axis2=2), grid.spacing)
            after = trace_loop(traced[:, None, None], grid)
            assert abs(r.after - after) <= 1e-14 * (1 + abs(r.before)), (modes, scale, r.seed)
