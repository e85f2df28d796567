import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crmatrix import (BlochField, LatticeSpec, NonHermitianInput,
                      berry_connection, build_kgrid, central_difference,
                      crystal_momentum_matrix, eigenfield_from_hamiltonian, position_matrix,
                      position_momentum_commutator, position_phase_sum,
                      random_gauge_field, reduced_position_matrix,
                      two_band_field)
from crmatrix.presets import identity_field

from conftest import on_grid, smooth_angles, smooth_field, three_band_hamiltonian


def closed_form_overlaps(th, ph, p, q):
    k11 = (np.cos(th[p] / 2) * np.cos(th[q] / 2)
           + np.sin(th[p] / 2) * np.sin(th[q] / 2) * np.exp(-1j * (ph[p] - ph[q])))
    k12 = (-np.cos(th[p] / 2) * np.sin(th[q] / 2) * np.exp(-1j * ph[q])
           + np.sin(th[p] / 2) * np.cos(th[q] / 2) * np.exp(-1j * ph[p]))
    return k11, k12


def test_band_overlap_closed_forms():
    spec = LatticeSpec(n_cells=64, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    angles = on_grid(smooth_angles(seed=12), grid)
    f = two_band_field(grid, *angles)
    th, ph = angles[:2]
    crm = position_matrix(f)
    s = position_phase_sum(grid)
    rng = np.random.default_rng(2)
    for _ in range(100):
        p, q = rng.choice(64, 2, replace=False)
        # off the momentum diagonal a CRM block is the overlap times S
        k = crm.block(p, q) / s[p, q]
        k11, k12 = closed_form_overlaps(th, ph, p, q)
        assert abs(k[0, 0] - k11) < 1e-12
        assert abs(k[0, 1] - k12) < 1e-12
        # the conjugation structure of the overlap factor
        assert abs(k[1, 1] - np.conj(k11)) < 1e-12
        assert abs(k[1, 0] + np.conj(k12)) < 1e-12


def rolled_difference(values, spacing, axis):
    """The central difference from two rolled copies."""
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * spacing)


@pytest.mark.parametrize("shape, axis", [
    ((7,), 0), ((1,), 0), ((2,), -1), ((5, 3, 2), 0), ((5, 3, 2), 1), ((5, 3, 2), -1),
    ((3, 6), 1), ((3, 6), -1), ((4, 1024), -1), ((1, 4), 0), ((2, 4), 0), ((0, 3), 0),
])
def test_central_difference_equals_the_rolled_form(shape, axis):
    """Written by slices, the wrapped difference has the bytes, dtype and
    shape of the rolled form, for float, complex, integer (which still
    promotes to float) and transposed input."""
    rng = np.random.default_rng(len(shape) * 10 + axis)
    real = rng.normal(size=shape)
    for values in (real, real + 1j * rng.normal(size=shape),
                   np.round(100 * real).astype(np.int64), rng.normal(size=shape[::-1]).T):
        got = central_difference(values, 0.3, axis=axis)
        want = rolled_difference(values, 0.3, axis)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_connection_constant_field_vanishes():
    f = identity_field(LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=3))
    conn = berry_connection(f)
    assert np.max(np.abs(conn.values)) < 1e-14


def test_connection_analytic_closed_forms():
    spec = LatticeSpec(n_cells=64, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    th, ph, dth, dph = on_grid(smooth_angles(seed=1), grid)
    f = two_band_field(grid, th, ph, dth, dph)
    a = berry_connection(f).values
    # diagonal from direct differentiation of the columns
    assert np.max(np.abs(a[:, 0, 0] - (-np.sin(th / 2) ** 2 * dph))) < 1e-12
    assert np.max(np.abs(a[:, 1, 1] - (np.sin(th / 2) ** 2 * dph))) < 1e-12
    # off-diagonal closed form
    a12 = -0.5j * np.exp(-1j * ph) * dth - 0.5 * np.sin(th) * np.exp(-1j * ph) * dph
    assert np.max(np.abs(a[:, 0, 1] - a12)) < 1e-12
    assert conn_is_hermitian(a)


def conn_is_hermitian(a, tol=1e-10):
    return np.max(np.abs(a - a.conj().transpose(0, 2, 1))) < tol


def test_connection_finite_difference_converges_quadratically():
    errs = {}
    for n in (64, 128):
        spec = LatticeSpec(n_cells=n, lattice_constant=1.0, n_bands=2)
        grid = build_kgrid(spec)
        fa = two_band_field(grid, *on_grid(smooth_angles(seed=6), grid))
        ffd = BlochField(grid=grid, coeffs=fa.coeffs)  # drop analytic derivatives
        errs[n] = np.max(np.abs(berry_connection(fa).values - berry_connection(ffd).values))
    assert errs[64] / errs[128] >= 3.5


def test_connection_fd_defect_reported_and_symmetrised():
    f = smooth_field(n_cells=64, seed=8)
    ffd = BlochField(grid=f.grid, coeffs=f.coeffs)
    conn = berry_connection(ffd)
    assert conn.hermiticity_defect > 0
    assert conn_is_hermitian(conn.values, tol=1e-14)  # after symmetrisation
    fan = berry_connection(f)
    assert fan.hermiticity_defect == 0.0
    # at NB = 3 the recorded defect is the whole max|A - A^dag| bit for bit
    f3 = eigenfield_from_hamiltonian(three_band_hamiltonian, build_kgrid(
        LatticeSpec(n_cells=32, lattice_constant=1.0, n_bands=3)))
    a = 1j * np.einsum("plm,pln->pmn", f3.coeffs.conj(),
                       central_difference(f3.coeffs, f3.grid.spacing, axis=0))
    defect = np.max(np.abs(a - a.conj().transpose(0, 2, 1)))
    assert defect > 0 and berry_connection(f3).hermiticity_defect == defect
    # a NaN coefficient reaches the recorded defect
    coeffs = f3.coeffs.copy()
    coeffs[5, 1, 2] = np.nan
    assert np.isnan(berry_connection(BlochField(grid=f3.grid, coeffs=coeffs)).hermiticity_defect)


def test_reduced_constant_field_is_mass_center():
    spec = LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2)
    f = identity_field(spec)
    r = reduced_position_matrix(f)
    assert np.allclose(r.values, spec.rbar * np.eye(2), atol=1e-14)


def test_reduced_diagonal_difference_mass_center_free():
    f = smooth_field(n_cells=32, seed=3)
    r = reduced_position_matrix(f).values
    a = berry_connection(f).values
    diff = r[:, 0, 0] - r[:, 1, 1]
    assert np.max(np.abs(diff - (a[:, 0, 0] - a[:, 1, 1]))) < 1e-12


def test_reduced_minus_connection_is_mass_center():
    f = smooth_field(n_cells=16, seed=2)
    r = reduced_position_matrix(f).values
    a = berry_connection(f).values
    rbar = f.grid.spec.rbar
    gap = r - a - rbar * np.eye(2)
    assert np.max(np.abs(gap)) <= 4 * np.finfo(float).eps * max(1.0, rbar)


def test_reduced_equator_diagonal():
    spec = LatticeSpec(n_cells=32, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    k = grid.points
    f = two_band_field(grid, np.full_like(k, np.pi / 2), k, 0.0 * k, np.ones_like(k))
    r = reduced_position_matrix(f).values
    assert np.max(np.abs(r[:, 0, 0] - (-0.5 + spec.rbar))) < 1e-12


def test_momentum_matrix():
    spec = LatticeSpec(n_cells=4, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    km = crystal_momentum_matrix(grid)
    assert np.allclose(km[0], 0.0)
    assert np.allclose(km[2], np.pi * np.eye(2))
    for p in range(4):
        assert np.trace(km[p]) == pytest.approx(2 * grid.points[p])


def test_commutator_identically_zero():
    for seed in (0, 1):
        f = smooth_field(n_cells=32, seed=seed)
        comm = position_momentum_commutator(f)
        assert np.max(np.abs(comm)) == 0.0
        # the canonical-pair value is missed by exactly |i I| per k point
        gap = comm - 1j * np.eye(2)
        assert np.allclose(np.linalg.norm(gap, axis=(1, 2)), np.sqrt(2))


def test_commutator_zero_on_graphene_loop():
    from crmatrix.presets import graphene_loop
    f = graphene_loop(LatticeSpec(n_cells=64, lattice_constant=1.0, n_bands=2))
    assert np.max(np.abs(position_momentum_commutator(f))) < 1e-14


def test_position_phase_sum_diagonal_and_hermiticity():
    # exact: the closed form pairs every offset with its conjugate bit for bit
    for n_cells in [*range(1, 131), 1536, 2048]:
        spec = LatticeSpec(n_cells=n_cells, lattice_constant=7.3, n_bands=1, origin=1e6)
        s = position_phase_sum(build_kgrid(spec))
        assert np.array_equal(np.diag(s), np.full(n_cells, spec.rbar)), n_cells
        assert np.array_equal(s, s.conj().T), n_cells


def test_position_matrix_constant_field_structure():
    # k-independent field: derivative term gone, blocks delta_mn * S(p, q)
    spec = LatticeSpec(n_cells=6, lattice_constant=1.0, n_bands=2)
    f = identity_field(spec)
    pm = position_matrix(f)
    s = position_phase_sum(f.grid)
    for p in range(6):
        for q in range(6):
            want = np.eye(2) * s[p, q]
            assert np.max(np.abs(pm.block(p, q) - want)) < 1e-13
    assert np.max(np.abs(pm.block(2, 2) - spec.rbar * np.eye(2))) < 1e-13


def test_position_matrix_hermitian_and_diag_blocks():
    f = smooth_field(n_cells=16, seed=4)
    pm = position_matrix(f)
    assert pm.hermiticity_defect < 1e-10
    red = reduced_position_matrix(f).values
    for p in range(16):
        assert np.max(np.abs(pm.block(p, p) - red[p])) < 1e-10


def test_position_matrix_equal_k_overlap_collapses():
    # the direct second-term sum lands on delta_mn * Rbar at p = q; this is
    # a consequence of column unitarity, asserted rather than assumed
    f = smooth_field(n_cells=12, seed=10)
    s = position_phase_sum(f.grid)
    for p in range(12):
        block = f.coeffs[p].conj().T @ f.coeffs[p] * s[p, p]
        assert np.max(np.abs(block - f.grid.spec.rbar * np.eye(2))) < 1e-12


def test_position_matrix_finite_everywhere():
    f = smooth_field(n_cells=24, seed=5)
    pm = position_matrix(f)
    assert np.all(np.isfinite(pm.entries.real))
    assert np.all(np.isfinite(pm.entries.imag))
    assert pm.dim == 48


# -- the block-row assembly against the whole-tensor assembly it replaced ----

def ref_position_phase_sum(grid):
    """S by direct DFT of the sites, every row at once: the closed form's
    reference up to round-off."""
    spec = grid.spec
    n = spec.n_cells
    offsets = np.arange(n)
    grid_phases = np.exp(2j * np.pi * np.outer(offsets, np.arange(n)) / n)
    per_offset = grid_phases @ spec.sites / n
    diff = np.arange(n)[:, None] - np.arange(n)[None, :]
    dk = grid.points[:, None] - grid.points[None, :]
    return np.exp(1j * dk * spec.origin) * per_offset[diff % n]


def ref_position_matrix(field):
    """The former assembly from the full (N, N, NB, NB) overlap tensor times
    the library's S, kept as the byte reference of the block-row assembly:
    returns (entries, hermiticity defect)."""
    nb, nk = field.n_bands, field.n_k
    conn = berry_connection(field)
    overlap = np.einsum("plm,qln->pqmn", field.coeffs.conj(), field.coeffs)
    blocks = overlap * position_phase_sum(field.grid)[:, :, None, None]
    blocks[np.arange(nk), np.arange(nk)] += conn.values
    entries = blocks.transpose(2, 0, 3, 1).reshape(nb * nk, nb * nk)
    return entries, float(np.max(np.abs(entries - entries.conj().T)))


def mixed_field(n_bands, n_cells, a, origin, analytic):
    """A k-dependent field with analytic column derivatives: two-band
    columns (plus e^{ika} as a third band), mixed by a fixed orbital
    rotation.  ``analytic=False`` drops the derivatives."""
    spec = LatticeSpec(n_cells=n_cells, lattice_constant=a, n_bands=n_bands, origin=origin)
    grid = build_kgrid(spec)
    two_grid = build_kgrid(LatticeSpec(n_cells=n_cells, lattice_constant=a, n_bands=2))
    two = two_band_field(two_grid, *on_grid(smooth_angles(seed=9, a=a), two_grid))
    coeffs = np.zeros((n_cells, n_bands, n_bands), dtype=complex)
    dcoeffs = np.zeros_like(coeffs)
    coeffs[:, :2, :2], dcoeffs[:, :2, :2] = two.coeffs, two.dcoeffs
    if n_bands == 3:
        coeffs[:, 2, 2] = np.exp(1j * grid.points * a)
        dcoeffs[:, 2, 2] = 1j * a * coeffs[:, 2, 2]
    rotation = random_gauge_field(n_bands, grid, modes=0, seed=4).unitaries[0]
    return BlochField(grid=grid, coeffs=rotation @ coeffs,
                      dcoeffs=rotation @ dcoeffs if analytic else None)


@pytest.mark.parametrize("n_cells", [1, 7, 64, 65, 130])
@pytest.mark.parametrize("n_bands", [2, 3])
@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "central-difference"])
@pytest.mark.parametrize("a, origin", [(1.0, 0.0), (1.3, -0.7)], ids=["unit", "shifted"])
def test_position_matrix_bytes_equal_whole_tensor_reference(n_cells, n_bands, analytic, a,
                                                            origin):
    field = mixed_field(n_bands, n_cells, a, origin, analytic)
    pm = position_matrix(field)
    entries, defect = ref_position_matrix(field)
    assert pm.entries.tobytes() == entries.tobytes()
    assert pm.hermiticity_defect == defect
    s = position_phase_sum(field.grid)
    assert np.array_equal(s, s.conj().T)
    scale = max(1.0, np.max(np.abs(field.grid.spec.sites)))
    assert np.max(np.abs(s - ref_position_phase_sum(field.grid))) <= 1e-14 * n_cells * scale


def phase_mixed_field(n_bands, n_cells, a, origin, analytic, seed):
    """Columns V D(k): a random diagonal phase field D with two Fourier
    modes behind a fixed unitary V, with exact derivatives V D'(k) when
    ``analytic``."""
    grid = build_kgrid(LatticeSpec(n_cells=n_cells, lattice_constant=a, n_bands=n_bands,
                                   origin=origin))
    phases = random_gauge_field(n_bands, grid, modes=2, seed=seed, diagonal=True)
    mix = random_gauge_field(n_bands, grid, modes=0, seed=seed + 1).unitaries[0]
    dphases = 1j * phases.generator_kderiv * phases.unitaries
    return BlochField(grid=grid, coeffs=mix @ phases.unitaries,
                      dcoeffs=mix @ dphases if analytic else None)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "central-difference"])
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(n_cells=st.integers(1, 200), n_bands=st.sampled_from([1, 2, 3]),
       a=st.floats(-2, 6).map(lambda e: 10.0 ** e), origin=st.floats(-1e6, 1e6),
       seed=st.integers(0, 2**16))
def test_overlap_term_spectrum_is_the_sites(analytic, n_cells, n_bands, a, origin, seed):
    """entries - blockdiag(A) is the overlap term, unitarily similar to
    diag(R_j) (x) I_NB: its spectrum is the sites, each NB-fold."""
    field = phase_mixed_field(n_bands, n_cells, a, origin, analytic, seed)
    overlap = position_matrix(field).entries.reshape(n_bands, n_cells, n_bands, n_cells).copy()
    diag = np.arange(n_cells)
    overlap[:, diag, :, diag] -= berry_connection(field).values
    spectrum = np.linalg.eigvalsh(overlap.reshape(n_bands * n_cells, -1))
    sites = field.grid.spec.sites
    error = np.max(np.abs(spectrum - np.sort(np.repeat(sites, n_bands))))
    assert error <= 1e-12 * max(1.0, np.max(np.abs(sites)))


def test_position_matrix_guard_names_peak_index():
    # a non-Hermitian connection at k points 40 and 30: i*2e-6 on A[2, 2]
    # (row 136, the last row stripe) and the larger i*3e-6 on A[1, 1] (row
    # 78, the middle stripe), which the guard must name at the default tolerance
    clean = mixed_field(3, 48, 1.3, 0.4, analytic=True)
    dcoeffs = clean.dcoeffs.copy()
    for p, m, eps in [(40, 2, 2e-6), (30, 1, 3e-6)]:
        dcoeffs[p, :, m] += eps * clean.coeffs[p, :, m]
    field = BlochField(grid=clean.grid, coeffs=clean.coeffs, dcoeffs=dcoeffs)
    entries, defect = ref_position_matrix(field)
    row, col = np.unravel_index(np.argmax(np.abs(entries - entries.conj().T)), entries.shape)
    assert (row, col) == (78, 78)
    with pytest.raises(NonHermitianInput) as info:
        position_matrix(field)
    assert str(info.value) == (f"position matrix Hermiticity defect {defect:.3e} > 1.3e-10 "
                               "at (m, p, n, q) = (1, 30, 1, 30)")


@pytest.mark.parametrize("n_bands, n_cells, p, m", [(2, 8, 3, 0), (3, 48, 40, 2)])
def test_position_matrix_guard_rejects_nan(n_bands, n_cells, p, m):
    """One NaN coefficient never passes the guard: the defect is NaN, and the
    guard names the first NaN of |E - E^dag| in C order, across row stripes."""
    clean = mixed_field(n_bands, n_cells, 1.0, 0.0, analytic=True)
    coeffs = clean.coeffs.copy()
    coeffs[p, 1, m] = np.nan
    field = BlochField(grid=clean.grid, coeffs=coeffs, dcoeffs=clean.dcoeffs)
    entries, _ = ref_position_matrix(field)
    bad = np.isnan(entries - entries.conj().T)
    (m0, p0), (n0, q0) = (divmod(int(i), n_cells)
                          for i in np.unravel_index(np.argmax(bad), bad.shape))
    with pytest.raises(NonHermitianInput) as info:
        position_matrix(field)
    assert str(info.value) == ("position matrix Hermiticity defect nan > 1e-10 "
                               f"at (m, p, n, q) = ({m0}, {p0}, {n0}, {q0})")


@pytest.mark.parametrize("field", [smooth_field(n_cells=512, seed=4),
                                   identity_field(LatticeSpec(n_cells=1024, n_bands=1))],
                         ids=["two-band-512", "identity-1024"])
def test_position_matrix_memory_stays_near_output_size(field):
    """Beyond its (NB*N)^2 entries the assembly holds only a block of rows."""
    tracemalloc.start()
    try:
        pm = position_matrix(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * pm.entries.nbytes
