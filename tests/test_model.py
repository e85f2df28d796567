import numpy as np
import pytest

from crmatrix import (DegenerateRibbon, LatticeSpec, TwoBandAngles, build_kgrid,
                      eigenfield_from_hamiltonian, eigenfield_from_stack, fix_phase_gauge,
                      graphene_phases, honeycomb_phasor_sum, pump_family_from_angles,
                      pump_family_from_hamiltonian, pump_family_from_stack, two_band_field)
from crmatrix.model import two_band_columns
from crmatrix.presets import qwz_hamiltonian, qwz_pump
from crmatrix.rmatrix import central_difference

from conftest import smooth_field

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_kgrid_small_examples():
    g4 = build_kgrid(LatticeSpec(n_cells=4, lattice_constant=1.0))
    assert np.allclose(g4.points, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
    g1 = build_kgrid(LatticeSpec(n_cells=1, lattice_constant=2 * np.pi))
    assert np.allclose(g1.points, [0.0])
    assert g1.spacing == pytest.approx(1.0)


def test_kgrid_phase_sum_orthogonality():
    # direct summation over sites reproduces the discrete delta
    spec = LatticeSpec(n_cells=64, lattice_constant=1.0)
    g = build_kgrid(spec)
    rng = np.random.default_rng(3)
    for _ in range(10):
        p, q = rng.integers(0, 64, size=2)
        s = np.sum(np.exp(1j * (g.points[p] - g.points[q]) * spec.sites)) / 64
        assert abs(s - (1.0 if p == q else 0.0)) < 1e-12


def test_kgrid_invariants():
    spec = LatticeSpec(n_cells=16, lattice_constant=0.5)
    g = build_kgrid(spec)
    assert len(g.points) == 16
    assert np.all(np.diff(g.points) > 0)
    assert g.points[0] == 0.0 and g.points[-1] < 2 * np.pi / 0.5
    assert spec.rbar == pytest.approx(np.mean(spec.sites))


def test_two_band_identity_case():
    spec = LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    angles = TwoBandAngles(theta=lambda k: 0.0 * k, phi=lambda k: 0.0 * k)
    f = two_band_field(angles, grid)
    assert np.allclose(f.coeffs, np.eye(2), atol=1e-15)


def test_two_band_equator_moduli():
    spec = LatticeSpec(n_cells=16, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    angles = TwoBandAngles(theta=lambda k: np.full_like(k, np.pi / 2),
                           phi=lambda k: 1.3 * np.sin(k))
    f = two_band_field(angles, grid)
    assert np.allclose(np.abs(f.coeffs[:, 0, 0]), 1 / np.sqrt(2), atol=1e-15)
    assert np.allclose(np.abs(f.coeffs[:, 1, 0]), 1 / np.sqrt(2), atol=1e-15)


def test_two_band_columns_orthonormal():
    spec = LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    angles = TwoBandAngles(theta=lambda k: np.full_like(k, np.pi / 3),
                           phi=lambda k: np.full_like(k, np.pi / 4))
    f = two_band_field(angles, grid)
    for p in range(8):
        c = f.coeffs[p]
        assert abs(np.vdot(c[:, 0], c[:, 1])) < 1e-15
        assert abs(np.linalg.norm(c[:, 0]) - 1) < 1e-15
        assert abs(np.linalg.norm(c[:, 1]) - 1) < 1e-15


def test_two_band_rejects_bad_angles():
    spec = LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    with pytest.raises(ValueError):
        two_band_field(TwoBandAngles(theta=lambda k: k * np.nan, phi=lambda k: k), grid)
    with pytest.raises(ValueError):
        two_band_field(TwoBandAngles(theta=lambda k: 4.0 + 0 * k, phi=lambda k: k), grid)


@pytest.mark.parametrize("theta, phi, message", [
    (lambda k, lam: k * np.nan, lambda k, lam: k, "non-finite"),
    (lambda k, lam: 1.0 + 0 * k, lambda k, lam: k + np.nan, "non-finite"),
    (lambda k, lam: 5.0 + 0 * k, lambda k, lam: k, r"\[0, pi\]"),
], ids=["nan-theta", "nan-phi", "theta-5"])
def test_pump_family_from_angles_rejects_bad_angles(theta, phi, message):
    """The two-band column builder checks the angles for every builder, so a
    pump family cannot carry a NaN into pumped_charge or chern_number."""
    grid = build_kgrid(LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2))
    with pytest.raises(ValueError, match=message):
        pump_family_from_angles(theta, phi, grid, 4)


def test_field_unitarity_invariant():
    f = smooth_field(n_cells=32, seed=5)
    assert f.unitarity_defect() < 1e-12
    f.validate()


def test_analytic_derivatives_match_finite_differences():
    f = smooth_field(n_cells=256, seed=2)
    fd = central_difference(f.coeffs, f.grid.spacing, axis=0)
    assert np.max(np.abs(fd - f.dcoeffs)) < 5e-4  # O(dk^2) at N=256


def test_graphene_phases_zero_momentum():
    theta, phi = graphene_phases(0.0, 0.0, bond=1.0)
    assert theta == pytest.approx(np.pi / 2)
    assert phi == pytest.approx(0.0)


def test_graphene_phases_band_touching_error():
    ky = 4 * np.pi / (3 * np.sqrt(3))
    with pytest.raises(ZeroDivisionError):
        graphene_phases(0.0, ky, bond=1.0)


@pytest.mark.parametrize("radius", [0.05, 0.5])
def test_graphene_winding_independent_of_radius(radius):
    ky0 = 4 * np.pi / (3 * np.sqrt(3))
    t = 2 * np.pi * np.arange(12) / 12
    _, phi = graphene_phases(radius * np.cos(t), ky0 + radius * np.sin(t))
    inc = np.angle(np.exp(1j * np.diff(np.append(phi, phi[0]))))
    assert np.sum(inc) / (2 * np.pi) == pytest.approx(-1.0, abs=1e-9)


def test_phasor_sum_vanishes_at_touching_point():
    ky = 4 * np.pi / (3 * np.sqrt(3))
    assert abs(honeycomb_phasor_sum(0.0, ky)) < 1e-12


def test_eigenfield_constant_diagonal():
    spec = LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    f = eigenfield_from_hamiltonian(lambda k: np.diag([-1.0, 1.0]).astype(complex), grid)
    assert np.allclose(f.coeffs, np.eye(2), atol=1e-15)
    assert np.allclose(f.energies, [-1.0, 1.0])


def test_eigenfield_gapped_accepted():
    spec = LatticeSpec(n_cells=32, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    f = eigenfield_from_hamiltonian(lambda k: np.cos(k) * SZ + np.sin(k) * SX, grid,
                                    gap_tol=1e-6)
    assert np.allclose(f.energies[:, 0], -1.0, atol=1e-12)
    assert np.allclose(f.energies[:, 1], 1.0, atol=1e-12)


def test_eigenfield_degenerate_rejected():
    spec = LatticeSpec(n_cells=4, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    with pytest.raises(DegenerateRibbon):
        eigenfield_from_hamiltonian(lambda k: np.cos(k) * SZ, grid, gap_tol=1e-6)


def test_eigenfield_sorted_ascending():
    spec = LatticeSpec(n_cells=16, lattice_constant=1.0, n_bands=3)
    grid = build_kgrid(spec)
    rng = np.random.default_rng(0)
    base = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    base = base + base.conj().T + np.diag([0.0, 3.0, 6.0])

    f = eigenfield_from_hamiltonian(lambda k: base + 0.1 * np.cos(k) * np.eye(3), grid)
    assert np.all(np.diff(f.energies, axis=1) > 0)


def test_phase_fix_idempotent():
    rng = np.random.default_rng(7)
    c = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    c, _ = np.linalg.qr(c)
    once = fix_phase_gauge(c)
    twice = fix_phase_gauge(once)
    assert np.array_equal(once, twice)


def test_field_arrays_read_only():
    f = smooth_field(n_cells=8)
    with pytest.raises(ValueError):
        f.coeffs[0, 0, 0] = 1.0


# -- the batched eigen path against the per-point loops it replaced -----------
#
# ``ref_*`` below are the former per-point eigen-decomposition loop (without
# its guards), the per-column phase fix and the scalar qwz Hamiltonian, kept
# as the reference: the stacked path must give the same bytes.

def ref_fix_phase_gauge(coeffs):
    coeffs = np.array(coeffs, dtype=complex)
    flat = coeffs.reshape(-1, coeffs.shape[-2], coeffs.shape[-1])
    for c in flat:
        idx = np.argmax(np.abs(c), axis=0)
        for n in range(c.shape[1]):
            z = c[idx[n], n]
            if z.imag != 0.0 or z.real < 0.0:
                c[:, n] *= z.conjugate() / abs(z)
                c[idx[n], n] = abs(z)
    return coeffs


def ref_eigenfield(h, points, nb):
    coeffs = np.empty((len(points), nb, nb), dtype=complex)
    energies = np.empty((len(points), nb), dtype=float)
    for p, k in enumerate(points):
        w, v = np.linalg.eigh(np.asarray(h(k), dtype=complex))
        coeffs[p] = v
        energies[p] = w
    return ref_fix_phase_gauge(coeffs), energies


def ref_pump_family(h, points, n_lambda, nb):
    coeffs = np.empty((len(points), n_lambda, nb, nb), dtype=complex)
    energies = np.empty((len(points), n_lambda, nb), dtype=float)
    for j, lam in enumerate(np.arange(n_lambda) / n_lambda):
        coeffs[:, j], energies[:, j] = ref_eigenfield(lambda k: h(k, lam), points, nb)
    return coeffs, energies


def ref_qwz_hamiltonian(mu):
    tau_x = np.array([[0, 1], [1, 0]], dtype=complex)
    tau_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    tau_z = np.array([[1, 0], [0, -1]], dtype=complex)

    def h(k, lam):
        return (np.sin(k) * tau_x + np.sin(2.0 * np.pi * lam) * tau_y
                + (mu + np.cos(k) + np.cos(2.0 * np.pi * lam)) * tau_z)

    return h


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, n_lambda, mu", [
    (16, 8, -1.0), (33, 7, 0.7), (24, 12, 1.4), (20, 5, -3.0), (40, 9, 2.6),
])
def test_qwz_pump_equals_per_point_reference(n, n_lambda, mu):
    spec = LatticeSpec(n_cells=n, lattice_constant=1.0, n_bands=2)
    fam = qwz_pump(spec, n_lambda, mu=mu)
    coeffs, energies = ref_pump_family(ref_qwz_hamiltonian(mu), fam.grid.points, n_lambda, 2)
    assert_same_bytes(fam.coeffs, coeffs)
    assert_same_bytes(fam.energies, energies)


@pytest.mark.parametrize("mu", [-1.0, 0.7, -3.0])
def test_qwz_hamiltonian_on_arrays_equals_scalar_calls(mu):
    k = build_kgrid(LatticeSpec(n_cells=37, lattice_constant=1.0, n_bands=2)).points
    kk, ll = np.meshgrid(k, np.arange(11) / 11, indexing="ij")
    stacked = qwz_hamiltonian(mu)(kk, ll)
    for h in (qwz_hamiltonian(mu), ref_qwz_hamiltonian(mu)):
        scalar = np.array([[h(kv, lv) for kv, lv in zip(krow, lrow)]
                           for krow, lrow in zip(kk, ll)])
        assert_same_bytes(stacked, scalar)


def random_three_band(seed):
    """A gapped 3-band h(k, lam) with random Hermitian coefficient matrices."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    m = 0.15 * (m + np.conj(np.swapaxes(m, -1, -2)))
    m[0] += np.diag([-2.0, 0.0, 2.0])

    def h(k, lam):
        return (m[0] + np.cos(k) * m[1] + np.sin(k) * m[2]
                + np.cos(2.0 * np.pi * lam) * m[3])

    return h


@pytest.mark.parametrize("seed", range(4))
def test_random_three_band_family_equals_per_point_reference(seed):
    h = random_three_band(seed)
    grid = build_kgrid(LatticeSpec(n_cells=29, lattice_constant=1.0, n_bands=3))
    fam = pump_family_from_hamiltonian(h, grid, 6)
    coeffs, energies = ref_pump_family(h, grid.points, 6, 3)
    assert_same_bytes(fam.coeffs, coeffs)
    assert_same_bytes(fam.energies, energies)
    field = eigenfield_from_hamiltonian(lambda k: h(k, 0.25), grid)
    coeffs, energies = ref_eigenfield(lambda k: h(k, 0.25), grid.points, 3)
    assert_same_bytes(field.coeffs, coeffs)
    assert_same_bytes(field.energies, energies)


def phase_fix_cases():
    rng = np.random.default_rng(23)
    unitary, _ = np.linalg.qr(rng.normal(size=(300, 3, 3)) + 1j * rng.normal(size=(300, 3, 3)))
    # theta = pi/2 puts both components of a column at 1/sqrt(2) up to
    # round-off: near ties, and exact ones where phi is a multiple of pi/2
    phi = np.concatenate([rng.uniform(-np.pi, np.pi, 200), np.arange(-4, 5) * np.pi / 2])
    ties = two_band_columns(np.full(phi.shape, np.pi / 2), phi)
    ties = ties * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(len(phi), 1, 2)))
    # real orthogonal columns: real pivots of either sign, some exactly -1 or 1
    real, _ = np.linalg.qr(rng.normal(size=(200, 4, 4)))
    signs = np.where(rng.random(size=(200, 1, 4)) < 0.5, -1.0, 1.0)
    perms = np.array([np.eye(4)[rng.permutation(4)] for _ in range(50)])
    real = np.concatenate([real * signs, perms * signs[:50]]).astype(complex)
    # the same real columns with signed-zero imaginary parts
    signed_zero = real.real + 0j
    signed_zero.imag = np.where(rng.random(size=real.shape) < 0.5, -0.0, 0.0)
    return {"unitary": unitary, "near-ties": ties, "real-pivots": real,
            "signed-zero-imag": signed_zero, "4-d": unitary.reshape(30, 10, 3, 3)}


@pytest.mark.parametrize("case", ["unitary", "near-ties", "real-pivots", "signed-zero-imag",
                                  "4-d"])
def test_fix_phase_gauge_equals_per_column_reference(case):
    stack = phase_fix_cases()[case]
    assert_same_bytes(fix_phase_gauge(stack), ref_fix_phase_gauge(stack))


def test_stack_guards_name_the_first_bad_index():
    grid = build_kgrid(LatticeSpec(n_cells=4, lattice_constant=1.0, n_bands=2))
    hk = np.array([np.cos(k) * SZ + np.sin(k) * SX + 2 * SZ for k in grid.points])
    for value, message in ((np.inf, r"k index 2 has a non-finite entry \(0, 1\)"),
                           (np.nan, r"k index 2 has a non-finite entry \(0, 1\)"),
                           (0.5, "k index 2 not Hermitian")):
        bad = hk.copy()
        bad[2, 0, 1] = value
        with pytest.raises(ValueError, match=message):
            eigenfield_from_stack(bad, grid)
    with pytest.raises(ValueError, match="shape"):
        eigenfield_from_stack(hk[:3], grid)
    # the gap closes at (k, lambda) = (0, 1/2) and (pi, 0)
    qwz = qwz_hamiltonian(0.0)(*np.meshgrid(grid.points, np.arange(4) / 4, indexing="ij"))
    with pytest.raises(DegenerateRibbon, match="k index 0, lambda index 2"):
        pump_family_from_stack(qwz, grid)
