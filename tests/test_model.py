import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crmatrix import (DegenerateRibbon, LatticeSpec, build_kgrid,
                      eigenfield_from_hamiltonian, eigenfield_from_stack, fix_phase_gauge,
                      graphene_phases, honeycomb_phasor_sum, pump_family_from_angles,
                      pump_family_from_hamiltonian, pump_family_from_stack, two_band_field)
from crmatrix._su2 import defect as _stack_hermiticity_defect, eigh as _two_band_eigh
from crmatrix.model import stack_unitarity_defect, two_band_columns
from crmatrix.presets import DIRAC_POINT, graphene_loop, qwz_hamiltonian, qwz_pump
from crmatrix.rmatrix import central_difference, link_overlaps

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
    f = two_band_field(grid, 0.0 * grid.points, 0.0 * grid.points)
    assert np.allclose(f.coeffs, np.eye(2), atol=1e-15)


def test_two_band_equator_moduli():
    spec = LatticeSpec(n_cells=16, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    f = two_band_field(grid, np.full_like(grid.points, np.pi / 2), 1.3 * np.sin(grid.points))
    assert np.allclose(np.abs(f.coeffs[:, 0, 0]), 1 / np.sqrt(2), atol=1e-15)
    assert np.allclose(np.abs(f.coeffs[:, 1, 0]), 1 / np.sqrt(2), atol=1e-15)


def test_two_band_columns_orthonormal():
    spec = LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    f = two_band_field(grid, np.full_like(grid.points, np.pi / 3),
                       np.full_like(grid.points, np.pi / 4))
    for p in range(8):
        c = f.coeffs[p]
        assert abs(np.vdot(c[:, 0], c[:, 1])) < 1e-15
        assert abs(np.linalg.norm(c[:, 0]) - 1) < 1e-15
        assert abs(np.linalg.norm(c[:, 1]) - 1) < 1e-15


def test_two_band_rejects_bad_angles():
    spec = LatticeSpec(n_cells=8, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    with pytest.raises(ValueError):
        two_band_field(grid, grid.points * np.nan, grid.points)
    with pytest.raises(ValueError):
        two_band_field(grid, 4.0 + 0 * grid.points, grid.points)
    with pytest.raises(ValueError, match="angle arrays of shapes"):
        two_band_field(grid, np.full(16, 1.0), np.zeros(16))
    with pytest.raises(ValueError, match="derivatives produced non-finite"):
        two_band_field(grid, 1.0 + 0 * grid.points, grid.points, 0 * grid.points,
                       grid.points + np.nan)


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
    theta, phi, _ = graphene_phases(0.0, 0.0, bond=1.0)
    assert theta == pytest.approx(np.pi / 2)
    assert phi == pytest.approx(0.0)


def test_graphene_phases_band_touching_error():
    ky = 4 * np.pi / (3 * np.sqrt(3))
    with pytest.raises(DegenerateRibbon):
        graphene_phases(0.0, ky, bond=1.0)


def test_graphene_phases_at_the_dirac_point_is_degenerate():
    with pytest.raises(DegenerateRibbon, match="k index 0"):
        graphene_phases(*DIRAC_POINT)
    # the message names the first touching point of an array
    kx, ky = np.array([0.0, 0.3, DIRAC_POINT[0]]), np.array([0.0, 0.2, DIRAC_POINT[1]])
    with pytest.raises(DegenerateRibbon, match="k index 2"):
        graphene_phases(kx, ky)


def test_graphene_loop_requires_a_two_band_spec():
    with pytest.raises(ValueError, match="2-band"):
        graphene_loop(LatticeSpec(8, 1.0, 3))


@pytest.mark.parametrize("radius", [0.05, 0.5])
def test_graphene_winding_independent_of_radius(radius):
    ky0 = 4 * np.pi / (3 * np.sqrt(3))
    t = 2 * np.pi * np.arange(12) / 12
    _, phi, _ = graphene_phases(radius * np.cos(t), ky0 + radius * np.sin(t))
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
    f = eigenfield_from_hamiltonian(lambda k: np.cos(k) * SZ + np.sin(k) * SX, grid)
    assert np.allclose(f.energies[:, 0], -1.0, atol=1e-12)
    assert np.allclose(f.energies[:, 1], 1.0, atol=1e-12)


def test_eigenfield_degenerate_rejected():
    spec = LatticeSpec(n_cells=4, lattice_constant=1.0, n_bands=2)
    grid = build_kgrid(spec)
    with pytest.raises(DegenerateRibbon):
        eigenfield_from_hamiltonian(lambda k: np.cos(k) * SZ, grid)


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
# its guards), the per-column phase fix, the NB = 2 closed form and the scalar
# qwz Hamiltonian, kept as the reference: the stacked path must give the same
# bytes.

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


def ref_two_band_eigh(hk):
    """The NB = 2 closed form of a gapped (P, 2, 2) stack: energies t -+ r;
    in each column the component of modulus L = sqrt((1 + |d| / r) / 2) is
    real and positive (the first at a tie, d = 0), the other is
    s = (c / r) / 2L up to conjugate and sign, and L is raised just above
    np.abs(s) where round-off puts it below."""
    h00, h11, c = hk[:, 0, 0].real, hk[:, 1, 1].real, hk[:, 1, 0]
    t, d = 0.5 * h00 + 0.5 * h11, 0.5 * h00 - 0.5 * h11
    r = np.hypot(d, np.abs(c))
    big = np.sqrt(0.5 + 0.5 * (np.abs(d) / r))
    small = np.empty_like(c)
    small.real, small.imag = c.real / r, c.imag / r
    small *= 0.5 / big
    big = np.maximum(big, np.nextafter(np.abs(small), np.inf))
    coeffs = np.empty(hk.shape, dtype=complex)
    lower = d <= 0.0  # the lower band's pivot is its first component
    coeffs[lower, 0, 0], coeffs[lower, 1, 0] = big[lower], -small[lower]
    coeffs[~lower, 0, 0], coeffs[~lower, 1, 0] = -small[~lower].conj(), big[~lower]
    upper = d >= 0.0  # so is the upper band's
    coeffs[upper, 0, 1], coeffs[upper, 1, 1] = big[upper], small[upper]
    coeffs[~upper, 0, 1], coeffs[~upper, 1, 1] = small[~upper].conj(), big[~upper]
    return coeffs, np.stack([t - r, t + r], axis=-1)


def ref_eigenfield(h, points, nb):
    coeffs = np.empty((len(points), nb, nb), dtype=complex)
    energies = np.empty((len(points), nb), dtype=float)
    for p, k in enumerate(points):
        hk = np.asarray(h(k), dtype=complex)
        if nb == 2:
            (coeffs[p],), (energies[p],) = ref_two_band_eigh(hk[None])
        else:
            energies[p], vectors = np.linalg.eigh(hk)
            coeffs[p] = ref_fix_phase_gauge(vectors)
    return coeffs, energies


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


def test_qwz_hamiltonian_keeps_the_signed_zeros_of_the_pauli_sum():
    # at mu = 0 the tau_z coefficient cancels to +0 on this grid, and -0.0
    # inputs make -0 Pauli terms; every zero keeps the sum's sign
    edge = np.array([0.0, -0.0, 0.5, -0.5, np.pi, -np.pi])
    k = np.concatenate((build_kgrid(LatticeSpec(384, 1.0, 2)).points, edge))
    lam = np.concatenate((np.arange(96) / 96, edge))
    kk, ll = np.meshgrid(k, lam, indexing="ij")
    for mu in (0.0, -1.0):
        assert_same_bytes(qwz_hamiltonian(mu)(kk, ll),
                          ref_qwz_hamiltonian(mu)(kk[..., None, None], ll[..., None, None]))


def whole_stack_pump(hk):
    """The eigen path with each step over the whole stack at once."""
    nb = hk.shape[-1]
    if nb == 2:
        coeffs, energies = ref_two_band_eigh(hk.reshape(-1, 2, 2))
        return coeffs.reshape(hk.shape), energies.reshape(hk.shape[:-1])
    energies, coeffs = np.linalg.eigh(hk)
    return fix_phase_gauge(coeffs), energies


def whole_stack_links(cols, axis):
    return np.einsum("...l,...l->...", cols.conj(), np.roll(cols, -1, axis=axis))


def pump_stack(grid, n_lambda, model):
    """h(k_p, lambda_j) of the qwz pump at mu = ``model``, or of
    :func:`random_three_band`, stacked over the torus grid."""
    k, lam = np.meshgrid(grid.points, np.arange(n_lambda) / n_lambda, indexing="ij")
    if model == "three-band":
        return random_three_band(0)(k[..., None, None], lam[..., None, None])
    return qwz_hamiltonian(model)(k, lam)


@pytest.mark.parametrize("n, n_lambda, model", [
    (40, 50, -1.0),  # 2,000 points: one block, every stack-sized array below 256 KiB
    (97, 61, 1.4),  # 5,917 points: the second block ends mid-block
    (128, 130, -3.0),  # 16,640 points: the links too pass 256 KiB
    (97, 61, "three-band"),  # the eigh route, against eigh of the whole stack
])
def test_blocked_eigen_path_and_links_equal_whole_stack_reference(n, n_lambda, model):
    nb = 3 if model == "three-band" else 2
    grid = build_kgrid(LatticeSpec(n_cells=n, lattice_constant=1.0, n_bands=nb))
    hk = pump_stack(grid, n_lambda, model)
    coeffs, energies = whole_stack_pump(hk)
    families = [pump_family_from_stack(hk, grid)]
    if nb == 2:
        families.append(qwz_pump(grid.spec, n_lambda, mu=model))
    for fam in families:
        assert_same_bytes(fam.coeffs, coeffs)
        assert_same_bytes(fam.energies, energies)
    field = eigenfield_from_stack(hk.reshape(-1, nb, nb)[:n], grid)
    assert_same_bytes(field.coeffs, coeffs.reshape(-1, nb, nb)[:n])
    for band in range(nb):
        for axis in range(2):
            assert_same_bytes(link_overlaps(fam.coeffs[..., band], axis),
                              whole_stack_links(coeffs[..., band], axis))
    ribbon = coeffs.reshape(-1, nb, nb)[..., 0]  # up to 16,640 points: several blocks of rows
    assert_same_bytes(link_overlaps(ribbon, 0), whole_stack_links(ribbon, 0))


@pytest.mark.parametrize("value, message", [
    (np.nan, r"hamiltonian at k index 60, lambda index 10 has a non-finite entry \(0, 1\): "
             r"\(nan\+0j\)$"),
    (0.5, r"hamiltonian at k index 60, lambda index 10 not Hermitian: "
          r"defect 1\.131e\+00 > 3\.000e-12$"),
    (None, r"eigenvalue gap 0\.000e\+00 is not above its limit 3\.000e-08 "
           r"at k index 60, lambda index 10$"),
], ids=["non-finite", "not-hermitian", "closed-gap"])
def test_guards_in_the_last_block_name_the_whole_stack_index(value, message):
    grid = build_kgrid(LatticeSpec(n_cells=64, lattice_constant=1.0, n_bands=2))
    hk = qwz_hamiltonian(-1.0)(*np.meshgrid(grid.points, np.arange(80) / 80, indexing="ij"))
    # point 60 * 80 + 10 = 4,810 of 5,120: past the first 4,096-matrix block
    if value is None:
        hk[60, 10] = np.eye(2)
    else:
        hk[60, 10, 0, 1] = value
    error = DegenerateRibbon if value is None else ValueError
    with pytest.raises(error, match=message):
        pump_family_from_stack(hk, grid)


@pytest.mark.parametrize("n, n_lambda, mu, rows, lambdas", [
    (50, 97, 0.7, [0, 41, 42, 49], range(97)),  # 42 rows a block: 97 does not divide 4,096
    (3, 5000, -1.0, [0, 1, 2], [0, 4095, 4096, 4999]),  # a row longer than a block
], ids=["rows-not-dividing-a-block", "row-longer-than-a-block"])
def test_qwz_pump_row_blocks_equal_the_per_point_reference(n, n_lambda, mu, rows, lambdas):
    """Every point against the whole-stack closed form of the Pauli sum, and
    the points of the rows on each side of a block edge against the
    per-point reference; the stack source takes the same row blocks."""
    spec = LatticeSpec(n_cells=n, lattice_constant=1.0, n_bands=2)
    fam = qwz_pump(spec, n_lambda, mu=mu)
    k, lam = np.meshgrid(fam.grid.points, np.arange(n_lambda) / n_lambda, indexing="ij")
    hk = ref_qwz_hamiltonian(mu)(k[..., None, None], lam[..., None, None])
    coeffs, energies = whole_stack_pump(hk)
    for got in (fam, pump_family_from_stack(hk, fam.grid)):
        assert_same_bytes(got.coeffs, coeffs)
        assert_same_bytes(got.energies, energies)
    h = ref_qwz_hamiltonian(mu)
    for j in lambdas:
        ref = ref_eigenfield(lambda kv: h(kv, j / n_lambda), fam.grid.points[rows], 2)
        assert_same_bytes(fam.coeffs[rows, j], ref[0])
        assert_same_bytes(fam.energies[rows, j], ref[1])


OVERFLOWS = 1.5e308 * (1 + 1j)  #: a finite entry whose modulus overflows


@pytest.mark.parametrize("bad, overflow, message", [
    ((60, 10, 0, 1, np.nan), (60, 5, 1, 0),
     "hamiltonian at k index 60, lambda index 10 has a non-finite entry (0, 1): (nan+0j)"),
    ((60, 10, 1, 1, np.inf), (55, 5, 0, 1),
     "hamiltonian at k index 60, lambda index 10 has a non-finite entry (1, 1): (inf+0j)"),
    ((60, 10, 1, 0, complex(1.0, np.nan)), (61, 5, 0, 1),
     "hamiltonian at k index 60, lambda index 10 has a non-finite entry (1, 0): (1+nanj)"),
    ((60, 5, 0, 1, np.nan), (10, 10, 1, 0),
     "hamiltonian at k index 60, lambda index 5 has a non-finite entry (0, 1): (nan+0j)"),
], ids=["nan-after-overflow", "inf-after-overflow", "nan-before-overflow",
        "overflow-in-an-earlier-block"])
def test_non_finite_entry_is_named_past_an_overflowing_modulus(bad, overflow, message):
    """One np.abs per block checks finiteness; a finite entry whose modulus
    overflows, in the same block or an earlier one, does not hide the
    non-finite entry or change its message."""
    grid = build_kgrid(LatticeSpec(n_cells=64, lattice_constant=1.0, n_bands=2))
    hk = qwz_hamiltonian(-1.0)(*np.meshgrid(grid.points, np.arange(80) / 80, indexing="ij"))
    hk[bad[:4]], hk[overflow] = bad[4], OVERFLOWS  # 51 rows a block: row 60 is in the second
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        pump_family_from_stack(hk, grid)


@pytest.mark.parametrize("entries, error, message", [
    ({(0, 0): 1e308, (1, 1): -1e308}, FloatingPointError, None),  # the gap overflows
    ({(0, 1): 1e308, (1, 0): -1e308}, FloatingPointError, None),  # H - H^dag overflows
    ({(0, 0): 1e308j}, FloatingPointError, None),  # its diagonal overflows
    ({(0, 1): OVERFLOWS, (1, 0): np.conj(OVERFLOWS)}, FloatingPointError,
     "hamiltonian at k index 60, lambda index 10 has an entry (0, 1) whose modulus overflows: "
     "(1.5e+308+1.5e+308j)"),
], ids=["gap", "hermiticity-difference", "imaginary-diagonal", "modulus-only"])
def test_finite_overflowing_stacks_raise_as_before(entries, error, message):
    """A finite stack that overflows in the Hermiticity difference or the
    gaps raises FloatingPointError; so does one whose only overflow is |H|,
    naming the first entry whose modulus overflows, with its index and
    value."""
    grid = build_kgrid(LatticeSpec(n_cells=64, lattice_constant=1.0, n_bands=2))
    hk = qwz_hamiltonian(-1.0)(*np.meshgrid(grid.points, np.arange(80) / 80, indexing="ij"))
    for (i, j), value in entries.items():
        hk[60, 10, i, j] = value
    with pytest.raises(error, match=None if message is None else "^" + re.escape(message) + "$"):
        pump_family_from_stack(hk, grid)


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


#: a matrix scale: subnormal, small, 1 or near the top of the float range
DEFECT_SCALE = st.sampled_from([1e-310, 1e-150, 1.0, 1e300])
DEFECT_ENTRY = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e-10, 1e-10),
                         st.floats(-1e3, 1e3))
#: NB from 1 to 4, and 1 to 8 NB x NB matrices, each a scale and 2 NB^2 entries
DEFECT_STACK = st.integers(1, 4).flatmap(lambda nb: st.tuples(st.just(nb), st.lists(
    st.tuples(DEFECT_SCALE, *[DEFECT_ENTRY] * (2 * nb * nb)), min_size=1, max_size=8)))


@settings(max_examples=20, deadline=None)
@given(DEFECT_STACK)
@example((2, [(1e300, 0.0, -1e3, 2e3, 1e3, 1e3, -1e3, 1e3, 1e3)]))
@example((2, [(1e-310, 1.5, -0.0, 0.5, 2.5, 0.3, -0.7, 1e-10, 0.0)]))
@example((2, [(1.0, 0.3, 0.0, 0.1, 0.0, 0.4, 0.3, 0.0, 0.0),
              (1.0, 0.0, 1e-10, 0.0, -1e-10, 0.0, 0.0, 1e-10, -1e-10)]))
@example((1, [(1e300, 1e3, -1e3), (1e-310, 0.0, -0.0)]))
@example((2, [(1e305, 0.0, 1e3, 0.0, -0.0, 1e3, 0.0, 0.0, 0.0)]))  # 2 Im H00 overflows
@example((3, [(1e300, *[1e3, -1e3] * 3, *[1e3, -1e3, 1e3, 1e3] * 3)]))
def test_hermiticity_defect_equals_the_full_difference(stack):
    """The entry-pair pass, 2|Im H_ii| and |H_ij - conj H_ji| for i < j, is
    max|H - H^dag| bit for bit at NB 1 to 4, on Hermitian, near-Hermitian and
    non-Hermitian matrices from subnormal to 1e303 entries, overflowing
    subtractions included."""
    nb, entries = stack
    scale, *columns = np.array(entries).T
    columns = iter([scale * column for column in columns])
    h = np.empty((len(entries), nb, nb), dtype=complex)
    for i in range(nb):
        h.real[:, i, i], h.imag[:, i, i] = next(columns), next(columns)
        for j in range(i):
            re_c, im_c, re_e, im_e = (next(columns) for _ in range(4))
            h.real[:, i, j], h.imag[:, i, j] = re_c, im_c
            # H_ji is conj H_ij plus the error (re_e, im_e)
            h.real[:, j, i], h.imag[:, j, i] = re_c + re_e, -im_c + im_e
    got = np.empty(len(h))
    with np.errstate(over="ignore"):
        _stack_hermiticity_defect(h, got)
        want = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()), axis=(-2, -1))
    assert_same_bytes(got, want)


#: an entry of t I + d sigma_z + (Re c) sigma_x + (Im c) sigma_y: exactly
#: zero, near 1e-10, or up to 1e3; each matrix is scaled by 1e-150, 1 or 1e150,
#: which can take its entries into the subnormal range
TWO_BAND_ENTRY = st.one_of(st.just(0.0), st.floats(-1e-10, 1e-10), st.floats(-1e3, 1e3))
TWO_BAND_SCALE = st.sampled_from([1e-150, 1.0, 1e150])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(TWO_BAND_SCALE, TWO_BAND_ENTRY, TWO_BAND_ENTRY, TWO_BAND_ENTRY,
                          TWO_BAND_ENTRY), min_size=1, max_size=8))
@example([(1.0, 0.3, 0.0, 0.8, -0.6), (1.0, -1.0, 0.0, 0.0, 1e-10), (1.0, 0.0, 0.0, -2.0, 0.0)])
@example([(1.0, 0.5, 0.7, 0.0, 0.0), (1.0, 0.5, -0.7, 0.0, 0.0), (1.0, 0.0, -1e-10, 0.0, 0.0)])
@example([(1e150, 1e3, -2.0, 1.5, 0.5), (1e-150, -3.0, 1e3, 1e-10, 7.0), (1e150, 0.0, 0.0, 1e3, 1e3)])
@example([(1.0, 1e3, 1e-10, 2e-10, -1e-10), (1.0, -1e3, 0.4, 0.3, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0)])
@example([(1e-150, 0.0, 0.0, 7.4e-165, 7.4e-165), (1e-150, 0.0, 7.4e-165, 0.0, 0.0)])
@example([(1e150, 1.3e-11, 0.0, 0.0, 0.0), (1e150, 1e3, 0.0, 1e-300, 0.0)])
@example([(1.0, 0.0, d, 0.6534234950126798, -0.379878965856145)  # |s| rounds above L
          for d in (0.0, 7.558242471200032e-19, -7.558242471200032e-19)])
def test_two_band_closed_form_matches_eigh(entries):
    """The NB = 2 eigen path's closed form: energies within 8 eps max|H| of
    eigh's, plus a few subnormal steps, where halving and hypot round;
    columns within 16 eps max|H| / gap of eigh's phase-fixed ones,
    except where |d| <= 32 eps max|H|, where the pivot of eigh's column is
    round-off; unitary to 1e-14 where H is not scalar; and already in the
    gauge of fix_phase_gauge, ties included: at d = 0 both columns take
    their first component as the pivot."""
    scale, t, d, re, im = np.array(entries).T
    h = np.empty((len(entries), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = scale * (t + d), scale * (t - d)
    h[:, 1, 0] = scale * re + 1j * (scale * im)
    h[:, 0, 1] = h[:, 1, 0].conj()
    energies, coeffs = np.empty((len(h), 2)), np.empty_like(h)
    _two_band_eigh(h, energies, coeffs)
    w, v = np.linalg.eigh(h)
    eps, size = np.finfo(float).eps, np.max(np.abs(h), axis=(1, 2))
    assert np.all(np.max(np.abs(energies - w), axis=1)
                  <= 8 * eps * size + 8 * np.finfo(float).smallest_subnormal)
    half_difference = 0.5 * h[:, 0, 0].real - 0.5 * h[:, 1, 1].real
    gap = w[:, 1] - w[:, 0]
    pivoted = (gap > 0) & (np.abs(half_difference) > 32 * eps * size)
    error = np.max(np.abs(coeffs - fix_phase_gauge(v)), axis=(1, 2))
    assert np.all(error[pivoted] <= 16 * eps * (size[pivoted] / gap[pivoted]))
    scalar = (half_difference == 0) & (h[:, 1, 0] == 0)
    if not scalar.all():
        assert stack_unitarity_defect(coeffs[~scalar]) <= 1e-14
    assert fix_phase_gauge(coeffs).tobytes() == coeffs.tobytes()
    tie = coeffs[(half_difference == 0) & ~scalar]
    assert np.all((tie[:, 0].imag == 0) & (tie[:, 0].real > np.abs(tie[:, 1])))
