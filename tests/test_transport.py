import tracemalloc

import numpy as np
import pytest

from crmatrix import gauge, transport
from crmatrix import (BlochField, BranchTrackingError, ConnectionField, DriveSpec,
                      LatticeSpec, OccupationSpec, UnderResolvedGrid,
                      ZeroOverlap, berry_phase, build_kgrid, chern_number,
                      eigenfield_from_hamiltonian, gauge_audit, gauge_transform,
                      link_overlaps,
                      pump_family_from_angles, pump_family_from_hamiltonian,
                      pumped_charge, random_gauge_field,
                      reduced_position_matrix, shift_current_spectrum,
                      shift_vector_field, two_band_field)
from crmatrix.errors import MissingEnergies
from crmatrix.presets import graphene_loop, qwz_pump
from crmatrix.transport import SpectrumResult, _track_branch

from conftest import smooth_field, three_band_hamiltonian

OCC = OccupationSpec([0.0, 1.0])  # band 0 is the upper band in these presets


def drive(lo=0.5, hi=3.5, count=101, eta=0.05):
    return DriveSpec(np.linspace(lo, hi, count), 1.0, eta)


def massive_loop(n_cells, mass=0.3):
    return graphene_loop(LatticeSpec(n_cells, 1.0, 2), mass=mass)


def gauged_connection(field, seed, scale=0.3, diagonal=True):
    conn = reduced_position_matrix(field)
    g = random_gauge_field(2, field.grid, modes=3, seed=seed, scale=scale,
                           diagonal=diagonal)
    return ConnectionField(grid=field.grid, values=gauge_transform(conn.values, g))


# -- specs ------------------------------------------------------------------


def test_occupation_validation():
    with pytest.raises(ValueError):
        OccupationSpec([0.0, 1.5])
    occ = OccupationSpec([[0.0, 1.0]] * 4)
    assert occ.difference(0, 1, 4) == pytest.approx(np.ones(4))


def test_drive_validation():
    with pytest.raises(ValueError):
        DriveSpec([2.0, 1.0], 1.0, 0.1)
    with pytest.raises(ValueError):
        DriveSpec([1.0, 2.0], 1.0, 0.0)


def test_lorentzian_unit_area():
    x = np.linspace(-400, 400, 4_000_001)
    area = np.trapezoid(DriveSpec([1.0], 1.0, 0.05).lorentzian(x), x)
    assert area == pytest.approx(1.0, abs=1e-3)


# -- shift vector ------------------------------------------------------------


def test_shift_vector_constant_under_global_reshuffles():
    # constant theta, linear phi; k-independent diagonal phases leave every
    # ingredient bit-identical up to rounding
    spec = LatticeSpec(64, 1.0, 2)
    grid = build_kgrid(spec)
    f = two_band_field(grid, np.full_like(grid.points, 1.0), grid.points)
    base, defined = shift_vector_field(f, 0, 1)
    assert np.all(defined)
    conn = reduced_position_matrix(f)
    rng = np.random.default_rng(0)
    spread = 0.0
    for _ in range(50):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        u = np.broadcast_to(np.diag(phases), (64, 2, 2))
        vals = np.einsum("pmi,pij,pnj->pmn", u, conn.values, u.conj())
        shifted, _ = shift_vector_field(f, 0, 1, connection=ConnectionField(
            grid=grid, values=vals))
        spread = max(spread, np.max(np.abs(shifted - base)))
    assert spread < 1e-8


def test_shift_vector_real_family_vanishes():
    # phi = 0 everywhere: off-diagonal phase locked, diagonals equal
    spec = LatticeSpec(128, 1.0, 2)
    grid = build_kgrid(spec)
    k = grid.points
    f = two_band_field(grid, 1.2 + 0.5 * np.sin(k), 0.0 * k, 0.5 * np.cos(k), 0.0 * k)
    values, defined = shift_vector_field(f, 0, 1)
    assert np.sum(~defined) > 0  # the theta' sign changes are excluded
    assert np.max(np.abs(values[defined])) == 0.0


def test_shift_vector_antisymmetric():
    f = massive_loop(128)
    r01, d01 = shift_vector_field(f, 0, 1)
    r10, d10 = shift_vector_field(f, 1, 0)
    both = d01 & d10
    assert np.max(np.abs(r01[both] + r10[both])) < 1e-12


def test_shift_vector_undefined_point_is_masked():
    spec = LatticeSpec(64, 1.0, 2)
    grid = build_kgrid(spec)
    f = two_band_field(grid, 1.2 + 0.5 * np.sin(grid.points), 0.0 * grid.points)
    values, defined = shift_vector_field(f, 0, 1)
    assert not defined.all() and defined.any()
    assert np.all(np.isnan(values[~defined]))
    assert np.all(np.isfinite(values[defined]))


def test_shift_vector_gauge_invariant_k_dependent_diagonal():
    f = massive_loop(128)
    base, defined = shift_vector_field(f, 0, 1)
    for seed in range(5):
        vals, d2 = shift_vector_field(f, 0, 1, connection=gauged_connection(f, seed))
        assert np.array_equal(defined, d2)
        assert np.max(np.abs(vals[defined] - base[defined])) < 1e-10


# -- shift current spectrum ----------------------------------------------------


def test_spectrum_pauli_blocked():
    f = massive_loop(64)
    res = shift_current_spectrum(f, OccupationSpec([0.5, 0.5]), drive())
    assert np.all(res.currents == 0.0)


def test_spectrum_requires_energies():
    f = smooth_field(n_cells=32, seed=0)
    with pytest.raises(MissingEnergies):
        shift_current_spectrum(f, OCC, drive())


def test_spectrum_off_resonance_bounded_by_tail():
    # far above every resonance the Lorentzian is below its tail
    # eta / (pi (w_mn - w)^2) at each k, so |J| is below the tail sum
    f = massive_loop(64)
    eta = 0.02
    w_mn = f.energies[:, 0] - f.energies[:, 1]
    omega = w_mn.max() + 8.0
    res = shift_current_spectrum(f, OCC, DriveSpec([omega], 1.0, eta))
    shift, defined = shift_vector_field(f, 0, 1)
    r2 = np.abs(reduced_position_matrix(f).values[:, 0, 1]) ** 2  # f = 1, E = 1
    tail = np.abs(shift[defined]) * r2[defined] * eta / (np.pi * (w_mn[defined] - omega) ** 2)
    assert 0 < abs(res.currents[0]) <= np.sum(tail) * f.grid.spacing


def test_spectrum_builds_the_reduced_position_matrix_once(monkeypatch):
    calls = []
    build = transport.reduced_position_matrix

    def counted(field):
        calls.append(field.n_bands)
        return build(field)

    monkeypatch.setattr(transport, "reduced_position_matrix", counted)
    f = eigenfield_from_hamiltonian(three_band_hamiltonian,
                                    build_kgrid(LatticeSpec(64, 1.0, 3)))
    res = shift_current_spectrum(f, None, drive(0.5, 5.0, 31))
    assert np.any(res.currents != 0.0)
    assert len(calls) == 1


def test_spectrum_real_family_identically_zero():
    spec = LatticeSpec(128, 1.0, 2)
    grid = build_kgrid(spec)
    energies = np.column_stack([np.ones(128), -np.ones(128)])
    f = two_band_field(grid, 1.2 + 0.5 * np.sin(grid.points), 0.0 * grid.points,
                       energies=energies)
    res = shift_current_spectrum(f, OCC, drive(1.5, 2.5, 41))
    assert np.all(res.currents == 0.0)
    assert res.skipped_fraction > 0


def test_spectrum_gauge_invariant_20_diagonal_gauges():
    f = massive_loop(256)
    base = shift_current_spectrum(f, OCC, drive())
    peak = np.max(np.abs(base.currents))
    assert peak > 0
    for seed in range(20):
        res = shift_current_spectrum(f, OCC, drive(),
                                     connection=gauged_connection(f, seed))
        assert np.max(np.abs(res.currents - base.currents)) / peak < 1e-8


def test_spectrum_not_invariant_under_band_mixing():
    f = massive_loop(256)
    base = shift_current_spectrum(f, OCC, drive())
    peak = np.max(np.abs(base.currents))
    spread = 0.0
    for seed in range(5):
        conn = gauged_connection(f, seed, diagonal=False)
        res = shift_current_spectrum(f, OCC, drive(), connection=conn)
        spread = max(spread, np.max(np.abs(res.currents - base.currents)) / peak)
    assert spread > 1e-3


def test_spectrum_self_convergence():
    f1, f2 = massive_loop(256), massive_loop(512)
    w_mn = f2.energies[:, 0] - f2.energies[:, 1]
    lo, hi = w_mn.min(), w_mn.max()
    span = hi - lo
    w = np.linspace(lo + 0.2 * span, hi - 0.2 * span, 61)
    r1 = shift_current_spectrum(f1, OCC, DriveSpec(w, 1.0, 0.05))
    r2 = shift_current_spectrum(f2, OCC, DriveSpec(w, 1.0, 0.025))
    drift = np.max(np.abs(r1.currents - r2.currents)) / np.max(np.abs(r2.currents))
    assert drift < 0.05


def test_spectrum_pair_relabeling_invariant():
    # the (m, n) summand is antisymmetric twice: f and the shift both flip
    f = massive_loop(128)
    conn = reduced_position_matrix(f).values
    d = drive(1.0, 2.5, 31)
    r01, d01 = shift_vector_field(f, 0, 1)
    r10, d10 = shift_vector_field(f, 1, 0)
    f01 = OCC.difference(0, 1, 128)
    f10 = OCC.difference(1, 0, 128)
    t01 = f01[d01] * r01[d01] * np.abs(conn[d01, 0, 1]) ** 2
    t10 = f10[d10] * r10[d10] * np.abs(conn[d10, 1, 0]) ** 2
    assert np.max(np.abs(t01 - t10)) < 1e-12


def test_spectrum_mass_center_independent():
    d = drive(1.0, 2.5, 31)
    res = []
    for origin in (0.0, 11.0):
        f = graphene_loop(LatticeSpec(128, 1.0, 2, origin=origin), mass=0.3)
        res.append(shift_current_spectrum(f, OCC, d).currents)
    assert np.max(np.abs(res[0] - res[1])) < 1e-12


def unblocked_spectrum(field, occ, d):
    """J(omega) from one (N_k, N_omega) Lorentzian product per band pair,
    formed whole over every defined point, zero weights included, and
    summed over k in a single reduction; and the fraction of (pair, k)
    points left undefined."""
    vals = reduced_position_matrix(field).values
    energies, nk, dk = field.energies, field.n_k, field.grid.spacing
    w = d.frequencies
    total, skipped, pairs = np.zeros_like(w), 0, 0
    order = np.argsort(np.mean(energies, axis=0))
    for hi in range(field.n_bands):
        for lo in range(hi):
            m, n = int(order[hi]), int(order[lo])
            shift, defined = shift_vector_field(field, m, n)
            pairs += nk
            skipped += int(np.sum(~defined))
            f = occ.difference(m, n, nk)[defined]
            r2 = np.abs(vals[defined, m, n]) ** 2
            w_mn = energies[defined, m] - energies[defined, n]
            weight = f * shift[defined] * r2 * dk
            lorentzian = (d.broadening / np.pi) / ((w_mn[:, None] - w[None, :]) ** 2
                                                   + d.broadening_sq)
            total += (weight[:, None] * lorentzian).sum(axis=0) * d.amplitude ** 2
    return total, skipped / pairs


def two_band_hamiltonian(k):
    return np.array([[0.9 + 0.3 * np.cos(k), 0.4 * np.exp(1j * k) + 0.2],
                     [0.4 * np.exp(-1j * k) + 0.2, -0.9 - 0.3 * np.cos(k)]])


@pytest.fixture(scope="module")
def hamiltonian_fields():
    return {nb: eigenfield_from_hamiltonian(h, build_kgrid(LatticeSpec(256, 1.0, nb)))
            for nb, h in ((2, two_band_hamiltonian), (3, three_band_hamiltonian))}


@pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 129])
@pytest.mark.parametrize("nb, fillings", [(2, [1.0, 0.0]), (3, [1.0, 0.4, 0.0])])
def test_spectrum_blocks_equal_the_unblocked_sum_bit_for_bit(hamiltonian_fields, nb,
                                                             fillings, count):
    """The frequency blocks keep the unblocked reduction order on both sides
    of every block boundary; a one-column block would not."""
    field, occ = hamiltonian_fields[nb], OccupationSpec(fillings)
    d = DriveSpec(np.linspace(0.5, 4.5, count), np.linspace(0.8, 1.2, count), 0.05)
    got = shift_current_spectrum(field, occ, d).currents
    assert np.any(got != 0.0)
    assert got.tobytes() == unblocked_spectrum(field, occ, d)[0].tobytes()


@pytest.mark.parametrize("nb, lower_half", [(2, [0.0, 1.0]), (3, [1.0, 0.0, 0.0])],
                         ids=["graphene", "hamiltonian-3-bands"])
def test_default_occupation_fills_the_lower_half_bit_for_bit(hamiltonian_fields, nb,
                                                             lower_half):
    """occ=None fills the n_bands // 2 bands lowest in mean energy: column 1
    of the graphene loop, band 0 of an eigen-decomposed field."""
    field = massive_loop(256) if nb == 2 else hamiltonian_fields[3]
    got = shift_current_spectrum(field, None, drive()).currents
    want = shift_current_spectrum(field, OccupationSpec(lower_half), drive()).currents
    assert np.any(want != 0.0)
    assert got.tobytes() == want.tobytes()


def decoupled_three_band(k):
    """The two-band Hamiltonian plus an uncoupled third orbital: r_{2,n}
    vanishes, so two of the three band pairs are undefined at every k."""
    h = np.zeros((3, 3), dtype=complex)
    h[:2, :2], h[2, 2] = two_band_hamiltonian(k), 3.0
    return h


@pytest.fixture(scope="module")
def three_band_fields(hamiltonian_fields):
    decoupled = eigenfield_from_hamiltonian(decoupled_three_band,
                                            build_kgrid(LatticeSpec(256, 1.0, 3)))
    return {"coupled": hamiltonian_fields[3], "decoupled": decoupled}


@pytest.mark.parametrize("count", [1, 65])
@pytest.mark.parametrize("model", ["coupled", "decoupled"])
@pytest.mark.parametrize("fillings", ["default", "per-k"])
def test_zero_weight_points_leave_the_spectrum_bits(three_band_fields, model, fillings, count):
    """Points where f_n - f_m = 0 are left out of the sum (all of them, for
    the default filling's (2, 1) pair); currents and skipped fraction are
    those of the sum over every defined point, one-frequency spectra too."""
    field = three_band_fields[model]
    if fillings == "default":
        occ, ref_occ = None, OccupationSpec([1.0, 0.0, 0.0])
    else:
        table = np.random.default_rng(5).choice([0.0, 0.25, 0.7, 1.0], size=(field.n_k, 3))
        occ = ref_occ = OccupationSpec(table)
    d = DriveSpec(np.linspace(0.5, 4.5, count), np.linspace(0.8, 1.2, count), 0.05)
    got = shift_current_spectrum(field, occ, d)
    currents, skipped = unblocked_spectrum(field, ref_occ, d)
    assert np.any(currents != 0.0)
    assert got.currents.tobytes() == currents.tobytes()
    assert got.skipped_fraction == skipped
    assert skipped == (0.0 if model == "coupled" else 2 / 3)


def test_spectrum_memory_does_not_grow_with_the_frequency_count():
    field = massive_loop(2048)
    conn = reduced_position_matrix(field)
    shift_current_spectrum(massive_loop(16), OCC, drive(count=2))  # first-call allocations
    peaks = []
    for count in (64, 1024):
        tracemalloc.start()
        try:
            shift_current_spectrum(field, OCC, drive(count=count), connection=conn)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


# -- pumping ------------------------------------------------------------------


def test_pump_lambda_independent_family():
    grid = build_kgrid(LatticeSpec(64, 1.0, 2))
    fam = pump_family_from_angles(lambda k, lam: 1.0 + 0.3 * np.cos(k),
                                  lambda k, lam: k + 0.0 * lam, grid, 16)
    assert pumped_charge(fam, 0).delta_q == pytest.approx(0.0, abs=1e-12)
    assert chern_number(fam, 0).value == 0


def test_pump_topological_phase():
    fam = qwz_pump(LatticeSpec(128, 1.0, 2), 128, mu=-1.0)
    pump = pumped_charge(fam, 0)
    oracle = chern_number(fam, 0)
    assert abs(abs(pump.delta_q) - 1.0) < 1e-3
    assert abs(oracle.value) == 1
    assert oracle.residue < 0.05
    assert round(pump.delta_q) == -oracle.value


def test_pump_trivial_phase():
    fam = qwz_pump(LatticeSpec(128, 1.0, 2), 128, mu=-3.0)
    assert abs(pumped_charge(fam, 0).delta_q) < 1e-3
    assert chern_number(fam, 0).value == 0


@pytest.mark.slow
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_qwz_pump_sweep(n):
    """Over N and mu at least 0.1 from the gap closings at -2, 0 and 2,
    on an N x N torus: the plaquette invariant is sgn(mu) for |mu| < 2 and 0
    beyond, its residue is below the limit, and the pumped charge is -C."""
    for mu in (-3.0, -2.1, -1.9, -1.0, -0.1, 0.1, 0.5, 1.0, 1.9, 2.1, 2.6):
        fam = qwz_pump(LatticeSpec(n, 1.0, 2), n, mu=mu)
        oracle = chern_number(fam, 0)
        assert oracle.value == (np.sign(mu) if abs(mu) < 2 else 0), mu
        assert oracle.residue < transport.CHERN_RESIDUE_LIMIT, mu
        assert abs(pumped_charge(fam, 0).delta_q + oracle.value) < 1e-9, mu


def test_pump_polarization_mass_center_cancels():
    fam = qwz_pump(LatticeSpec(32, 1.0, 2, origin=5.0), 32, mu=-1.0)
    fam0 = qwz_pump(LatticeSpec(32, 1.0, 2), 32, mu=-1.0)
    p1, p0 = pumped_charge(fam, 0), pumped_charge(fam0, 0)
    assert p1.delta_q == pytest.approx(p0.delta_q, abs=1e-12)
    assert np.max(np.abs(p1.polarization - p0.polarization - 5.0)) < 1e-12


def test_pump_matches_oracle_for_random_gapped_families():
    # smooth random two-band hamiltonian families with verified gaps
    from crmatrix.errors import DegenerateRibbon
    grid = build_kgrid(LatticeSpec(48, 1.0, 2))
    pauli = [np.array([[0, 1], [1, 0]], complex),
             np.array([[0, -1j], [1j, 0]], complex),
             np.array([[1, 0], [0, -1]], complex)]
    rng = np.random.default_rng(123)
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 60:
        attempts += 1
        c = rng.normal(scale=0.8, size=(3, 5))

        def h(k, lam, c=c):
            tau = 2 * np.pi * lam
            d = [c[i, 0] + c[i, 1] * np.cos(k) + c[i, 2] * np.sin(k)
                 + c[i, 3] * np.cos(tau) + c[i, 4] * np.sin(tau) for i in range(3)]
            return sum(di * pi for di, pi in zip(d, pauli))

        try:
            fam = pump_family_from_hamiltonian(h, grid, 48)
        except DegenerateRibbon:
            continue
        if np.min(np.diff(fam.energies, axis=-1)) < 1e-3:
            continue
        pump = pumped_charge(fam, 0)
        oracle = chern_number(fam, 0)
        assert round(pump.delta_q) == -oracle.value
        assert abs(pump.delta_q - round(pump.delta_q)) < 1e-6
        checked += 1
    assert checked == 10


def test_pump_build_and_link_products_hold_no_stack_sized_transient():
    """The qwz Hamiltonian is evaluated and eigen-decomposed block by block
    and the links are filled by blocks of rows, so at 8 blocks of points
    the build peaks below twice the family's bytes (about 3.5x when the
    whole stack and its transients were held) and the loop phases below
    0.6x (the links and their transposed copy)."""
    qwz_pump(LatticeSpec(8, 1.0, 2), 8, mu=-1.0)  # first-call allocations
    tracemalloc.start()
    try:
        fam = qwz_pump(LatticeSpec(256, 1.0, 2), 128, mu=-1.0)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        pumped_charge(fam, 0)
        pump = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    family = fam.coeffs.nbytes + fam.energies.nbytes
    assert build <= 2.0 * family
    assert pump <= 0.6 * family


def test_chern_residue_small_on_resolved_grid():
    fam = qwz_pump(LatticeSpec(64, 1.0, 2), 64, mu=-1.0)
    assert chern_number(fam, 0).residue < 1e-10


def theta_jump_family(n_cells=16, n_lambda=8, jump=3):
    """theta = 0 below k index ``jump`` and pi from there on, at every
    lambda: the band-0 column turns orthogonal between k indices jump - 1
    and jump."""
    grid = build_kgrid(LatticeSpec(n_cells, 1.0, 2))
    return pump_family_from_angles(lambda k, lam: np.where(k < grid.points[jump], 0.0, np.pi),
                                   lambda k, lam: k + 0.0 * lam, grid, n_lambda)


# 5,000 x 3 points: the zero link lies in a later block of rows than the first
@pytest.mark.parametrize("n_cells, n_lambda, jump", [(16, 8, 3), (5000, 3, 4500)])
def test_pump_and_plaquette_refuse_a_zero_overlap(n_cells, n_lambda, jump):
    # the closed link product of every slice is 0: its angle means nothing
    fam = theta_jump_family(n_cells, n_lambda, jump)
    for observable in (pumped_charge, chern_number):
        with pytest.raises(ZeroOverlap, match=f"at k index {jump - 1}, lambda index 0 with the "
                                              f"next point"):
            observable(fam, 0)
    with pytest.raises(ZeroOverlap, match=f"at k index {jump - 1} with the next point along k"):
        berry_phase(BlochField(grid=fam.grid, coeffs=fam.coeffs[:, 0]), 0)


@pytest.mark.parametrize("n_cells, n_lambda", [(1, 8), (2, 8), (16, 2)])
def test_loops_of_fewer_than_3_points_are_under_resolved(n_cells, n_lambda):
    fam = qwz_pump(LatticeSpec(n_cells, 1.0, 2), n_lambda, mu=-1.0)
    with pytest.raises(UnderResolvedGrid, match="at least 3 grid points"):
        chern_number(fam, 0)
    if n_cells < 3:
        with pytest.raises(UnderResolvedGrid, match="at least 3 grid points"):
            pumped_charge(fam, 0)


def ref_track_branch(raw):
    """The per-step continuation loop, kept as the reference."""
    out = np.empty_like(raw)
    out[0] = raw[0]
    for j in range(1, len(raw)):
        inc = np.angle(np.exp(1j * (raw[j] - raw[j - 1])))
        if np.abs(inc) >= np.pi - 1e-9:
            raise BranchTrackingError(
                f"phase jump {inc:+.3f} between parameter slices {j - 1} and {j}")
        out[j] = out[j - 1] + inc
    return out


def test_track_branch_equals_per_step_loop():
    rng = np.random.default_rng(17)
    jumps = 0
    for trial in range(2000):
        raw = rng.uniform(-np.pi, np.pi, int(rng.integers(1, 40)))
        if trial % 3 == 0 and len(raw) > 1:
            # a step of exactly pi before wrapping: ambiguous, must abort
            j = int(rng.integers(1, len(raw)))
            raw[j] = np.angle(np.exp(1j * (raw[j - 1] + np.pi)))
        try:
            want = ref_track_branch(raw)
        except BranchTrackingError as exc:
            jumps += 1
            with pytest.raises(BranchTrackingError) as got:
                _track_branch(raw)
            assert str(got.value) == str(exc)
            continue
        assert _track_branch(raw).tobytes() == want.tobytes()
    assert jumps > 500


def test_spectrum_result_shape():
    f = massive_loop(64)
    res = shift_current_spectrum(f, OCC, drive(1.0, 2.0, 11))
    assert isinstance(res, SpectrumResult)
    assert res.frequencies.shape == res.currents.shape == (11,)


def whole_loop_phases(cols):
    """The loop phases with every slice transposed at once, as before the
    product was blocked, in (-pi, pi]: a product on the negative real axis
    gives +pi."""
    links = link_overlaps(cols, axis=0)
    angle = np.angle(np.prod(np.ascontiguousarray(np.moveaxis(links, 0, -1)), axis=-1))
    return np.where(angle == np.pi, np.pi, -angle)


@pytest.mark.parametrize("n_cells, n_lambda", [(64, 256), (4500, 8)])
def test_blocked_loop_product_equals_whole_transpose(monkeypatch, n_cells, n_lambda):
    """64 x 256 links are four blocks of 64 slices; a slice of 4,096 or
    more links is a block of its own."""
    fam = qwz_pump(LatticeSpec(n_cells, 1.0, 2), n_lambda, mu=-1.0)
    blocked = [pumped_charge(fam, band) for band in range(2)]
    field = BlochField(fam.grid, fam.coeffs[:, 0])
    phases = [berry_phase(field, band) for band in range(2)]
    audit = gauge_audit(field, 3, 2, 3, 0.2)
    for module in (transport, gauge):
        monkeypatch.setattr(module, "loop_phases", whole_loop_phases)
    for band, result in enumerate(blocked):
        whole = pumped_charge(fam, band)
        for name in ("polarization", "cumulative_charge"):
            assert getattr(result, name).tobytes() == getattr(whole, name).tobytes()
        assert repr(result.delta_q) == repr(whole.delta_q)
        assert repr(phases[band]) == repr(berry_phase(field, band))
    assert audit == gauge_audit(field, 3, 2, 3, 0.2)


def test_loop_product_holds_no_links_sized_transient():
    """At 1024 x 256 the links are 4 MiB; transposing them whole took
    another 4 MiB, so pumped_charge peaked at twice the links."""
    grid = build_kgrid(LatticeSpec(1024, 1.0, 2))
    fam = pump_family_from_angles(lambda k, lam: 1.0 + 0.3 * np.cos(2 * np.pi * lam) + 0 * k,
                                  lambda k, lam: k + 0.0 * lam, grid, 256)
    pumped_charge(fam, 0)  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pumped_charge(fam, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 1024 * 256 * np.dtype(complex).itemsize
