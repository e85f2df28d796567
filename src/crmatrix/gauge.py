"""Gauge / ribbon transformation algebra and observable functionals.

Matrices of ordinary (associative) operators transform by similarity; the
matrix of a k-derivative operator picks up the extra term U i d_k(U^dag).
That single extra term decides which functionals of a matrix field are
observables: the plain diagonal value works for similarity-transforming
matrices, while derivative-built matrices need the closed k-loop of the
diagonal (or the traced loop) to kill the inhomogeneous shift.

Discrete derivatives in this module are central differences with periodic
wrap.  For a diagonal (commuting) gauge field U = exp(i H) the identity
U d(U^dag) = dH is exact, so the inhomogeneous term is taken as the
central difference of the generator itself: the loop sum of a central
difference telescopes to zero on a periodic grid, which keeps the U(1)
invariances exact instead of O(dk^2).  Non-commuting gauge fields fall
back to differencing U^dag, with the documented O(dk^2) invariance error;
only their trace, tr(U i d_k U^dag) = d_k tr H, is exact.

:func:`gauge_audit` checks these claims over random gauges, a block of
seeds at a time, computing only the entries its rows read.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import _su2
from .model import BlochField, KGrid, _row_blocks, stack_unitarity_defect
from .rmatrix import _values, berry_connection, central_difference, loop_phases

LOOP_TOL = 1e-9  #: a closed-loop functional is a phase
DIAGONAL_VALUE_TOL = 1e-12  #: per unit lattice constant, the unit of a connection entry


@dataclass(frozen=True)
class GaugeField:
    """k-indexed unitaries U(k_p) = exp(i H(k_p)) with a stored generator.

    The generator is synthesised from a finite Fourier series whose mode
    angles are evaluated modulo the grid, so H is periodic on the torus
    bit-exactly.  ``diagonal`` marks U(1)^NB fields (all coefficient
    matrices diagonal).
    """

    grid: KGrid
    unitaries: np.ndarray
    generator: np.ndarray
    generator_kderiv: np.ndarray
    diagonal: bool

    @property
    def n_bands(self) -> int:
        return self.unitaries.shape[1]

    def unitarity_defect(self) -> float:
        return stack_unitarity_defect(self.unitaries)


def _fourier_coefficients(n_bands: int, modes: int, seed: int, scale: float,
                          diagonal: bool) -> np.ndarray:
    """The seeded cos and sin coefficients of harmonics 0..modes, stacked
    (2, modes + 1, NB, NB): each a Hermitian matrix, real and diagonal with
    ``diagonal``.  One normal draw per seed, in the order of one draw per
    matrix (real part, then imaginary part), so a seed gives the same
    coefficients as drawing the matrices one at a time."""
    if modes < 0:
        raise ValueError("modes must be >= 0")
    rng = np.random.default_rng(seed)
    if diagonal:
        coeffs, m = np.zeros((2, modes + 1, n_bands, n_bands)), np.arange(n_bands)
        coeffs[..., m, m] = rng.normal(scale=scale, size=(2, modes + 1, n_bands))
        return coeffs
    x = rng.normal(scale=scale, size=(2, modes + 1, 2, n_bands, n_bands))
    x = x[:, :, 0] + 1j * x[:, :, 1]
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


def _mode_table(grid: KGrid, modes: int) -> tuple:
    """cos and sin of the mode angles 2 pi ((s p) mod N) / N, each (modes, N):
    harmonic s = 1..modes by row, grid point p by column.  The angles are
    reduced mod 2 pi on the grid, so a series built from them is periodic
    bit-exactly."""
    n = grid.n
    ang = 2.0 * np.pi * ((np.arange(1, modes + 1)[:, None] * np.arange(n)) % n) / n
    return np.cos(ang), np.sin(ang)


def _fourier_series(cos_coeffs: np.ndarray, sin_coeffs: np.ndarray, table: tuple,
                    grid: KGrid, kderiv: bool = False) -> np.ndarray:
    """The float series of stacked real (modes + 1, *shape) coefficients on
    the grid, or with ``kderiv`` its analytic k-derivative, from the
    :func:`_mode_table` of the grid, shaped (*shape, N): the grid axis is
    last, so each product runs along it.  The arithmetic is elementwise, so
    a slice of the coefficients gives that slice of the series."""
    a = grid.spec.lattice_constant
    cos_table, sin_table = table
    out = np.zeros(cos_coeffs.shape[1:] + (grid.n,))
    if not kderiv:
        out += cos_coeffs[0][..., None]
    for s in range(1, len(cos_coeffs)):
        cos_s, sin_s = cos_table[s - 1], sin_table[s - 1]
        cos_c, sin_c = cos_coeffs[s][..., None], sin_coeffs[s][..., None]
        if kderiv:
            out += (s * a) * (-sin_s * cos_c + cos_s * sin_c)
        else:
            out += cos_s * cos_c + sin_s * sin_c
    return out


def _generator(coeffs: np.ndarray, table: tuple, grid: KGrid, kderiv: bool = False) -> tuple:
    """The generator H(k_p) of stacked (2, modes + 1, ..., NB, NB) Hermitian
    coefficients, or with ``kderiv`` its k-derivative, as its real diagonal
    (NB, ..., N) and its complex strict upper triangle (NB (NB - 1) / 2,
    ..., N) in row order: each diagonal entry, and the real and imaginary
    part of each entry above it, is one float :func:`_fourier_series`, one
    generator per leading index of the coefficients."""
    nb = coeffs.shape[-1]
    upper = [coeffs[..., m, n] for m in range(nb) for n in range(m + 1, nb)]
    parts = np.stack([coeffs[..., m, m].real for m in range(nb)]
                     + [c.real for c in upper] + [c.imag for c in upper], axis=2)
    series = _fourier_series(*parts, table, grid, kderiv)
    return series[:nb], series[nb:nb + len(upper)] + 1j * series[nb + len(upper):]


def _hermitian_stack(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The (..., N, NB, NB) stack of a :func:`_generator`, each entry below
    the diagonal the conjugate of the one above it."""
    nb, (rows, cols) = len(diag), np.triu_indices(len(diag), 1)
    out = np.empty(diag.shape[1:] + (nb, nb), dtype=complex)
    upper = np.moveaxis(upper, 0, -1)
    out[..., range(nb), range(nb)] = np.moveaxis(diag, 0, -1)
    out[..., rows, cols], out[..., cols, rows] = upper, upper.conj()
    return out


@np.errstate(over="raise", invalid="raise")
def random_gauge_field(n_bands: int, grid: KGrid, modes: int, seed: int,
                       scale: float = 0.3, diagonal: bool = False) -> GaugeField:
    """Seeded random gauge field with ``modes`` Fourier harmonics.

    modes=0 gives a k-independent unitary.  ``diagonal=True`` restricts
    every Fourier coefficient to a real diagonal matrix, producing a
    U(1)^NB phase field, exp(i H) entry by entry; otherwise U is
    :func:`_su2.expm_i` of H.  H is built by :func:`_generator`, as
    :func:`gauge_audit` builds it.  Fixed seed means a bitwise reproducible
    field.  A value that overflows (a huge ``scale``) raises
    FloatingPointError, as in :func:`gauge_audit`.
    """
    coeffs = _fourier_coefficients(n_bands, modes, seed, scale, diagonal)
    table = _mode_table(grid, modes)
    gen, dgen = (_hermitian_stack(*_generator(coeffs, table, grid, d)) for d in (False, True))
    if diagonal:
        unitaries, m = np.zeros_like(gen), np.arange(n_bands)
        unitaries[:, m, m] = np.exp(1j * gen[:, m, m])
    else:
        unitaries = _su2.expm_i(gen)
    return GaugeField(grid=grid, unitaries=unitaries, generator=gen, generator_kderiv=dgen,
                      diagonal=diagonal)


def similarity_transform(matrix_field: np.ndarray, gauge: GaugeField) -> np.ndarray:
    """Per-k similarity transform U O U^dag (the associative-operator rule).

    A non-diagonal NB = 2 gauge takes the explicit 2x2 products of
    :func:`_su2.sandwich`, as the U(NB) row of :func:`gauge_audit`
    does; a diagonal gauge or any other NB takes one einsum."""
    vals = _values(matrix_field)
    u = gauge.unitaries
    if vals.shape != u.shape:
        raise ValueError(f"shape mismatch: field {vals.shape} vs gauge {u.shape}")
    if u.shape[-1] != 2 or gauge.diagonal:
        return np.einsum("pmi,pij,pnj->pmn", u, vals, u.conj())
    s = _su2.sandwich(_su2.entries(u), _su2.entries(vals), tuple(np.ndindex(2, 2)))
    return _su2.stack((s[:2], s[2:]))


def gauge_inhomogeneous_term(gauge: GaugeField) -> np.ndarray:
    """The extra term U(k) i d_k(U^dag(k)) on the grid.

    Diagonal fields difference the generator (exact on the commuting
    sector, loop-telescoping on the periodic grid); general fields
    difference U^dag itself.
    """
    dk = gauge.grid.spacing
    if gauge.diagonal:
        return central_difference(gauge.generator, dk, axis=0)
    du = central_difference(gauge.unitaries.conj().transpose(0, 2, 1), dk, axis=0)
    return 1j * np.einsum("pmi,pin->pmn", gauge.unitaries, du)


def gauge_transform(matrix_field: np.ndarray, gauge: GaugeField) -> np.ndarray:
    """Derivative-operator rule: U M U^dag + U i d_k(U^dag)."""
    return similarity_transform(matrix_field, gauge) + gauge_inhomogeneous_term(gauge)


def apply_gauge_to_field(field: BlochField, gauge: GaugeField) -> BlochField:
    """Rotate the ribbon itself: new columns C(k) U^dag(k).

    Energies survive only diagonal gauges (band identity is preserved);
    analytic column derivatives are dropped since the gauge is sampled.
    """
    if gauge.unitaries.shape[0] != field.n_k or gauge.n_bands != field.n_bands:
        raise ValueError("gauge field shape does not match the Bloch field")
    coeffs = np.einsum("plm,pnm->pln", field.coeffs, gauge.unitaries.conj())
    energies = field.energies if gauge.diagonal else None
    return BlochField(grid=field.grid, coeffs=coeffs, energies=energies)


def berry_phase(field: BlochField, band: int) -> float:
    """Discrete Berry phase of one band in (-pi, pi]: :func:`loop_phases`
    of its columns, with the guards of :func:`link_overlaps`."""
    return float(loop_phases(field.coeffs[:, :, band]))


def diagonal_value(matrix_field: np.ndarray, band: int, kindex: int) -> complex:
    """Pointwise diagonal entry M_{n,n}(k_p): the observable form for
    similarity-transforming matrices, and exactly the form that picks up
    d_k xi under a phase gauge when M came from a derivative."""
    return complex(_values(matrix_field)[kindex, band, band])


def diagonal_loop(matrix_field: np.ndarray, band: int, grid: KGrid) -> float:
    """Closed-loop Riemann sum of the band diagonal: sum_p M_{n,n}(k_p) dk."""
    return float(_loop_sum(_values(matrix_field)[:, band, band], grid))


def trace_loop(matrix_field: np.ndarray, grid: KGrid) -> float:
    """Closed-loop Riemann sum of the trace, fixed ascending-p order."""
    return float(_loop_sum(np.trace(_values(matrix_field), axis1=1, axis2=2), grid))


def _loop_sum(values: np.ndarray, grid: KGrid, axis: int = 0) -> np.ndarray:
    """Real part of the k-loop Riemann sum along ``axis``, per remaining slice."""
    return np.real(np.sum(values, axis=axis) * grid.spacing)


@dataclass(frozen=True)
class CurvatureCheck:
    """Pointwise vs loop comparison of the two derivative orderings."""

    max_abs_g: float
    max_pointwise_gap: float
    max_loop_mismatch: float
    loop_lhs: np.ndarray
    loop_rhs: np.ndarray
    g: np.ndarray


def curvature_substitution_check(family, band: int) -> CurvatureCheck:
    """Check where swapping the position substitution into a parameter
    derivative is legitimate.

    For phi(k, lam) = one band's coefficient column on the torus, compare
    per lambda slice:

      lhs = loop_k [ <d_lam phi | i d_k phi> + <phi | i d_k d_lam phi> ]
      rhs = loop_k [ 2 Re <d_lam phi | i d_k phi> ]

    Pointwise the integrands differ by i d_k <phi | d_lam phi> = i g,
    which is generically nonzero (the substitution fails locally); summed
    around the closed k loop the difference telescopes away (the global
    equality that polarization formulas actually rely on).
    """
    coeffs = family.coeffs
    dk = family.grid.spacing
    dlam = float(family.lambdas[1] - family.lambdas[0]) if len(family.lambdas) > 1 else 1.0
    phi = coeffs[:, :, :, band]  # (Nk, Nlam, NB)

    dk_phi = central_difference(phi, dk, axis=0)
    dlam_phi = central_difference(phi, dlam, axis=1)
    dk_dlam_phi = central_difference(dlam_phi, dk, axis=0)

    ip_lam = np.einsum("pjl,pjl->pj", phi.conj(), dlam_phi)
    g = central_difference(ip_lam, dk, axis=0)
    max_abs_g = float(np.max(np.abs(g)))

    cross = 1j * np.einsum("pjl,pjl->pj", dlam_phi.conj(), dk_phi)
    mixed = 1j * np.einsum("pjl,pjl->pj", phi.conj(), dk_dlam_phi)
    lhs_pt = cross + mixed
    rhs_pt = 2.0 * np.real(cross)
    max_pointwise_gap = float(np.max(np.abs(lhs_pt - rhs_pt)))

    loop_lhs = _loop_sum(lhs_pt, family.grid)
    loop_rhs = _loop_sum(rhs_pt, family.grid)
    max_loop_mismatch = float(np.max(np.abs(loop_lhs - loop_rhs)))

    return CurvatureCheck(max_abs_g=max_abs_g, max_pointwise_gap=max_pointwise_gap,
                          max_loop_mismatch=max_loop_mismatch,
                          loop_lhs=loop_lhs, loop_rhs=loop_rhs, g=g)


@dataclass(frozen=True)
class InvarianceReport:
    """One before/after row of the gauge audit."""

    name: str
    band: int
    seed: int
    before: complex
    after: complex
    tolerance: float

    @property
    def delta(self) -> float:  # a Berry phase is an angle: round-off may carry it across pi
        d = abs(self.after - self.before)
        return min(d, 2.0 * np.pi - d) if self.name == "berry_phase" else d

    @property
    def invariant(self) -> bool:
        return self.delta <= self.tolerance


@np.errstate(over="raise", invalid="raise")
def gauge_audit(field: BlochField, seed: int, seeds: int, modes: int, scale: float,
                band: int = 0, kindex: int = 0) -> list:
    """Before/after rows of four functionals under ``seeds`` random gauges.

    Gauge seed ``seed + s`` draws a U(1)^NB field and ``seed + s + 10000`` a
    U(NB) field U = exp(i H) from :func:`_generator`, as
    :func:`random_gauge_field` does: for NB = 2 by :func:`_su2.exp_i`, by
    eigh for any other NB; the mode angle table is built once per call.
    Each seed gives four :class:`InvarianceReport` rows: ``diagonal_value`` (the connection's band
    entry at ``kindex``, moved by d_k xi by design; its limit is
    ``DIAGONAL_VALUE_TOL * a``), ``diagonal_loop`` and the re-gauged ribbon's
    ``berry_phase`` under U(1)^NB, ``trace_loop`` under U(NB); limit ``LOOP_TOL``.

    Only what the rows read is computed: per seed the band column of xi,
    of the connection (u M_bb u* + d_k xi) and of the ribbon (times u*),
    and the traced diagonal of U M U^dag (for NB = 2 from the explicit 2x2
    products of :func:`_su2.sandwich`, otherwise one einsum) plus
    d_k tr H, the exact trace of U i d_k(U^dag).  The seeds run in blocks
    of whole seeds, as (seeds, N) arrays with the grid axis last: the
    :func:`_row_blocks` of a (seeds, 2N) array, at most ``ROW_BLOCK**2 / 2``
    (seed, k) points and at least one seed a block (2 seeds at N = 1024, 1
    above N = 2048), so the audit holds O(1) connection-sized stacks
    however many seeds it runs.  Each seed
    draws its own coefficients, every step is elementwise along the seeds
    (eigh too, matrix by matrix) and every k-sum runs over a contiguous k
    axis, so a row does not depend on the block it is in.
    The rows equal, bit for bit, those of whole-field
    :func:`apply_gauge_to_field` and :func:`gauge_transform`
    (:func:`similarity_transform` plus d_k tr H for the trace loop).  A
    value that overflows (a huge ``scale``) raises FloatingPointError.
    """
    grid = field.grid
    conn = berry_connection(field).values
    names = ("diagonal_value", "diagonal_loop", "trace_loop", "berry_phase")
    tolerances = (DIAGONAL_VALUE_TOL * grid.spec.lattice_constant, LOOP_TOL, LOOP_TOL, LOOP_TOL)
    before = (diagonal_value(conn, band, kindex), diagonal_loop(conn, band, grid),
              trace_loop(conn, grid), berry_phase(field, band))
    table = _mode_table(grid, modes)
    conn_entries = _su2.entries(conn) if field.n_bands == 2 else None  # not per block: 30 % slower
    reports = []
    for rows, _ in _row_blocks((seeds, 2 * grid.n)):
        block = range(seed + rows.start, seed + rows.stop)
        value, loop, phase = _phase_gauge_rows(field, conn, band, kindex, block, modes, scale,
                                               table)
        traced = _traced_loops(conn, conn_entries, block, modes, scale, table, grid)
        for row, gauge_seed in enumerate(block):
            after = (complex(value[row]), float(loop[row]), float(traced[row]),
                     float(phase[row]))
            reports += [InvarianceReport(name, band, gauge_seed, b, a, tol) for name, b, a, tol
                        in zip(names, before, after, tolerances)]
    return reports


def _phase_gauge_rows(field: BlochField, conn: np.ndarray, band: int, kindex: int,
                      block: range, modes: int, scale: float, table: tuple) -> tuple:
    """The U(1)^NB rows of :func:`gauge_audit` for the gauge seeds of
    ``block``, each shaped (seeds,): the band's connection entry
    u M_bb u* + d_k xi at ``kindex`` and its loop, and the re-gauged
    ribbon's Berry phase; no (seeds, N) array outlives the call."""
    grid, nb = field.grid, field.n_bands
    coeffs = np.stack([_fourier_coefficients(nb, modes, s, scale, True)[:, :, band, band]
                       for s in block], axis=-1)
    xi = _fourier_series(*coeffs, table, grid)
    u = np.exp(1j * xi)
    a_bb = np.einsum("sp,p,sp->sp", u, conn[:, band, band], u.conj())
    # xi is differenced in complex, as gauge_inhomogeneous_term differences
    # the generator stack: a complex divide rounds apart from a float one
    a_bb += central_difference(xi.astype(complex), grid.spacing, axis=-1)
    return (a_bb[:, kindex].copy(), _loop_sum(a_bb, grid, axis=-1),
            loop_phases(np.einsum("pl,sp->psl", field.coeffs[:, :, band], u.conj())))


def _traced_loops(conn: np.ndarray, conn_entries, block: range, modes: int, scale: float,
                  table: tuple, grid: KGrid) -> np.ndarray:
    """The U(NB) rows of :func:`gauge_audit` for the gauge seeds ``block +
    10000``, shaped (seeds,): the loop of the traced diagonal of U M U^dag
    plus d_k tr H, for the whole block at once: NB = 2 (``conn_entries``
    given) by the closed form, any other NB by eigh and one einsum."""
    nb = conn.shape[-1]
    diag, upper = _generator(np.stack([_fourier_coefficients(nb, modes, s + 10_000, scale, False)
                                       for s in block], axis=2), table, grid)
    if conn_entries is not None:
        s00, s11 = _su2.sandwich(_su2.exp_i(*diag, *upper), conn_entries, ((0, 0), (1, 1)))
        traced = s00 + s11
    else:
        full = _su2.expm_i(_hermitian_stack(diag, upper))
        traced = np.einsum("spmi,pij,spmj->spm", full, conn, full.conj()).sum(axis=-1)
    # the float trace, differenced in complex as in _phase_gauge_rows
    traced += central_difference(diag.sum(axis=0).astype(complex), grid.spacing, axis=-1)
    return _loop_sum(traced, grid, axis=-1)
