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
back to differencing U^dag, with the documented O(dk^2) invariance error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ZeroOverlap
from .model import BlochField, KGrid, stack_unitarity_defect
from .rmatrix import _values, central_difference, link_overlaps

ZERO_OVERLAP_TOL = 1e-12


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
    modes: int
    seed: Optional[int]
    diagonal: bool

    @property
    def n_bands(self) -> int:
        return self.unitaries.shape[1]

    def unitarity_defect(self) -> float:
        return stack_unitarity_defect(self.unitaries)


def random_gauge_field(n_bands: int, grid: KGrid, modes: int, seed: int,
                       scale: float = 0.3, diagonal: bool = False) -> GaugeField:
    """Seeded random gauge field with ``modes`` Fourier harmonics.

    modes=0 gives a k-independent unitary.  ``diagonal=True`` restricts
    every Fourier coefficient to a real diagonal matrix, producing a
    U(1)^NB phase field.  Fixed seed means a bitwise reproducible field.
    """
    if modes < 0:
        raise ValueError("modes must be >= 0")
    rng = np.random.default_rng(seed)

    def herm():
        if diagonal:
            return np.diag(rng.normal(scale=scale, size=n_bands))
        x = rng.normal(scale=scale, size=(n_bands, n_bands)) \
            + 1j * rng.normal(scale=scale, size=(n_bands, n_bands))
        return (x + x.conj().T) / 2.0

    cos_coeffs = [herm() for _ in range(modes + 1)]
    sin_coeffs = [herm() for _ in range(modes + 1)]

    n = grid.n
    p = np.arange(n)
    gen = np.zeros((n, n_bands, n_bands), dtype=complex)
    gen_d = np.zeros_like(gen)
    gen += cos_coeffs[0]
    a = grid.spec.lattice_constant
    for s in range(1, modes + 1):
        # angle s*k_p*a reduced mod 2*pi on the grid: exact periodic wrap
        ang = 2.0 * np.pi * ((s * p) % n) / n
        gen += np.cos(ang)[:, None, None] * cos_coeffs[s] \
            + np.sin(ang)[:, None, None] * sin_coeffs[s]
        gen_d += (s * a) * (-np.sin(ang)[:, None, None] * cos_coeffs[s]
                            + np.cos(ang)[:, None, None] * sin_coeffs[s])

    if diagonal:
        unitaries = np.zeros_like(gen)
        diag = np.exp(1j * np.diagonal(gen, axis1=1, axis2=2))
        for m in range(n_bands):
            unitaries[:, m, m] = diag[:, m]
    else:
        w, v = np.linalg.eigh(gen)
        unitaries = np.einsum("pmi,pi,pni->pmn", v, np.exp(1j * w), v.conj())
    return GaugeField(grid=grid, unitaries=unitaries, generator=gen,
                      generator_kderiv=gen_d, modes=modes, seed=seed, diagonal=diagonal)


def similarity_transform(matrix_field: np.ndarray, gauge: GaugeField) -> np.ndarray:
    """Per-k similarity transform U O U^dag (the associative-operator rule)."""
    vals = _values(matrix_field)
    u = gauge.unitaries
    if vals.shape != u.shape:
        raise ValueError(f"shape mismatch: field {vals.shape} vs gauge {u.shape}")
    return np.einsum("pmi,pij,pnj->pmn", u, vals, u.conj())


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
    return BlochField(grid=field.grid, coeffs=coeffs, energies=energies,
                      name=field.name + "+gauge")


def berry_phase(field: BlochField, band: int) -> float:
    """Discrete Berry phase of one band in (-pi, pi].

    Minus the imaginary log of the wraparound product of consecutive
    same-band overlaps; the branch is taken once, on the full product.
    Raises :class:`ZeroOverlap` when any consecutive overlap is
    numerically zero (orthogonal neighbours make the product meaningless).
    """
    if field.n_k < 3:
        raise ValueError("need at least 3 grid points for a phase loop")
    overlaps = link_overlaps(field.coeffs[:, :, band], axis=0)
    small = np.abs(overlaps) < ZERO_OVERLAP_TOL
    if np.any(small):
        p = int(np.argmax(small))
        raise ZeroOverlap(f"overlap between k indices {p} and {(p + 1) % field.n_k} "
                          f"has modulus {np.abs(overlaps[p]):.2e}")
    return float(-np.angle(np.prod(overlaps)))


def diagonal_value(matrix_field: np.ndarray, band: int, kindex: int) -> complex:
    """Pointwise diagonal entry M_{n,n}(k_p): the observable form for
    similarity-transforming matrices, and exactly the form that picks up
    d_k xi under a phase gauge when M came from a derivative."""
    return complex(_values(matrix_field)[kindex, band, band])


def diagonal_loop(matrix_field: np.ndarray, band: int, grid: KGrid) -> float:
    """Closed-loop Riemann sum of the band diagonal: sum_p M_{n,n}(k_p) dk."""
    vals = _values(matrix_field)
    return float(np.real(np.sum(vals[:, band, band]) * grid.spacing))


def trace_loop(matrix_field: np.ndarray, grid: KGrid) -> float:
    """Closed-loop Riemann sum of the trace, fixed ascending-p order."""
    vals = _values(matrix_field)
    return float(np.real(np.sum(np.trace(vals, axis1=1, axis2=2)) * grid.spacing))


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

    loop_lhs = np.real(np.sum(lhs_pt, axis=0) * dk)
    loop_rhs = np.sum(rhs_pt, axis=0) * dk
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
    def delta(self) -> float:
        return abs(self.after - self.before)

    @property
    def invariant(self) -> bool:
        return self.delta <= self.tolerance
