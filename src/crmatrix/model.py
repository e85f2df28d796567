"""Finite-chain lattices, k-grids, and Bloch coefficient fields.

A "field" here is a ribbon: for every grid momentum k_p it holds an
NB x NB unitary matrix whose column n collects the coefficients
a_i^{(n)}(k_p) of band n over the NB orbital components.  Everything
downstream (position matrices, Berry phases, transport) is computed from
these coefficient columns; no real-space wavefunction is ever sampled
outside the divergence demos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateRibbon

UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-12


def _lock(arr: np.ndarray) -> np.ndarray:
    """Return a read-only view; fields are immutable after construction."""
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LatticeSpec:
    """Finite 1D chain: ``n_cells`` sites spaced by ``lattice_constant``.

    Site j (0-based) sits at ``origin + j * lattice_constant``.  ``origin``
    only shifts the crystal mass center; observables built from diagonal
    differences must not depend on it.
    """

    n_cells: int
    lattice_constant: float = 1.0
    n_bands: int = 1
    origin: float = 0.0

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if self.n_bands < 1:
            raise ValueError("n_bands must be >= 1")
        if not self.lattice_constant > 0:
            raise ValueError("lattice_constant must be > 0")

    @property
    def sites(self) -> np.ndarray:
        """Positions R_j = origin + j*a for j = 0..N-1."""
        return self.origin + np.arange(self.n_cells) * self.lattice_constant

    @property
    def rbar(self) -> float:
        """Crystal mass center (1/N) sum_j R_j."""
        return self.origin + (self.n_cells - 1) * self.lattice_constant / 2.0


@dataclass(frozen=True)
class KGrid:
    """Uniform momentum grid k_p = p * 2*pi/(N*a), p = 0..N-1.

    Periodic neighbour indexing wraps p = N-1 to p = 0.
    """

    spec: LatticeSpec
    points: np.ndarray

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / (self.spec.n_cells * self.spec.lattice_constant)


def build_kgrid(spec: LatticeSpec) -> KGrid:
    """First-Brillouin-zone grid of N evenly spaced points starting at 0."""
    n, a = spec.n_cells, spec.lattice_constant
    points = np.arange(n) * (2.0 * np.pi / (n * a))
    return KGrid(spec=spec, points=_lock(points))


@dataclass(frozen=True)
class TwoBandAngles:
    """Bloch-sphere angle functions theta(k), phi(k) for a two-band model.

    ``dtheta``/``dphi`` are optional analytic k-derivatives; when present
    the Berry connection is evaluated analytically instead of by central
    differences.
    """

    theta: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    dtheta: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dphi: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def has_derivatives(self) -> bool:
        return self.dtheta is not None and self.dphi is not None


@dataclass(frozen=True)
class BlochField:
    """Coefficient columns of a band ribbon on a k-grid.

    Parameters
    ----------
    grid : KGrid
    coeffs : (N, NB, NB) complex
        ``coeffs[p][:, n]`` is the coefficient column of band n at k_p;
        unitary at every p.
    energies : (N, NB) real, optional
        Band energies.  Eigen-decomposed fields store them ascending in n;
        closed-form two-band fields keep the column order of their
        parametrisation, which may place the upper band first.
    dcoeffs : (N, NB, NB) complex, optional
        Analytic k-derivatives of the columns.
    """

    grid: KGrid
    coeffs: np.ndarray
    energies: Optional[np.ndarray] = None
    dcoeffs: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _lock(np.asarray(self.coeffs, dtype=complex)))
        if self.energies is not None:
            object.__setattr__(self, "energies", _lock(np.asarray(self.energies, dtype=float)))
        if self.dcoeffs is not None:
            object.__setattr__(self, "dcoeffs", _lock(np.asarray(self.dcoeffs, dtype=complex)))

    @property
    def n_bands(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_k(self) -> int:
        return self.coeffs.shape[0]

    def unitarity_defect(self) -> float:
        return stack_unitarity_defect(self.coeffs)

    def validate(self, tol: float = UNITARITY_TOL) -> None:
        defect = self.unitarity_defect()
        if defect > tol:
            raise ValueError(f"coefficient matrices not unitary: defect {defect:.3e} > {tol:g}")


def stack_unitarity_defect(mats: np.ndarray) -> float:
    """Largest entry of |M^dag M - 1| over a (P, NB, NB) stack of matrices."""
    g = np.einsum("plm,pln->pmn", mats.conj(), mats)
    return float(np.max(np.abs(g - np.eye(mats.shape[1]))))


def two_band_columns(theta, phi) -> np.ndarray:
    """Two-band column matrices, shape ``theta.shape + (2, 2)``.

    Column 0 is (cos(t/2), sin(t/2) e^{i phi}); column 1 is
    (-sin(t/2) e^{-i phi}, cos(t/2)).  The second entry of column 1 uses
    cos(t/2): that is the unique completion making the columns orthonormal
    and reproducing the closed-form band overlaps.  A non-finite angle, or
    theta outside [0, pi], is a ValueError.
    """
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise ValueError("angle functions produced non-finite values on the grid")
    if np.any(theta < -1e-12) or np.any(theta > np.pi + 1e-12):
        raise ValueError("theta must stay within [0, pi] on the grid")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    coeffs = np.empty(np.shape(c) + (2, 2), dtype=complex)
    coeffs[..., 0, 0] = c
    coeffs[..., 1, 0] = s * np.exp(1j * phi)
    coeffs[..., 0, 1] = -s * np.exp(-1j * phi)
    coeffs[..., 1, 1] = c
    return coeffs


def two_band_field(angles: TwoBandAngles, grid: KGrid, energies: Optional[np.ndarray] = None,
                   name: str = "two-band") -> BlochField:
    """Closed-form two-band ribbon from Bloch-sphere angles; columns as in
    :func:`two_band_columns`."""
    k = grid.points
    th = np.asarray(angles.theta(k), dtype=float)
    ph = np.asarray(angles.phi(k), dtype=float)
    coeffs = two_band_columns(th, ph)
    if grid.spec.n_bands != 2:
        raise ValueError("two_band_field requires a 2-band lattice spec")

    dcoeffs = None
    if angles.has_derivatives:
        c, s = np.cos(th / 2.0), np.sin(th / 2.0)
        eip, eim = np.exp(1j * ph), np.exp(-1j * ph)
        dth = np.asarray(angles.dtheta(k), dtype=float)
        dph = np.asarray(angles.dphi(k), dtype=float)
        dcoeffs = np.empty_like(coeffs)
        dcoeffs[:, 0, 0] = -s * dth / 2.0
        dcoeffs[:, 1, 0] = (c * dth / 2.0 + 1j * s * dph) * eip
        dcoeffs[:, 0, 1] = (-c * dth / 2.0 + 1j * s * dph) * eim
        dcoeffs[:, 1, 1] = -s * dth / 2.0

    return BlochField(grid=grid, coeffs=coeffs, energies=energies, dcoeffs=dcoeffs, name=name)


def graphene_phases(kx, ky, bond: float = 1.0):
    """Two-band angles (theta, phi) of the honeycomb nearest-neighbour model.

    theta is identically pi/2 (equal sublattice weight); phi is minus the
    argument of the three-phasor hopping sum.  Raises at points where the
    phasor sum vanishes (band touching; the argument is undefined there).

    Parameters
    ----------
    kx, ky : float or ndarray
        Momentum components (reciprocal length).
    bond : float
        Nearest-neighbour bond length.
    """
    if not bond > 0:
        raise ValueError("bond length must be > 0")
    f = honeycomb_phasor_sum(kx, ky, bond)
    if np.any(np.abs(f) < 1e-12):
        raise ZeroDivisionError("phasor sum vanishes (band touching point); phase undefined")
    return np.full(f.shape, np.pi / 2.0), -np.angle(f)


def honeycomb_phasor_sum(kx, ky, bond: float = 1.0) -> np.ndarray:
    """Nearest-neighbour phasor sum f(k) of the honeycomb model."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    return (np.exp(1j * kx * bond)
            + np.exp(1j * (-0.5 * kx + 0.5 * np.sqrt(3.0) * ky) * bond)
            + np.exp(1j * (-0.5 * kx - 0.5 * np.sqrt(3.0) * ky) * bond))


def fix_phase_gauge(coeffs: np.ndarray) -> np.ndarray:
    """Deterministic per-column phase fix of a (..., NB, NB) stack.

    The largest-magnitude component of each column is rotated to be real
    and positive (ties broken by lowest index, which is what argmax does).
    Idempotent: a column already in this gauge is returned bit-identical.
    """
    return _fix_phase_in_place(np.array(coeffs, dtype=complex))


def _fix_phase_in_place(coeffs: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(coeffs), axis=-2)[..., None, :]
    z = np.take_along_axis(coeffs, idx, axis=-2)
    flip = (z.imag != 0.0) | (z.real < 0.0)
    # numpy's scalar abs(z) is hypot(re, im); np.abs on an array can differ by an ulp
    modulus = np.hypot(z.real, z.imag)
    factor = z.conjugate()
    np.divide(factor, modulus, out=factor, where=flip)
    np.multiply(coeffs, factor, out=coeffs, where=flip)
    # pin the pivot so a second pass finds it exactly real-positive
    np.copyto(z, modulus, where=flip)
    np.put_along_axis(coeffs, idx, z, axis=-2)
    return coeffs


def _where(index) -> str:
    """``k index p`` (and ``, lambda index j``) of a stack's leading index."""
    return ", ".join(f"{axis} index {i}" for axis, i in zip(("k", "lambda"), index))


def _first(mask: np.ndarray) -> tuple:
    """Index of the first True entry of ``mask`` in C order."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))


def _eigen_decompose(hk, shape: tuple, gap_tol: float):
    """The eigen-decomposition of a (..., NB, NB) Hamiltonian stack whose
    shape must be ``shape``: (phase-fixed coefficients, ascending energies).

    Each step runs once over the whole stack.  A non-finite entry or a
    non-Hermitian matrix is a ValueError and an adjacent eigenvalue gap
    below ``gap_tol`` a :class:`DegenerateRibbon`, each naming the first
    bad index: the ribbon is discontinuous at a degeneracy and silent
    reordering would hide it.
    """
    hk = np.asarray(hk, dtype=complex)
    if hk.shape != shape:
        raise ValueError(f"hamiltonian stack has shape {hk.shape}, expected {shape}")
    finite = np.isfinite(hk)
    if not finite.all():
        index = _first(~finite)
        raise ValueError(f"hamiltonian at {_where(index[:-2])} has a non-finite entry "
                         f"{index[-2:]}: {hk[index]}")
    defect = np.max(np.abs(hk - np.swapaxes(hk, -1, -2).conj()), axis=(-2, -1))
    if np.any(defect > HERMITICITY_TOL):
        index = _first(defect > HERMITICITY_TOL)
        raise ValueError(f"hamiltonian at {_where(index)} not Hermitian: "
                         f"defect {defect[index]:.3e}")
    energies, coeffs = np.linalg.eigh(hk)
    if shape[-1] > 1:
        gap = np.min(np.diff(energies, axis=-1), axis=-1)
        if np.any(gap < gap_tol):
            index = _first(gap < gap_tol)
            raise DegenerateRibbon(
                f"eigenvalue gap {gap[index]:.3e} < gap_tol {gap_tol:g} at {_where(index)}")
    return _fix_phase_in_place(coeffs), energies


def _evaluate(h: Callable, nb: int, *axes: np.ndarray) -> np.ndarray:
    """``h(*point)`` at every point of the product grid of ``axes``, as a
    stack of shape ``(len(axes[0]), ..., nb, nb)``."""
    shape = tuple(len(axis) for axis in axes)
    hk = np.empty(shape + (nb, nb), dtype=complex)
    for index in np.ndindex(shape):
        value = np.asarray(h(*(axis[i] for axis, i in zip(axes, index))), dtype=complex)
        if value.shape != (nb, nb):
            raise ValueError(f"hamiltonian at {_where(index)} has shape {value.shape}, "
                             f"expected {(nb, nb)}")
        hk[index] = value
    return hk


def eigenfield_from_stack(hk: np.ndarray, grid: KGrid, gap_tol: float = 1e-8,
                          name: str = "eigenfield") -> BlochField:
    """Ribbon from the eigenvectors of an (N, NB, NB) stack of Hermitian
    matrices, one per grid momentum.

    Columns are sorted by ascending eigenvalue and phase-fixed with
    :func:`fix_phase_gauge`.  Raises :class:`DegenerateRibbon` when any
    adjacent eigenvalue gap drops below ``gap_tol``.
    """
    nb = grid.spec.n_bands
    coeffs, energies = _eigen_decompose(hk, (grid.n, nb, nb), gap_tol)
    return BlochField(grid=grid, coeffs=coeffs, energies=energies, name=name)


def eigenfield_from_hamiltonian(h: Callable[[float], np.ndarray], grid: KGrid,
                                gap_tol: float = 1e-8, name: str = "eigenfield") -> BlochField:
    """:func:`eigenfield_from_stack` of ``h(k)`` evaluated at each grid
    momentum."""
    return eigenfield_from_stack(_evaluate(h, grid.spec.n_bands, grid.points), grid,
                                 gap_tol=gap_tol, name=name)


def pump_lambdas(n_lambda: int) -> np.ndarray:
    """The pump-cycle grid lambda_j = j / n_lambda, j = 0..n_lambda-1."""
    return np.arange(n_lambda) / n_lambda


@dataclass(frozen=True)
class PumpFamily:
    """Two-parameter coefficient field on a (k, lambda) torus.

    ``coeffs[p, j]`` is the NB x NB column matrix at (k_p, lambda_j); the
    lambda direction is periodic with lambda_j = j / n_lambda covering one
    pump cycle.
    """

    grid: KGrid
    lambdas: np.ndarray
    coeffs: np.ndarray
    energies: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _lock(np.asarray(self.coeffs, dtype=complex)))
        object.__setattr__(self, "lambdas", _lock(np.asarray(self.lambdas, dtype=float)))
        if self.energies is not None:
            object.__setattr__(self, "energies", _lock(np.asarray(self.energies, dtype=float)))

    @property
    def n_k(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_lambda(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_bands(self) -> int:
        return self.coeffs.shape[2]


def pump_family_from_stack(hk: np.ndarray, grid: KGrid, gap_tol: float = 1e-8,
                           name: str = "pump") -> PumpFamily:
    """Eigen-decompose an (N, n_lambda, NB, NB) stack of h(k_p, lambda_j)
    with lambda_j = j/n_lambda; same gap guard and phase fix as
    :func:`eigenfield_from_stack`, per point."""
    n_lambda = np.shape(hk)[1] if np.ndim(hk) == 4 else 0
    nb = grid.spec.n_bands
    coeffs, energies = _eigen_decompose(hk, (grid.n, n_lambda, nb, nb), gap_tol)
    return PumpFamily(grid=grid, lambdas=pump_lambdas(n_lambda), coeffs=coeffs,
                      energies=energies, name=name)


def pump_family_from_hamiltonian(h, grid: KGrid, n_lambda: int, gap_tol: float = 1e-8,
                                 name: str = "pump") -> PumpFamily:
    """:func:`pump_family_from_stack` of ``h(k, lambda)`` evaluated at each
    point of the torus grid."""
    hk = _evaluate(h, grid.spec.n_bands, grid.points, pump_lambdas(n_lambda))
    return pump_family_from_stack(hk, grid, gap_tol=gap_tol, name=name)


def pump_family_from_angles(theta, phi, grid: KGrid, n_lambda: int,
                            name: str = "angle-pump") -> PumpFamily:
    """Two-band torus family from closed-form angle functions theta(k, lam),
    phi(k, lam) with lam in [0, 1)."""
    if grid.spec.n_bands != 2:
        raise ValueError("angle families are two-band")
    lambdas = pump_lambdas(n_lambda)
    kk, ll = np.meshgrid(grid.points, lambdas, indexing="ij")
    coeffs = two_band_columns(np.asarray(theta(kk, ll), dtype=float),
                              np.asarray(phi(kk, ll), dtype=float))
    return PumpFamily(grid=grid, lambdas=lambdas, coeffs=coeffs, name=name)
