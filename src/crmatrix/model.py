"""Finite-chain lattices, k-grids, and Bloch coefficient fields.

A "field" here is a ribbon: for every grid momentum k_p it holds an
NB x NB unitary matrix whose column n collects the coefficients
a_i^{(n)}(k_p) of band n over the NB orbital components.  Everything
downstream (position matrices, Berry phases, transport) is computed from
these coefficient columns; no real-space wavefunction is ever sampled
outside the divergence demos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _su2
from ._su2 import two_band_columns  # part of this module's API
from .errors import DegenerateRibbon

UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-12  #: per unit max|H| of the stack
#: per unit max|E|; an eigh eigenvector errs by eps |H| / gap (Davis & Kahan).  The
#: NB = 2 closed form is within a few eps of the exact eigenvectors of the stored
#: matrix, so its columns stay within 16 eps |H| / gap of eigh's
GAP_TOL = 1e-8

#: the block edge of every bounded working set: ``ROW_BLOCK**2`` matrices per
#: block of the eigen path and of the link products, ``ROW_BLOCK`` momentum
#: rows per block of the dense position matrix and of its Hermiticity check,
#: and ``ROW_BLOCK`` frequency columns per block of the shift-current sum
ROW_BLOCK = 64


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
    differences must not depend on it.  Every length and momentum of the
    chain must be a float: the zone width 2 pi / a (so every k-grid point),
    the chain length (N - 1) a, the last site and the largest origin phase
    |origin| 2 pi / a.  A value that breaks a rule is a ValueError whose
    message starts with its field.
    """

    n_cells: int
    lattice_constant: float = 1.0
    n_bands: int = 1
    origin: float = 0.0

    def __post_init__(self):
        a, origin = self.lattice_constant, self.origin
        if self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if self.n_bands < 1:
            raise ValueError("n_bands must be >= 1")
        if not a > 0:
            raise ValueError("lattice_constant must be > 0")
        for field, value, what in (
                ("lattice_constant", 2.0 * np.pi / a, "the zone width 2 pi / a"),
                ("lattice_constant", (self.n_cells - 1) * a, "the chain length (N - 1) a"),
                ("origin", origin + (self.n_cells - 1) * a, "the last site"),
                ("origin", origin * (2.0 * np.pi / a), "the origin phase |origin| 2 pi / a")):
            if not math.isfinite(value):
                raise ValueError(f"{field} {getattr(self, field):g} puts {what} past the "
                                 f"float range")

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

    def validate(self) -> None:
        defect, tol = self.unitarity_defect(), UNITARITY_TOL
        if defect > tol:
            raise ValueError(f"coefficient matrices not unitary: defect {defect:.3e} > {tol:g}")


def stack_unitarity_defect(mats: np.ndarray) -> float:
    """Largest entry of |M^dag M - 1| over a (P, NB, NB) stack of matrices."""
    g = np.einsum("plm,pln->pmn", mats.conj(), mats)
    return float(np.max(np.abs(g - np.eye(mats.shape[1]))))


def two_band_field(grid: KGrid, theta, phi, dtheta=None, dphi=None,
                   energies: Optional[np.ndarray] = None) -> BlochField:
    """Closed-form two-band ribbon from Bloch-sphere angles on
    ``grid.points``, columns as in :func:`two_band_columns`; each angle is
    an array of shape ``(grid.n,)``.  With both k-derivatives ``dtheta``
    and ``dphi`` the analytic column derivatives are attached, so the Berry
    connection skips central differences; a non-finite one is a ValueError."""
    if grid.spec.n_bands != 2:
        raise ValueError("two_band_field requires a 2-band lattice spec")
    th, ph = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if th.shape != grid.points.shape or ph.shape != grid.points.shape:
        raise ValueError(f"angle arrays of shapes {th.shape}, {ph.shape} on {grid.n} momenta")
    coeffs = two_band_columns(th, ph)

    dcoeffs = None
    if dtheta is not None and dphi is not None:
        dth, dph = np.asarray(dtheta, dtype=float), np.asarray(dphi, dtype=float)
        if not (np.all(np.isfinite(dth)) and np.all(np.isfinite(dph))):
            raise ValueError("angle derivatives produced non-finite values on the grid")
        c, s = np.cos(th / 2.0), np.sin(th / 2.0)
        dcoeffs = _su2.stack(((-s * dth / 2.0, (-c * dth / 2.0 + 1j * s * dph) * np.exp(-1j * ph)),
                              ((c * dth / 2.0 + 1j * s * dph) * np.exp(1j * ph), -s * dth / 2.0)))

    return BlochField(grid=grid, coeffs=coeffs, energies=energies, dcoeffs=dcoeffs)


def graphene_phases(kx, ky, bond: float = 1.0, hopping: float = 1.0, mass: float = 0.0):
    """(theta, phi, energy) of the honeycomb nearest-neighbour model at
    momenta (kx, ky) with a sublattice ``mass``: the upper-band energy
    E = sqrt(mass^2 + |hopping f|^2) of the three-phasor hopping sum f,
    theta = arccos(mass / E) (pi/2 at zero mass) and phi = -arg f.

    A vanishing f (band touching, where arg f is undefined) or a zero E
    raises :class:`DegenerateRibbon`; a bond length not above 0 or an E
    beyond the float range raises ValueError (OverflowError where
    ``mass**2`` alone overflows).
    """
    if not bond > 0:
        raise ValueError("bond length must be > 0")
    f = honeycomb_phasor_sum(kx, ky, bond)
    touching = np.abs(f) < 1e-12
    if np.any(touching):
        raise DegenerateRibbon(f"phasor sum vanishes at k index {int(np.argmax(touching))} "
                               f"(band-touching point); phase undefined")
    with np.errstate(over="ignore"):
        energy = np.sqrt(mass ** 2 + (hopping * np.abs(f)) ** 2)
    if not np.all(np.isfinite(energy)):
        raise ValueError("band energy overflows a float: hopping or mass too large")
    if np.any(energy == 0):
        raise DegenerateRibbon(f"both bands have zero energy at k index "
                               f"{int(np.argmax(energy == 0))} (hopping and mass both 0)")
    return np.arccos(np.clip(mass / energy, -1.0, 1.0)), -np.angle(f), energy


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
    return _su2.fix_phase(np.array(coeffs, dtype=complex))


def _row_blocks(shape: tuple):
    """(row slice, flat slice) of each block of leading rows of an array of
    ``shape``: runs of whole rows holding at most ``ROW_BLOCK**2`` points, a
    row longer than that a block of its own.  The flat slice indexes the
    same points with the leading axes flattened in C order."""
    width = math.prod(shape[1:])
    step = max(1, ROW_BLOCK ** 2 // max(1, width))
    for r0 in range(0, shape[0], step):
        r1 = min(r0 + step, shape[0])
        yield slice(r0, r1), slice(r0 * width, r1 * width)


def _where(index) -> str:
    """``k index p`` (and ``, lambda index j``) of a stack's leading index."""
    return ", ".join(f"{axis} index {i}" for axis, i in zip(("k", "lambda"), index))


def _first(mask: np.ndarray) -> tuple:
    """Index of the first True entry of ``mask`` in C order."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), mask.shape))


@np.errstate(over="raise", invalid="raise")
def _eigen_decompose(source, shape: tuple):
    """The eigen-decomposition of a Hamiltonian stack of shape ``shape``,
    (..., NB, NB): (phase-fixed coefficients, ascending energies).

    ``source`` is the stack itself, whose shape must be ``shape``, or a block
    source: a function of a slice of the stack's leading rows, returning their
    (rows, ..., NB, NB) matrices.  The work runs a block of leading rows at a
    time into the preallocated outputs, each block holding at most
    ``ROW_BLOCK**2`` points (a row longer than that is a block of its own), so
    beyond them it holds one Hermiticity defect and one gap per point and
    O(ROW_BLOCK**2 * NB^2) bytes of transients, or O(row * NB^2) for a longer
    row.  Each block is guarded in one pass: one ``np.abs`` of its entries
    gives both the finiteness check and max|H|, and :func:`_su2.defect` the
    defect.  A non-finite entry, or a Hermiticity defect above
    ``HERMITICITY_TOL`` max|H|, is a ValueError and an adjacent eigenvalue gap
    not above ``GAP_TOL`` max|E| a :class:`DegenerateRibbon`, each naming the
    first bad index: the ribbon is discontinuous at a degeneracy and silent
    reordering would hide it.  Both limits are maxima over the whole stack.  A
    stack whose Hermiticity difference, energies or eigenvalue gaps overflow
    the float range raises FloatingPointError; so does a finite entry whose
    modulus overflows, named with its index and value once every block has
    passed the non-finite check, so a non-finite entry anywhere wins.  The
    decomposition is :func:`_su2.eigh`: a closed form at NB = 2,
    ``np.linalg.eigh`` and :func:`fix_phase_gauge` for every other NB.
    """
    if not callable(source):
        stack = np.asarray(source)
        if stack.shape != shape:
            raise ValueError(f"hamiltonian stack has shape {stack.shape}, expected {shape}")
        source = stack.__getitem__
    points, nb = shape[:-2], shape[-1]
    n = math.prod(points)
    coeffs, energies = np.empty((n, nb, nb), dtype=complex), np.empty((n, nb))
    defect, gap = np.empty(n), np.empty(n)
    h_max = e_max = 0.0
    overflow = None
    for rows, block in _row_blocks(points):
        hk = np.asarray(source(rows), dtype=complex).reshape(-1, nb, nb)
        # a finite entry's modulus may overflow to inf: that is named once
        # every block has passed the non-finite check, which comes first
        with np.errstate(over="ignore", invalid="ignore"):
            top = np.max(np.abs(hk), initial=0.0)
        if not np.isfinite(top):
            finite = np.isfinite(hk)
            if not finite.all():
                at, i, j = _first(~finite)
                index = np.unravel_index(block.start + at, points)
                raise ValueError(f"hamiltonian at {_where(index)} "
                                 f"has a non-finite entry {(i, j)}: {hk[at, i, j]}")
            if overflow is None:
                with np.errstate(over="ignore"):
                    at, i, j = _first(np.isinf(np.abs(hk)))
                index = np.unravel_index(block.start + at, points)
                overflow = FloatingPointError(f"hamiltonian at {_where(index)} has an entry "
                                              f"{(i, j)} whose modulus overflows: "
                                              f"{hk[at, i, j]}")
        if overflow is not None:
            continue
        h_max = max(h_max, top)
        _su2.defect(hk, defect[block])
        _su2.eigh(hk, energies[block], coeffs[block])
        gap[block] = np.min(np.diff(energies[block], axis=-1), axis=-1, initial=np.inf)
        e_max = max(e_max, np.max(np.abs(energies[block]), initial=0.0))
    if overflow is not None:
        raise overflow
    defect, gap = defect.reshape(points), gap.reshape(points)
    limit = HERMITICITY_TOL * h_max
    if np.any(defect > limit):
        index = _first(defect > limit)
        raise ValueError(f"hamiltonian at {_where(index)} not Hermitian: "
                         f"defect {defect[index]:.3e} > {limit:.3e}")
    limit = GAP_TOL * e_max
    if not np.all(gap > limit):
        index = _first(~(gap > limit))
        raise DegenerateRibbon(f"eigenvalue gap {gap[index]:.3e} is not above its limit "
                               f"{limit:.3e} at {_where(index)}")
    return coeffs.reshape(shape), energies.reshape(shape[:-1])


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


def eigenfield_from_stack(hk: np.ndarray, grid: KGrid) -> BlochField:
    """Ribbon from the eigenvectors of an (N, NB, NB) stack of Hermitian
    matrices, one per grid momentum.

    Columns are sorted by ascending eigenvalue and phase-fixed with
    :func:`fix_phase_gauge`.  Raises :class:`DegenerateRibbon` when an
    adjacent eigenvalue gap is not above ``GAP_TOL`` times max|E|.
    """
    nb = grid.spec.n_bands
    coeffs, energies = _eigen_decompose(hk, (grid.n, nb, nb))
    return BlochField(grid=grid, coeffs=coeffs, energies=energies)


def eigenfield_from_hamiltonian(h: Callable[[float], np.ndarray], grid: KGrid) -> BlochField:
    """:func:`eigenfield_from_stack` of ``h(k)`` evaluated at each grid
    momentum."""
    return eigenfield_from_stack(_evaluate(h, grid.spec.n_bands, grid.points), grid)


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


def pump_family_from_stack(hk: np.ndarray, grid: KGrid) -> PumpFamily:
    """Eigen-decompose an (N, n_lambda, NB, NB) stack of h(k_p, lambda_j)
    with lambda_j = j/n_lambda; same gap guard and phase fix as
    :func:`eigenfield_from_stack`, per point."""
    n_lambda = np.shape(hk)[1] if np.ndim(hk) == 4 else 0
    nb = grid.spec.n_bands
    coeffs, energies = _eigen_decompose(hk, (grid.n, n_lambda, nb, nb))
    return PumpFamily(grid=grid, lambdas=pump_lambdas(n_lambda), coeffs=coeffs,
                      energies=energies)


def pump_family_from_hamiltonian(h, grid: KGrid, n_lambda: int) -> PumpFamily:
    """:func:`pump_family_from_stack` of ``h(k, lambda)`` evaluated at each
    point of the torus grid."""
    hk = _evaluate(h, grid.spec.n_bands, grid.points, pump_lambdas(n_lambda))
    return pump_family_from_stack(hk, grid)


def pump_family_from_angles(theta, phi, grid: KGrid, n_lambda: int) -> PumpFamily:
    """Two-band torus family from closed-form angle functions theta(k, lam),
    phi(k, lam) with lam in [0, 1)."""
    if grid.spec.n_bands != 2:
        raise ValueError("angle families are two-band")
    lambdas = pump_lambdas(n_lambda)
    kk, ll = np.meshgrid(grid.points, lambdas, indexing="ij")
    coeffs = two_band_columns(np.asarray(theta(kk, ll), dtype=float),
                              np.asarray(phi(kk, ll), dtype=float))
    return PumpFamily(grid=grid, lambdas=lambdas, coeffs=coeffs)
