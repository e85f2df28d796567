"""Real-space demonstrations of why the naive Bloch-basis position matrix fails.

This is the only module that samples functions of the continuous
coordinate r.  The demos quantify three facts: the truncated diagonal
position expectation of an extended state grows without bound in the
truncation window; a rigid lattice translation shifts it by exactly one
lattice constant at any finite truncation (the formal argument that it
should be invariant only "works" because the untruncated integral
diverges); and a gapped orthonormal cell basis, however large, cannot
represent weight placed in its vacuum region.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteResult

DEFAULT_SAMPLES = 2048
#: fewest trapezoid panels per cell a SampledCellFunction accepts
MIN_SAMPLES = 64

#: window placements for the truncation study; "from-origin" exhibits the
#: monotone growth, "centered" can hide it by symmetry.
FROM_ORIGIN = "from-origin"
CENTERED = "centered"
CENTERINGS = (FROM_ORIGIN, CENTERED)
MIN_FIT_R2 = 0.999  #: least R^2 of a truncation fit that counts as linear growth
GRAM_OFF_DIAGONAL_TOL = 1e-10  #: per unit of the Gram diagonal, which is N


@dataclass(frozen=True)
class SampledCellFunction:
    """Amplitude samples of one cell [0, a] on a uniform closed grid.

    ``values`` has ``n_samples + 1`` entries including both endpoints;
    integrals use composite trapezoid weights.  Positions within a cell
    are measured from the cell center, so a site at R_j covers global
    positions R_j + (r - a/2) for r in [0, a].
    """

    values: np.ndarray
    lattice_constant: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if len(vals) < MIN_SAMPLES + 1:
            raise ValueError(f"need at least {MIN_SAMPLES} panels per cell")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, f: Callable[[np.ndarray], np.ndarray], lattice_constant: float,
                      n_samples: int = DEFAULT_SAMPLES) -> "SampledCellFunction":
        r = np.linspace(0.0, lattice_constant, n_samples + 1)
        return cls(values=np.asarray(f(r), dtype=complex), lattice_constant=lattice_constant)

    @property
    def n_samples(self) -> int:
        return len(self.values) - 1

    @property
    def positions(self) -> np.ndarray:
        return np.linspace(0.0, self.lattice_constant, len(self.values))

    def integrate(self, integrand: np.ndarray) -> complex:
        return complex(np.trapezoid(integrand, dx=self.lattice_constant / self.n_samples))

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm_squared(self) -> float:
        return float(np.real(self.integrate(self.density())))

    def normalized(self) -> "SampledCellFunction":
        return SampledCellFunction(values=self.values / np.sqrt(self.norm_squared()),
                                   lattice_constant=self.lattice_constant)

    def cell_mean_position(self) -> float:
        """Density-weighted mean of (r - a/2) over the normalized cell."""
        norm = self.norm_squared()
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"cell function not normalized: |psi|^2 integrates to {norm:.6f}")
        a = self.lattice_constant
        return float(np.real(self.integrate(self.density() * (self.positions - a / 2.0))))


def _window_mean(cell_mean: float, a: float, w: int, centering: str, shift: int = 0) -> float:
    """The truncated <r> of a window of ``w`` cells moved by ``shift`` cells,
    cell_mean + a (mean cell offset + shift), in closed form: the mean offset
    is (W - 1) / 2 from the origin (inf for a W past the float range) and 0
    centered.  A non-finite value raises :class:`NonFiniteResult`, naming W."""
    if centering not in CENTERINGS:
        raise ValueError(f"unknown centering {centering!r}")
    offset = 0.0 if centering == CENTERED else (w - 1) / 2.0 if w <= sys.float_info.max else np.inf
    with np.errstate(over="ignore"):
        value = float(cell_mean + a * (offset + shift))
    if not np.isfinite(value):
        raise NonFiniteResult(f"the truncated <r> of the window W = {w} is {value}: "
                              f"W a is past the float range")
    return value


def check_windows(windows: Sequence[int]) -> np.ndarray:
    """Truncation windows as an integer array; a line is fitted through
    them, so there must be at least 2, strictly increasing and >= 1."""
    windows = np.asarray(list(windows), dtype=int)
    if len(windows) < 2 or np.any(windows < 1) or np.any(np.diff(windows) <= 0):
        raise ValueError("windows must be at least 2, strictly increasing and >= 1")
    return windows


@dataclass(frozen=True)
class TruncationStudy:
    windows: np.ndarray
    values: np.ndarray
    slope: float
    r_squared: float


def truncated_position_expectation(cell_fn: SampledCellFunction, windows: Sequence[int],
                                   centering: str = FROM_ORIGIN) -> TruncationStudy:
    """Truncated diagonal <r> of a Bloch-extended cell function.

    The Bloch phases e^{i k R_j} drop out of the diagonal density, so the
    W-cell expectation is the per-cell mean, by trapezoid quadrature, plus
    a times the window's mean cell offset, in closed form: (W - 1) / 2 from
    the origin, 0 centered.  A linear fit of value against W is attached;
    an unbounded slope-away-from-zero fit is the divergence signature of
    the untruncated matrix element.
    """
    windows = check_windows(windows)
    cell_mean, a = cell_fn.cell_mean_position(), cell_fn.lattice_constant
    values = np.array([_window_mean(cell_mean, a, w, centering) for w in windows])

    # the fit runs in units of a, so its squares stay floats at any lattice constant
    x, y = windows.astype(float), values / a
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    # a spread at round-off of the widest window is a flat (centered) run
    flat = np.ptp(y) <= 1e-12 * windows[-1]
    r_squared = 1.0 if flat else 1.0 - ss_res / ss_tot
    return TruncationStudy(windows=windows, values=values, slope=float(slope * a),
                           r_squared=r_squared)


@dataclass(frozen=True)
class TranslationAudit:
    before: float
    after: float
    predicted_shift: float

    @property
    def measured_shift(self) -> float:
        return self.after - self.before


def translation_audit(cell_fn: SampledCellFunction, window: int,
                      centering: str = FROM_ORIGIN) -> TranslationAudit:
    """Truncated <r> before and after a one-cell translation.

    A full-cell translation maps the periodic density onto itself, so the
    entire effect is window bookkeeping: the occupied cells slide one step
    and <r> moves by exactly -a, while both values keep growing with the
    window.  The formal phase-cancellation argument that predicts no shift
    silently divides infinity by itself; at finite truncation the
    boundary-cell exchange is always there and is always -a.
    """
    a, cell_mean = cell_fn.lattice_constant, cell_fn.cell_mean_position()
    return TranslationAudit(before=_window_mean(cell_mean, a, window, centering),
                            after=_window_mean(cell_mean, a, window, centering, -1),
                            predicted_shift=-a)


def gapped_cell_basis(n_max: int, lattice_constant: float,
                      n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Orthonormal cell functions supported on the first half cell only.

    Row n-1 samples (2/sqrt(a)) sin(4 n pi r / a) on (0, a/2) and zero on
    (a/2, a), n = 1..n_max, on the same closed grid as
    :class:`SampledCellFunction`.
    """
    a = lattice_constant
    r = np.linspace(0.0, a, n_samples + 1)
    ns = np.arange(1, n_max + 1)
    basis = (2.0 / np.sqrt(a)) * np.sin(4.0 * np.pi * np.outer(ns, r / a))
    basis[:, r > a / 2.0] = 0.0
    return basis


def projection_residual(target: SampledCellFunction, n_max: int) -> float:
    """Relative norm of the target left over after projecting on the gapped basis.

    Returns ||target - P target|| / ||target||.  Weight supported in the
    vacuum half of the cell is orthogonal to every basis function, so its
    residual stays at 1 for any n_max: the basis set is isomorphic to a
    Bloch space yet cannot represent such functions.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    basis = gapped_cell_basis(n_max, target.lattice_constant, target.n_samples)
    coeffs = np.array([target.integrate(b.conj() * target.values) for b in basis])
    proj = coeffs @ basis
    resid = target.values - proj
    num = np.real(target.integrate(resid.conj() * resid))
    den = target.norm_squared()
    return float(np.sqrt(max(num, 0.0) / den))


def gapped_basis_gram(n_max: int, n_cells: int, lattice_constant: float = 1.0,
                      n_samples: int = DEFAULT_SAMPLES):
    """Gram matrix of the Bloch-extended gapped basis over the whole chain.

    Basis label (n, p): cell function n carried across N cells with phases
    e^{i k_p R_j}; label (n, p) is row n*N + p.  Every cell function
    vanishes at both cell edges, so the trapezoid integral over the chain
    is the sum of per-cell integrals and the Gram matrix is exactly the
    factor rule: cell Gram (x) site phase sum.  Returns
    (gram, worst_off_diagonal); the Gram target is N on the diagonal and 0
    elsewhere.
    """
    a = lattice_constant
    cell = gapped_cell_basis(n_max, a, n_samples)
    cell_gram = np.trapezoid(cell[:, None, :] * cell[None, :, :], dx=a / n_samples, axis=2)
    k_points = np.arange(n_cells) * 2.0 * np.pi / (n_cells * a)
    sites = np.arange(n_cells) * a
    phases = np.exp((1j * k_points[:, None]) * sites[None, :])
    gram = np.kron(cell_gram, phases.conj() @ phases.T)
    off = gram - np.diag(np.diag(gram))
    return gram, float(np.max(np.abs(off)))
