"""Position-operator matrices on the factorised Bloch basis.

The full position matrix on the (band, momentum) basis is finite in every
entry.  Its momentum-diagonal blocks carry the Berry connection plus the
crystal mass center; its off-diagonal blocks carry the band overlap factor
times a position-weighted phase sum over sites.  All entries are evaluated
by direct summation; nothing is assumed to collapse to a delta ahead of
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonHermitianInput
from .model import BlochField, KGrid

CRM_HERMITICITY_TOL = 1e-10

BERRY_CONNECTION = "berry_connection"
REDUCED_POSITION = "reduced_position"


def central_difference(values: np.ndarray, spacing: float, axis: int = 0) -> np.ndarray:
    """Central difference with periodic wrap along ``axis``."""
    fwd = np.roll(values, -1, axis=axis)
    bwd = np.roll(values, 1, axis=axis)
    return (fwd - bwd) / (2.0 * spacing)


@dataclass(frozen=True)
class ConnectionField:
    """k-indexed NB x NB Hermitian matrices.

    ``kind`` distinguishes the Berry connection from the reduced position
    matrix (connection plus mass-center on the diagonal).
    ``hermiticity_defect`` records the max deviation before symmetrisation
    on the finite-difference path (0 on the analytic path).
    """

    grid: KGrid
    values: np.ndarray
    kind: str
    hermiticity_defect: float = 0.0

    @property
    def n_bands(self) -> int:
        return self.values.shape[1]

    def max_nonhermiticity(self) -> float:
        return float(np.max(np.abs(self.values - self.values.conj().transpose(0, 2, 1))))


def _values(matrix_field) -> np.ndarray:
    """The k-indexed matrices of a :class:`ConnectionField` or a plain array."""
    return matrix_field.values if hasattr(matrix_field, "values") else np.asarray(matrix_field)


def berry_connection(field: BlochField) -> ConnectionField:
    """Berry connection A_{m,n}(k_p) = sum_l conj(a_l^{(m)}) i d_k a_l^{(n)}.

    Uses the field's analytic column derivatives when present; otherwise
    central differences with periodic wrap.  The finite-difference result
    is symmetrised to (A + A^dag)/2 and the pre-symmetrisation defect is
    kept on the returned field; the analytic path is Hermitian by
    construction and is not touched.
    """
    analytic = field.dcoeffs is not None
    dc = field.dcoeffs if analytic else central_difference(field.coeffs, field.grid.spacing, axis=0)
    a = 1j * np.einsum("plm,pln->pmn", field.coeffs.conj(), dc)
    defect = 0.0
    if not analytic:
        defect = float(np.max(np.abs(a - a.conj().transpose(0, 2, 1))))
        a = (a + a.conj().transpose(0, 2, 1)) / 2.0
    return ConnectionField(grid=field.grid, values=a, kind=BERRY_CONNECTION,
                           hermiticity_defect=defect)


def reduced_position_matrix(field: BlochField) -> ConnectionField:
    """Reduced position matrix r_{m,n}(k) = A_{m,n}(k) + delta_{m,n} Rbar."""
    conn = berry_connection(field)
    rbar = field.grid.spec.rbar
    vals = conn.values + rbar * np.eye(field.n_bands)[None, :, :]
    return ConnectionField(grid=field.grid, values=vals, kind=REDUCED_POSITION,
                           hermiticity_defect=conn.hermiticity_defect)


def band_overlap(field: BlochField, p: int, q: int) -> np.ndarray:
    """Band overlap factor K_{m,n}(k_p, k_q) = sum_l conj(a_l^{(m)}(k_p)) a_l^{(n)}(k_q)."""
    return field.coeffs[p].conj().T @ field.coeffs[q]


def link_overlaps(cols: np.ndarray, axis: int) -> np.ndarray:
    """Link variables sum_l conj(c_l) c_l(next) of one band's columns
    (orbital index last) with their periodic neighbours along ``axis``."""
    return np.einsum("...l,...l->...", cols.conj(), np.roll(cols, -1, axis=axis))


def position_phase_sum(grid: KGrid) -> np.ndarray:
    """S[p, q] = (1/N) sum_j R_j e^{i (k_p - k_q) R_j} by direct summation.

    Equals Rbar on the diagonal and stays generically nonzero off it; this
    is the piece that distinguishes the finite-basis position matrix from
    a k-diagonal object.  (k_p - k_q) R_j splits into an origin phase and
    a pure grid phase depending on (p - q) mod N only, so the direct sum
    is taken once per offset instead of once per (p, q) pair.
    """
    spec = grid.spec
    n = spec.n_cells
    offsets = np.arange(n)
    grid_phases = np.exp(2j * np.pi * np.outer(offsets, np.arange(n)) / n)
    per_offset = grid_phases @ spec.sites / n
    diff = np.arange(n)[:, None] - np.arange(n)[None, :]
    dk = grid.points[:, None] - grid.points[None, :]
    return np.exp(1j * dk * spec.origin) * per_offset[diff % n]


@dataclass(frozen=True)
class PositionMatrix:
    """Dense (NB*N) x (NB*N) position matrix over the Bloch basis.

    Composite index (m, p) -> m*N + p, band index outer, matching the
    Kronecker embedding order.  ``derivative_scheme`` records whether the
    k-diagonal blocks came from analytic or central-difference column
    derivatives.
    """

    grid: KGrid
    entries: np.ndarray
    derivative_scheme: str
    hermiticity_defect: float

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_bands(self) -> int:
        return self.dim // self.grid.n

    def block(self, p: int, q: int) -> np.ndarray:
        """NB x NB block for the momentum pair (k_p, k_q)."""
        nb, nk = self.n_bands, self.grid.n
        return self.entries.reshape(nb, nk, nb, nk)[:, p, :, q]


def position_matrix(field: BlochField, hermiticity_tol: float = CRM_HERMITICITY_TOL) -> PositionMatrix:
    """Assemble the full position matrix.

    Entry ((m,p),(n,q)) = delta_{pq} A_{m,n}(k_p)
    + K_{m,n}(k_p,k_q) * (1/N) sum_j R_j e^{i(k_p-k_q) R_j}.

    The second term is evaluated by direct summation for every (p, q)
    including p = q, where it lands on delta_{m,n} Rbar only because the
    coefficient matrices are unitary; that collapse is checked by the test
    suite, not assumed here.  Raises :class:`NonHermitianInput` when the
    assembled matrix violates Hermiticity beyond ``hermiticity_tol``,
    which diagnoses a bad gauge or an under-resolved grid.
    """
    nb, nk = field.n_bands, field.n_k
    conn = berry_connection(field)
    scheme = "analytic" if field.dcoeffs is not None else "central-difference"

    overlap = np.einsum("plm,qln->pqmn", field.coeffs.conj(), field.coeffs)
    ssum = position_phase_sum(field.grid)
    blocks = overlap * ssum[:, :, None, None]
    blocks[np.arange(nk), np.arange(nk)] += conn.values

    entries = blocks.transpose(2, 0, 3, 1).reshape(nb * nk, nb * nk)
    defect = float(np.max(np.abs(entries - entries.conj().T)))
    if defect > hermiticity_tol:
        raise NonHermitianInput(
            f"position matrix Hermiticity defect {defect:.3e} > {hermiticity_tol:g}")
    return PositionMatrix(grid=field.grid, entries=entries,
                          derivative_scheme=scheme, hermiticity_defect=defect)


def crystal_momentum_matrix(grid: KGrid, n_bands: Optional[int] = None) -> np.ndarray:
    """k-indexed matrices of the crystal momentum: k_p times the identity."""
    nb = grid.spec.n_bands if n_bands is None else n_bands
    return grid.points[:, None, None] * np.eye(nb)[None, :, :]


def position_momentum_commutator(field: BlochField) -> np.ndarray:
    """[r(k), k(k)] at every grid point.

    The momentum matrix is a scalar multiple of the identity at each k, so
    the commutator is identically zero; in particular it never equals
    i times the identity, however fine the grid.
    """
    r = reduced_position_matrix(field).values
    kmat = crystal_momentum_matrix(field.grid, field.n_bands)
    return r @ kmat - kmat @ r
