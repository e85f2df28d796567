"""Position-operator matrices on the factorised Bloch basis.

The full position matrix on the (band, momentum) basis is finite in every
entry.  Its momentum-diagonal blocks carry the Berry connection plus the
crystal mass center; its off-diagonal blocks carry the band overlap factor
times a position-weighted phase sum over sites.  The phase sum has a closed
form per momentum offset that makes it Hermitian exactly; the dense matrix
is assembled in its output layout a fixed block of momentum rows at a time,
so no full-size temporary sits beside it.  Nothing is assumed to collapse
to a delta ahead of time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonHermitianInput, UnderResolvedGrid, ZeroOverlap
from .model import ROW_BLOCK, BlochField, KGrid, _first, _row_blocks, _where

CRM_HERMITICITY_TOL = 1e-10  #: per unit lattice constant, the scale of every entry
ZERO_OVERLAP_TOL = 1e-12  #: a link overlap below this modulus has no phase


def central_difference(values: np.ndarray, spacing: float, axis: int = 0) -> np.ndarray:
    """Central difference with periodic wrap along ``axis``: v[i+1] - v[i-1]
    written by slices into one array laid out as ``values``, the two
    wrapped ends included, then divided by 2 spacing (in place unless the
    divide promotes, as integer input does)."""
    values = np.asarray(values)
    diff = np.empty_like(values)
    v, d = values.swapaxes(0, axis), diff.swapaxes(0, axis)
    n = len(v)
    if n:
        np.subtract(v[2:], v[:-2], out=d[1:-1])
        np.subtract(v[1 % n:1 % n + 1], v[n - 1:], out=d[:1])
        np.subtract(v[:1], v[(n - 2) % n:(n - 2) % n + 1], out=d[n - 1:])
    scale = 2.0 * spacing
    if np.result_type(diff, scale) == diff.dtype:
        return np.divide(diff, scale, out=diff)
    return diff / scale


@dataclass(frozen=True)
class ConnectionField:
    """k-indexed NB x NB Hermitian matrices: the Berry connection, or the
    reduced position matrix (connection plus mass-center on the diagonal).
    ``hermiticity_defect`` records the max deviation before symmetrisation
    on the finite-difference path (0 on the analytic path).
    """

    grid: KGrid
    values: np.ndarray
    hermiticity_defect: float = 0.0

    @property
    def n_bands(self) -> int:
        return self.values.shape[1]


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
    return ConnectionField(grid=field.grid, values=a, hermiticity_defect=defect)


def reduced_position_matrix(field: BlochField,
                            connection: Optional[ConnectionField] = None) -> ConnectionField:
    """Reduced position matrix r_{m,n}(k) = A_{m,n}(k) + delta_{m,n} Rbar;
    ``connection`` is the field's :func:`berry_connection` when the caller
    has already built it."""
    conn = berry_connection(field) if connection is None else connection
    rbar = field.grid.spec.rbar
    vals = conn.values + rbar * np.eye(field.n_bands)[None, :, :]
    return ConnectionField(grid=field.grid, values=vals, hermiticity_defect=conn.hermiticity_defect)


def link_overlaps(cols: np.ndarray, axis: int) -> np.ndarray:
    """Link variables sum_l conj(c_l) c_l(next) of one band's columns
    (k, then lambda for a pump family, orbital index last) with their
    periodic neighbours along ``axis``.  A loop of fewer than 3 points
    raises :class:`UnderResolvedGrid`; a link below ``ZERO_OVERLAP_TOL``
    raises :class:`ZeroOverlap`, naming its first index and modulus.

    The links are written C-contiguous in the order of ``cols``, a block of
    leading rows at a time holding at most ``ROW_BLOCK**2`` points (a ribbon
    of up to that many points is one block), so no transient is the size of
    ``cols``."""
    n = cols.shape[axis]
    if n < 3:
        raise UnderResolvedGrid(f"a closed loop needs at least 3 grid points, got {n}")
    links = np.empty(cols.shape[:-1], dtype=complex)
    for rows, _ in _row_blocks(links.shape):
        r0, r1 = rows.start, rows.stop
        here = cols[r0:r1]
        nxt = (np.concatenate((cols[r0 + 1:r1 + 1], cols[:max(0, r1 + 1 - n)])) if axis == 0
               else np.roll(here, -1, axis=axis))
        np.einsum("...l,...l->...", here.conj(), nxt, out=links[r0:r1])
        small = np.abs(links[r0:r1]) < ZERO_OVERLAP_TOL
        if small.any():
            at = _first(small)
            at = (r0 + at[0],) + at[1:]
            raise ZeroOverlap(f"overlap at {_where(at)} with the next point along "
                              f"{('k', 'lambda')[axis]} has modulus {np.abs(links[at]):.2e}")
    return links


def loop_phases(cols: np.ndarray) -> np.ndarray:
    """Discrete Berry phase in (-pi, pi] along axis 0, per remaining slice:
    minus the angle of the closed link product, branch taken once; a
    product on the negative real axis gives +pi, whatever the sign of its
    zero imaginary part.  Each product runs contiguously in ascending k: the
    bits of the slice alone.  The slices are transposed by the blocks of
    :func:`_row_blocks`, at most ``ROW_BLOCK**2`` links at a time (a slice
    longer than that is one block), so no transient is the size of the
    links."""
    links = link_overlaps(cols, axis=0)
    slices = links.reshape(len(links), -1)
    phases = np.empty(slices.shape[1])
    for block, _ in _row_blocks(slices.shape[::-1]):
        angle = np.angle(np.prod(np.ascontiguousarray(slices[:, block].T), axis=-1))
        phases[block] = np.where(angle == np.pi, angle, -angle)
    return phases.reshape(links.shape[1:])[()]


def _phase_offsets(grid: KGrid) -> np.ndarray:
    """c_d = (1/N) sum_j R_j e^{2 pi i d j / N} for d = 0..N-1, the grid part
    of the phase sum: c_0 = Rbar, c_d = a / (e^{2 pi i d / N} - 1) otherwise.
    cot(pi d / N) is taken on min(d, N - d), so c_{N-d} = conj(c_d) exactly."""
    spec = grid.spec
    n, d = spec.n_cells, np.arange(1, spec.n_cells)
    cot = np.sign(n - 2 * d) / np.tan(np.pi * np.minimum(d, n - d) / n)
    return np.concatenate(([spec.rbar], -spec.lattice_constant / 2 * (1 + 1j * cot)))


def _phase_rows(grid: KGrid, per_offset: np.ndarray, p0: int, p1: int) -> np.ndarray:
    """Rows p0..p1-1 of S: the origin phase times the offset sum."""
    n = grid.spec.n_cells
    diff = np.arange(p0, p1)[:, None] - np.arange(n)[None, :]
    dk = grid.points[p0:p1, None] - grid.points[None, :]
    return np.exp(1j * dk * grid.spec.origin) * per_offset[diff % n]


def position_phase_sum(grid: KGrid) -> np.ndarray:
    """S[p, q] = (1/N) sum_j R_j e^{i (k_p - k_q) R_j}.

    Equals Rbar on the diagonal and stays generically nonzero off it; this
    is the piece that distinguishes the finite-basis position matrix from
    a k-diagonal object.  (k_p - k_q) R_j splits into an origin phase and
    a pure grid phase depending on (p - q) mod N only, whose sum over sites
    has a closed form; S equals its conjugate transpose bit for bit.
    """
    return _phase_rows(grid, _phase_offsets(grid), 0, grid.spec.n_cells)


@dataclass(frozen=True)
class PositionMatrix:
    """Dense (NB*N) x (NB*N) position matrix over the Bloch basis.

    Composite index (m, p) -> m*N + p, band index outer, matching the
    Kronecker embedding order.  ``derivative_scheme`` records whether the
    k-diagonal blocks came from analytic or central-difference column
    derivatives; ``hermiticity_tol`` is the bound the defect was held to.
    """

    grid: KGrid
    entries: np.ndarray
    derivative_scheme: str
    hermiticity_defect: float
    hermiticity_tol: float

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


def position_matrix(field: BlochField) -> PositionMatrix:
    """Assemble the full position matrix.

    Entry ((m,p),(n,q)) = delta_{pq} A_{m,n}(k_p)
    + K_{m,n}(k_p,k_q) * (1/N) sum_j R_j e^{i(k_p-k_q) R_j},
    with the band overlap K_{m,n}(k_p,k_q) = sum_l conj(a_l^{(m)}(k_p)) a_l^{(n)}(k_q).

    The second term is evaluated for every (p, q) including p = q, where it
    lands on delta_{m,n} Rbar only because the coefficient matrices are
    unitary; that collapse is checked by the test suite, not assumed here.
    The entries are written in place, ``ROW_BLOCK`` momentum rows p at a
    time: the overlaps K of those rows go straight into their output
    layout, are multiplied by the matching rows of S, and take the
    connection on the diagonal.  Beyond the (NB*N)^2 output, memory is
    O(ROW_BLOCK * NB^2 * N).
    Raises :class:`NonHermitianInput`, naming the composite index
    (m, p, n, q) where |E - E^dag| peaks, when the matrix
    violates Hermiticity beyond ``CRM_HERMITICITY_TOL`` times the lattice
    constant; that diagnoses a bad gauge or an under-resolved grid.  A NaN
    entry never passes: its defect is NaN, named at its own index.
    """
    nb, nk = field.n_bands, field.n_k
    conn = berry_connection(field)
    scheme = "analytic" if field.dcoeffs is not None else "central-difference"
    coeffs = field.coeffs
    per_offset = _phase_offsets(field.grid)

    entries = np.empty((nb, nk, nb, nk), dtype=complex)
    for p0 in range(0, nk, ROW_BLOCK):
        p1 = min(p0 + ROW_BLOCK, nk)
        rows = entries[:, p0:p1]
        np.einsum("plm,qln->mpnq", coeffs[p0:p1].conj(), coeffs, out=rows)
        rows *= _phase_rows(field.grid, per_offset, p0, p1)[None, :, None, :]
        rows[:, np.arange(p1 - p0), :, np.arange(p0, p1)] += conn.values[p0:p1]
    entries = entries.reshape(nb * nk, nb * nk)

    defect, (row, col) = _hermiticity_defect(entries)
    tol = CRM_HERMITICITY_TOL * field.grid.spec.lattice_constant
    if not defect <= tol:
        (m, p), (n, q) = divmod(row, nk), divmod(col, nk)
        raise NonHermitianInput(
            f"position matrix Hermiticity defect {defect:.3e} > {tol:g} "
            f"at (m, p, n, q) = ({m}, {p}, {n}, {q})")
    return PositionMatrix(grid=field.grid, entries=entries,
                          derivative_scheme=scheme, hermiticity_defect=defect,
                          hermiticity_tol=tol)


def _hermiticity_defect(entries: np.ndarray) -> tuple:
    """max |E - E^dag| and the first (row, column) where it peaks, taken
    over stripes of ``ROW_BLOCK`` rows so no full-size temporary is made.
    |E - E^dag| is symmetric, so its first peak in row-major order lies on
    or above the diagonal: each stripe is scanned from its diagonal column
    on."""
    dim = entries.shape[0]
    peaks, spots = [], []
    for i in range(0, dim, ROW_BLOCK):
        stripe = np.abs(entries[i:i + ROW_BLOCK, i:] - entries[i:, i:i + ROW_BLOCK].conj().T)
        row, col = divmod(int(np.argmax(stripe)), dim - i)
        peaks.append(stripe[row, col])
        spots.append((i + row, i + col))
    s = int(np.argmax(peaks))
    return float(peaks[s]), spots[s]


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
