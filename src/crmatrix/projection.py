"""Product-space factorisation of the Bloch basis.

Each Bloch basis vector (band n, momentum k_p) factorises into a band
amplitude vector of length NB and a site phase vector of length N; their
Kronecker product reproduces every Bloch inner product without touching a
real-space integral.  The 1/sqrt(N) normalisation lives in the site
factor, and only there.
"""

from __future__ import annotations

import numpy as np

from .model import ROW_BLOCK, BlochField, KGrid, LatticeSpec


def band_factor(field: BlochField, band: int, kindex: int) -> np.ndarray:
    """Band amplitude factor: column ``band`` of the coefficient matrix at k_p."""
    nb, nk = field.n_bands, field.n_k
    if not 0 <= band < nb:
        raise IndexError(f"band {band} out of range 0..{nb - 1}")
    if not 0 <= kindex < nk:
        raise IndexError(f"kindex {kindex} out of range 0..{nk - 1}")
    return field.coeffs[kindex][:, band].copy()


def site_factor(spec: LatticeSpec, grid: KGrid, kindex: int) -> np.ndarray:
    """Site phase factor: entries e^{-i k_p R_j} / sqrt(N)."""
    if not 0 <= kindex < grid.n:
        raise IndexError(f"kindex {kindex} out of range 0..{grid.n - 1}")
    k = grid.points[kindex]
    return np.exp(-1j * k * spec.sites) / np.sqrt(spec.n_cells)


def kron_embed(band_vec: np.ndarray, site_vec: np.ndarray) -> np.ndarray:
    """Kronecker embedding with the band index outer and the site index inner.

    Entry (i*N + j) equals band_vec[i] * site_vec[j].
    """
    return np.kron(np.asarray(band_vec), np.asarray(site_vec))


def pair_inner_product(field: BlochField, left: tuple, right: tuple) -> complex:
    """Inner product of two Bloch basis labels via the factor rules.

    ``left = (m, p)`` and ``right = (n, q)``.  Returns
    <A_{m,kp}|A_{n,kq}> * <E_{kp}|E_{kq}>, the site factor evaluated by
    direct summation of the N phase terms.
    """
    m, p = left
    n, q = right
    spec = field.grid.spec
    a = np.vdot(band_factor(field, m, p), band_factor(field, n, q))
    kp, kq = field.grid.points[p], field.grid.points[q]
    e = np.sum(np.exp(-1j * (kp - kq) * spec.sites)) / spec.n_cells
    return complex(a * e)


def embedded_gram(field: BlochField) -> np.ndarray:
    """Gram matrix of all NB*N embedded vectors; identity iff the
    factorisation preserves the inner product structure.  Row m*N + p is
    the Kronecker embedding of band factor (m, p) and site factor p."""
    spec = field.grid.spec
    nb, nk = field.n_bands, spec.n_cells
    sites = site_factor_frame(spec, field.grid).T  # (k index p, site j)
    bands = field.coeffs.transpose(2, 0, 1)  # (band m, k index p, orbital i)
    vecs = (bands[:, :, :, None] * sites[None, :, None, :]).reshape(nb * nk, nb * nk)
    return vecs.conj() @ vecs.T


def site_factor_frame(spec: LatticeSpec, grid: KGrid) -> np.ndarray:
    """N x N matrix whose columns are all site factors (a unitary DFT frame)."""
    return np.column_stack([site_factor(spec, grid, p) for p in range(grid.n)])


def wannier_coefficient(field: BlochField, band: int, kindex: int,
                        orbital: int, site: int) -> complex:
    """Expansion coefficient a_i^{(n)}(k_p) e^{-i k_p R_j} of the Bloch
    vector over the generalized Wannier basis labelled (orbital i, site j).

    Stored without the 1/sqrt(N) factor, which this module keeps in the
    site factor; round trips renormalise by 1/N.
    """
    spec = field.grid.spec
    if not 0 <= site < spec.n_cells:
        raise IndexError(f"site {site} out of range 0..{spec.n_cells - 1}")
    a = band_factor(field, band, kindex)
    if not 0 <= orbital < field.n_bands:
        raise IndexError(f"orbital {orbital} out of range 0..{field.n_bands - 1}")
    k = field.grid.points[kindex]
    return complex(a[orbital] * np.exp(-1j * k * spec.sites[site]))


def wannier_inverse(field: BlochField, band: int, orbital: int) -> np.ndarray:
    """Recover a_i^{(n)}(k_p) for all p from the Wannier coefficients:
    (1/N) sum_j w(i, j) e^{+i k_p R_j}, ``ROW_BLOCK`` momenta at a time,
    so the working set is O(ROW_BLOCK * N)."""
    spec = field.grid.spec
    for label, index in (("band", band), ("orbital", orbital)):
        if not 0 <= index < field.n_bands:
            raise IndexError(f"{label} {index} out of range 0..{field.n_bands - 1}")
    sites = spec.sites[None, :]
    out = np.empty(field.n_k, dtype=complex)
    for start in range(0, field.n_k, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        k = field.grid.points[rows, None]
        amp = field.coeffs[rows, orbital, band][:, None]
        phase = np.exp((-1j * k) * sites)
        inverse = np.exp((1j * k) * sites)
        # w(p, j) equal to wannier_coefficient's bit for bit: numpy's vectorised
        # complex multiply rounds unlike its scalar one and by operand order, so
        # w is formed in real arithmetic and ``inverse`` is named (an unnamed
        # temporary is multiplied in place with the operands swapped)
        w = np.empty_like(phase)
        w.real = amp.real * phase.real - amp.imag * phase.imag
        w.imag = amp.real * phase.imag + amp.imag * phase.real
        out[rows] = np.sum(w * inverse, axis=1)
    return out / spec.n_cells
