"""The 2x2 algebra: a two-band H = t I + b.sigma is spin-1/2 su(2), so its
eigen path, exp(i H) and U M U^dag have closed forms, all on one entry table
((x00, x01), (x10, x11)) that :func:`stack` lays out as a stack.
:func:`eigh` and :func:`expm_i` take any NB: the closed form at NB = 2,
``np.linalg.eigh`` otherwise.  :func:`defect` is one entry-pair pass at any NB.
"""

import numpy as np


def stack(entries: tuple) -> np.ndarray:
    """The complex (..., 2, 2) stack of a 2x2 entry table, of x00's shape."""
    out = np.empty(np.shape(entries[0][0]) + (2, 2), dtype=complex)
    for m, n in np.ndindex(2, 2):
        out[..., m, n] = entries[m][n]
    return out


def entries(mats: np.ndarray) -> tuple:
    """The entry table of a (..., 2, 2) stack, each entry a contiguous (...) array."""
    return tuple(tuple(np.ascontiguousarray(mats[..., m, n]) for n in range(2)) for m in range(2))


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
    return stack(((c, -s * np.exp(-1j * phi)), (s * np.exp(1j * phi), c)))


def fix_phase(coeffs: np.ndarray) -> np.ndarray:
    """:func:`model.fix_phase_gauge` of a (..., NB, NB) stack, in place."""
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


def eigh(hk: np.ndarray, energies: np.ndarray, coeffs: np.ndarray) -> None:
    """``np.linalg.eigh`` and :func:`fix_phase` of a Hermitian (P, NB, NB)
    stack, written into ``energies`` (P, NB) and ``coeffs`` (P, NB, NB);
    NB = 2 takes a closed form.

    Like eigh, it reads the real diagonal and the lower entry c = H[1, 0]:
    H - t I = [[d, c*], [c, -d]] with t, d the half sum and half difference
    of the diagonal.  The energies are t -+ r, r = hypot(d, |c|).  Each column
    has one component of modulus L = sqrt((1 + |d| / r) / 2), put real and
    positive, and the other s = (c / r) / 2L or its conjugate, up to sign; L
    is raised to just above |s| where round-off would make s the larger, so
    the columns are already in the gauge of :func:`fix_phase`, the first
    component winning a tie (d = 0).  Nothing cancels, so the energies
    are within 8 eps max|H| of eigh's and the columns within 16 eps max|H| /
    gap, except near a tie (|d| up to about 32 eps max|H|), where the pivot
    of eigh's column is itself round-off.  Where r is below 2**-900 the
    columns are taken from d and c scaled by 2**600, exactly, so subnormal
    entries keep the column bound, and the energies are off by at most a few
    subnormal steps more.  r = 0 (a scalar matrix) gives finite columns and a
    zero gap.
    """
    if hk.shape[-1] != 2:
        energies[...], vectors = np.linalg.eigh(hk)
        coeffs[...] = fix_phase(vectors)
        return
    h00, h11, c = hk[:, 0, 0].real, hk[:, 1, 1].real, hk[:, 1, 0]
    # halves first: t and d stay finite for any finite diagonal
    t, d = 0.5 * h00 + 0.5 * h11, 0.5 * h00 - 0.5 * h11
    r = np.hypot(d, np.abs(c))
    energies[:, 0], energies[:, 1] = t - r, t + r
    tiny = r < 2.0 ** -900
    if tiny.any():
        # near the subnormal range halving and hypot round coarsely: take the
        # ratios below of c and h00 - h11 (one rounding, relative to itself)
        # scaled by powers of two, which is exact
        c = c.copy()
        d[tiny], c[tiny] = (h00[tiny] - h11[tiny]) * 2.0 ** 599, c[tiny] * 2.0 ** 600
        r = np.hypot(d, np.abs(c))
    gapped = r > 0.0
    big = np.sqrt(0.5 + 0.5 * np.divide(np.abs(d), r, out=np.ones_like(r), where=gapped))
    small = np.zeros_like(c)
    np.divide(c.real, r, out=small.real, where=gapped)
    np.divide(c.imag, r, out=small.imag, where=gapped)
    small *= 0.5 / big
    # np.abs, not hypot: the modulus that fix_phase's argmax compares
    big = np.maximum(big, np.nextafter(np.abs(small), np.inf))
    # the upper band's pivot is its first component unless d < 0, the lower band's its
    # second if d > 0; written entry by entry, not by stack: one entry's temporaries at a time
    upper, lower = d >= 0.0, d > 0.0
    coeffs[:, 0, 0] = np.where(lower, -small.conj(), big)
    coeffs[:, 1, 0] = np.where(lower, big, -small)
    coeffs[:, 0, 1] = np.where(upper, big, small.conj())
    coeffs[:, 1, 1] = np.where(upper, small, big)


def defect(hk: np.ndarray, out: np.ndarray) -> None:
    """The largest entry of |H - H^dag| of each matrix of a (P, NB, NB)
    stack, written into ``out`` (P,), one entry pair at a time, without the
    whole difference: 2 |Im H_ii| on the diagonal, |H_ij - conj H_ji| for
    i < j (the same bits as |H_ji - conj H_ij|), and the same overflow in a
    subtraction."""
    nb = hk.shape[-1]
    np.abs(hk[:, 0, 0].imag, out=out)
    for i in range(1, nb):
        np.maximum(out, np.abs(hk[:, i, i].imag), out=out)
    np.subtract(out, -out, out=out)  # |Im(H_ii - conj H_ii)|
    for i in range(nb):
        for j in range(i + 1, nb):
            np.maximum(out, np.abs(hk[:, i, j] - hk[:, j, i].conj()), out=out)


def exp_i(h00: np.ndarray, h11: np.ndarray, h01: np.ndarray) -> tuple:
    """exp(i H) of H = [[h00, h01], [conj h01, h11]] per point, as the entry
    table ((u00, u01), (u10, u11)), in SU(2) closed form: with
    H = t I + b.sigma, exp(i H) = e^{i t} [cos|b| I + i (sin|b| / |b|)
    (H - t I)], where sin|b| / |b| is taken as 1 at b = 0."""
    t = (h00 + h11) / 2.0
    b = np.hypot((h00 - h11) / 2.0, np.abs(h01))
    sinc = np.divide(np.sin(b), b, out=np.ones_like(b), where=b != 0.0)
    phase = np.exp(1j * t)
    c, s = phase * np.cos(b), phase * (1j * sinc)
    return (c + s * (h00 - t), s * h01), (s * h01.conj(), c + s * (h11 - t))


def expm_i(generator: np.ndarray) -> np.ndarray:
    """exp(i H) of a Hermitian (..., NB, NB) stack: :func:`exp_i` of its
    entries at NB = 2, otherwise one stacked eigh, V e^{i w} V^dag."""
    if generator.shape[-1] == 2:
        (h00, h01), (_, h11) = entries(generator)
        return stack(exp_i(h00.real, h11.real, h01))
    w, v = np.linalg.eigh(generator)
    return np.einsum("...mi,...i,...ni->...mn", v, np.exp(1j * w), v.conj())


def sandwich(u: tuple, m: tuple, pairs) -> list:
    """The entries (r, c) in ``pairs`` of U M U^dag, for U and M given as
    2x2 entry tables, from explicit products: V = U M, then
    (U M U^dag)_rc = V_r0 conj(U_c0) + V_r1 conj(U_c1)."""
    v = [[u[r][0] * m[0][j] + u[r][1] * m[1][j] for j in range(2)] for r in range(2)]
    return [v[r][0] * u[c][0].conj() + v[r][1] * u[c][1].conj() for r, c in pairs]
