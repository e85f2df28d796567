"""Transport observables built on the reduced position matrix.

Shift vector, the DC shift-current spectrum, and adiabatic charge pumping
with an independent plaquette invariant as oracle.  Units: e = hbar = 1;
spectra are reported up to a global positive constant.  The crystal mass
center enters every band diagonal identically and cancels in each
observable; tests move the lattice origin to confirm.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import BranchTrackingError, MissingEnergies, NonFiniteResult, UnderResolvedGrid
from .model import ROW_BLOCK, BlochField, PumpFamily
from .rmatrix import ConnectionField, _values, link_overlaps, loop_phases, reduced_position_matrix

SHIFT_MODULUS_TOL = 1e-10  #: per unit lattice constant, the unit of r_mn
#: two-sided phase increments larger than this mean the off-diagonal phase
#: winds too fast for the grid (or passed through zero between neighbours)
SHIFT_INCREMENT_LIMIT = np.pi / 2
CHERN_RESIDUE_LIMIT = 0.05
BRANCH_JUMP_LIMIT = np.pi


@dataclass(frozen=True)
class OccupationSpec:
    """Band fillings in [0, 1]; either one number per band or a per-k table."""

    fillings: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.fillings, dtype=float)
        if np.any(f < 0) or np.any(f > 1):
            raise ValueError("fillings must lie in [0, 1]")
        object.__setattr__(self, "fillings", f)

    def filling(self, band: int, n_k: int) -> np.ndarray:
        """Per-k filling of one band, broadcast if k-independent."""
        if self.fillings.ndim == 1:
            return np.full(n_k, self.fillings[band])
        return self.fillings[:, band]

    def difference(self, m: int, n: int, n_k: int) -> np.ndarray:
        """Pauli factor f_n(k) - f_m(k) for the transition n -> m."""
        return self.filling(n, n_k) - self.filling(m, n_k)


@dataclass(frozen=True)
class DriveSpec:
    """Drive frequencies, real field amplitude per frequency, and the
    Lorentzian half-width (squared once here) in place of the resonance
    delta; a width or amplitude whose square overflows raises OverflowError."""

    frequencies: np.ndarray
    amplitude: np.ndarray
    broadening: float
    broadening_sq: float = dc_field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.frequencies, dtype=float)
        if w.ndim != 1 or np.any(np.diff(w) <= 0):
            raise ValueError("frequencies must be a strictly increasing 1D list")
        amp = np.broadcast_to(np.asarray(self.amplitude, dtype=float), w.shape).copy()
        if not self.broadening > 0:
            raise ValueError("broadening must be > 0")
        if np.any(np.abs(amp) > np.sqrt(np.finfo(float).max)):
            raise OverflowError("the square of an amplitude exceeds the float range")
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "broadening_sq", float(self.broadening) ** 2)

    def lorentzian(self, x: np.ndarray) -> np.ndarray:
        """Unit-area Lorentzian of half-width ``broadening`` at detuning x."""
        return self._lorentzian_in_place(np.array(x, dtype=float))

    def _lorentzian_in_place(self, x: np.ndarray) -> np.ndarray:
        """:meth:`lorentzian` of the float array x, written over x."""
        np.square(x, out=x)
        x += self.broadening_sq
        return np.divide(self.broadening / np.pi, x, out=x)


def _connection(field: BlochField, connection: Optional[ConnectionField]) -> np.ndarray:
    return _values(connection if connection is not None else reduced_position_matrix(field))


def _phase_increments(offdiag: np.ndarray) -> np.ndarray:
    """Wrapped phase change of r_{m,n} between the two k-neighbours of
    each grid point, in (-pi, pi]."""
    nxt = np.roll(offdiag, -1)
    prv = np.roll(offdiag, 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(prv != 0, nxt / prv, np.nan)
    return np.angle(ratio)


def shift_vector_field(field: BlochField, m: int, n: int,
                       connection: Optional[ConnectionField] = None):
    """Shift vector R_{m,n}(k_p) on the whole grid plus a defined-mask.

    R_{m,n} = Re(r_{m,m} - r_{n,n}) - X_{m,n} with the off-diagonal
    completion X taken as the discrete unwrapped phase derivative of
    r_{m,n}: the two-sided phase increment over 2 dk.  This is the unique
    local off-diagonal term whose shift under a band-diagonal phase gauge
    cancels the diagonal shift, and the discrete increment form makes the
    cancellation exact on the grid rather than O(dk^2).  Points where |r_mn|
    (at p or either neighbour) is below ``SHIFT_MODULUS_TOL * a``, or where
    the phase increment exceeds pi/2, are marked undefined.  ``connection``,
    a :class:`ConnectionField` or its values, stands in for r of the field.
    """
    if m == n:
        raise ValueError("shift vector needs two distinct bands")
    vals = _connection(field, connection)
    dk = field.grid.spacing
    off = vals[:, m, n]
    mod_ok = np.abs(off) >= SHIFT_MODULUS_TOL * field.grid.spec.lattice_constant
    mod_ok &= np.roll(mod_ok, 1) & np.roll(mod_ok, -1)
    inc = _phase_increments(off)
    with np.errstate(invalid="ignore"):
        defined = mod_ok & np.isfinite(inc) & (np.abs(inc) <= SHIFT_INCREMENT_LIMIT)
    x = np.where(defined, inc, np.nan) / (2.0 * dk)
    diag = np.real(vals[:, m, m] - vals[:, n, n])
    return diag - x, defined


@dataclass(frozen=True)
class SpectrumResult:
    frequencies: np.ndarray
    currents: np.ndarray
    skipped_fraction: float


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches the total, refused below
def shift_current_spectrum(field: BlochField, occ: Optional[OccupationSpec], drive: DriveSpec,
                           connection: Optional[ConnectionField] = None) -> SpectrumResult:
    """DC shift-current spectrum.

    J(omega) = sum_{m>n} sum_p f_{m,n} R_{m,n} |r_{m,n}|^2
               L_eta(omega_{m,n} - omega) E(omega)^2 dk,
    skipping undefined-shift points; the skipped fraction is reported.
    ``occ=None`` fills the n_bands // 2 bands lowest in mean energy over k.

    The (k, omega) Lorentzian product is formed and summed over k in one
    buffer, a block of at most ``ROW_BLOCK`` frequency columns at a time, so
    the working set is O(ROW_BLOCK * N) whatever the frequency count.  The
    blocks are near-equal and none is one column wide unless the whole
    count is 1: numpy sums a C-contiguous (N, w) block over k row by row
    for w >= 2, the order of the unblocked sum, but pairwise for w = 1,
    which would change the last bits.  A current past the float range (a
    huge lattice constant makes |r_mn|^2 overflow) raises
    :class:`NonFiniteResult`, naming the first such frequency and value.
    """
    energies = field.energies
    if energies is None:
        raise MissingEnergies("band energies are required for the shift-current spectrum")
    vals = _connection(field, connection)
    nb, nk = field.n_bands, field.n_k
    dk = field.grid.spacing
    w = drive.frequencies
    amp2 = drive.amplitude ** 2
    n_blocks = max(1, -(-len(w) // ROW_BLOCK))
    edges = [len(w) * b // n_blocks for b in range(n_blocks + 1)]
    buffer = np.empty(nk * max(np.diff(edges)))

    total = np.zeros_like(w)
    skipped = 0
    pairs = 0
    # each unordered band pair once, m the energetically higher member, so
    # the resonance omega_{m,n} is positive whatever the column order
    order = np.argsort(np.mean(energies, axis=0))  # a mean past the float range is inf, in order
    if occ is None:  # a band's rank in that order is below half the band count
        occ = OccupationSpec(np.argsort(order) < nb // 2)
    for hi in range(nb):
        for lo in range(hi):
            m, n = int(order[hi]), int(order[lo])
            # the r built above, not one rebuilt per band pair
            shift, defined = shift_vector_field(field, m, n, connection=vals)
            pairs += nk
            skipped += int(np.sum(~defined))
            f = occ.difference(m, n, nk)
            # a pair with no weight at any defined point adds only signed
            # zeros to a total that starts at +0
            if not np.any(defined & (f != 0)):
                continue
            f = f[defined]
            r2 = np.abs(vals[defined, m, n]) ** 2
            w_mn = energies[defined, m] - energies[defined, n]
            weight = f * shift[defined] * r2 * dk
            for b0, b1 in zip(edges[:-1], edges[1:]):
                x = buffer[:w_mn.size * (b1 - b0)].reshape(w_mn.size, b1 - b0)
                np.subtract(w_mn[:, None], w[None, b0:b1], out=x)
                drive._lorentzian_in_place(x)
                x *= weight[:, None]
                total[b0:b1] += x.sum(axis=0) * amp2[b0:b1]
    if not np.all(np.isfinite(total)):
        at = int(np.argmin(np.isfinite(total)))
        raise NonFiniteResult(f"shift current at omega {w[at]:g} is {total[at]}: "
                              f"its terms overflow a float")
    frac = skipped / pairs if pairs else 0.0
    return SpectrumResult(frequencies=w, currents=total, skipped_fraction=float(frac))


def _track_branch(raw: np.ndarray) -> np.ndarray:
    """Continuous unwrapping of a sequence of principal-branch phases.

    Nearest-branch continuation; an increment at the pi boundary is
    ambiguous and aborts rather than guessing.
    """
    inc = np.angle(np.exp(1j * np.diff(raw)))
    jumps = np.abs(inc) >= BRANCH_JUMP_LIMIT - 1e-9
    if jumps.any():
        j = int(np.argmax(jumps)) + 1
        raise BranchTrackingError(
            f"phase jump {inc[j - 1]:+.3f} between parameter slices {j - 1} and {j}")
    return np.cumsum(np.concatenate((raw[:1], inc)))


@dataclass(frozen=True)
class PumpResult:
    lambdas: np.ndarray
    polarization: np.ndarray
    cumulative_charge: np.ndarray
    delta_q: float


def pumped_charge(family: PumpFamily, band: int) -> PumpResult:
    """Charge moved through one pump cycle, in units of e.

    P(lambda) is the k-loop of the band diagonal of the reduced position
    matrix divided by 2 pi; per slice it is evaluated through the
    wraparound overlap product (:func:`loop_phases`), which realises the
    same loop integral but is immune to the per-k phase convention of
    eigen-decomposed families.  P is branch-tracked continuously through
    the cycle and the mass-center part cancels between the endpoints:
    delta Q = -(P(1) - P(0)).
    """
    spec = family.grid.spec
    raw = loop_phases(family.coeffs[:, :, :, band])
    tracked = _track_branch(np.append(raw, raw[0]))
    pol = tracked / (2.0 * np.pi) + spec.rbar / spec.lattice_constant
    cumulative = -(pol - pol[0])
    return PumpResult(lambdas=np.append(family.lambdas, 1.0), polarization=pol,
                      cumulative_charge=cumulative, delta_q=float(cumulative[-1]))


@dataclass(frozen=True)
class ChernResult:
    value: int
    residue: float


def chern_number(family: PumpFamily, band: int) -> ChernResult:
    """Plaquette-product invariant of one band on the (k, lambda) torus.

    Sums the principal-branch phase of the oriented overlap product around
    every plaquette and divides by 2 pi.  The rounding residue must stay
    below ``CHERN_RESIDUE_LIMIT``; larger means the grid does not resolve
    the band geometry.
    """
    cols = family.coeffs[:, :, :, band]
    uk = link_overlaps(cols, axis=0)
    ul = link_overlaps(cols, axis=1)
    # one whole product: numpy multiplies a temporary operand of 256 KiB or
    # more in place, which rounds differently, so blocks would move the bits
    plaq = uk * np.roll(ul, -1, axis=0) * np.roll(uk, -1, axis=1).conj() * ul.conj()
    flux = np.angle(plaq)
    raw = float(np.sum(flux) / (2.0 * np.pi))
    value = int(np.rint(raw))
    residue = abs(raw - value)
    if residue >= CHERN_RESIDUE_LIMIT:
        raise UnderResolvedGrid(
            f"plaquette sum {raw:.4f} is {residue:.3f} from an integer; refine the grid")
    return ChernResult(value=value, residue=residue)
