"""Transport observables built on the reduced position matrix.

Shift vector, golden-rule hopping rates, the DC shift-current spectrum,
and adiabatic charge pumping with an independent plaquette invariant as
oracle.  Units: e = hbar = 1; spectra are reported up to a global positive
constant.  The crystal mass center enters every band diagonal identically
and cancels in each observable; tests move the lattice origin to confirm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BranchTrackingError, MissingEnergies, UndefinedShift,
                     UnderResolvedGrid)
from .model import BlochField, PumpFamily
from .rmatrix import (ConnectionField, _values, link_overlaps,
                      reduced_position_matrix)

SHIFT_MODULUS_TOL = 1e-10
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
    Lorentzian half-width used in place of the resonance delta."""

    frequencies: np.ndarray
    amplitude: np.ndarray
    broadening: float

    def __post_init__(self):
        w = np.asarray(self.frequencies, dtype=float)
        if w.ndim != 1 or np.any(np.diff(w) <= 0):
            raise ValueError("frequencies must be a strictly increasing 1D list")
        amp = np.broadcast_to(np.asarray(self.amplitude, dtype=float), w.shape).copy()
        if not self.broadening > 0:
            raise ValueError("broadening must be > 0")
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "amplitude", amp)


def lorentzian(x: np.ndarray, eta: float) -> np.ndarray:
    """Unit-area Lorentzian of half-width eta."""
    return (eta / np.pi) / (np.asarray(x) ** 2 + eta ** 2)


def _connection(field: BlochField, connection: Optional[ConnectionField]) -> np.ndarray:
    return _values(connection if connection is not None else reduced_position_matrix(field))


def _phase_increments(offdiag: np.ndarray) -> np.ndarray:
    """Wrapped phase change of r_{m,n} between the two k-neighbours of
    each grid point, in (-pi, pi]."""
    nxt = np.roll(offdiag, -1)
    prv = np.roll(offdiag, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    cancellation exact on the grid rather than O(dk^2).  Points where the
    off-diagonal modulus (at p or either neighbour) is below tolerance, or
    where the phase increment exceeds pi/2, are marked undefined.
    """
    if m == n:
        raise ValueError("shift vector needs two distinct bands")
    vals = _connection(field, connection)
    dk = field.grid.spacing
    off = vals[:, m, n]
    mod_ok = np.abs(off) >= SHIFT_MODULUS_TOL
    mod_ok &= np.roll(mod_ok, 1) & np.roll(mod_ok, -1)
    inc = _phase_increments(off)
    with np.errstate(invalid="ignore"):
        defined = mod_ok & np.isfinite(inc) & (np.abs(inc) <= SHIFT_INCREMENT_LIMIT)
    x = np.where(defined, inc, np.nan) / (2.0 * dk)
    diag = np.real(vals[:, m, m] - vals[:, n, n])
    return diag - x, defined


def shift_vector(field: BlochField, m: int, n: int, kindex: int,
                 connection: Optional[ConnectionField] = None) -> float:
    """Shift vector at a single grid point; raises UndefinedShift where the
    off-diagonal phase derivative is meaningless."""
    values, defined = shift_vector_field(field, m, n, connection=connection)
    if not defined[kindex]:
        raise UndefinedShift(
            f"shift vector undefined between bands {m},{n} at k index {kindex}")
    return float(values[kindex])


def _require_energies(field: BlochField) -> np.ndarray:
    if field.energies is None:
        raise MissingEnergies("band energies are required for rates and spectra")
    return field.energies


def hopping_rate(field: BlochField, occ: OccupationSpec, drive: DriveSpec,
                 m: int, n: int, kindex: int, omega: float,
                 connection: Optional[ConnectionField] = None) -> float:
    """Golden-rule rate for the n -> m transition at one k and drive frequency.

    gamma = f_{m,n} |r_{m,n}|^2 L_eta(omega_{m,n} - omega) E(omega)E(-omega),
    with |r_{m,n}|^2 = r_{m,n} r_{n,m} by Hermiticity and E real even.
    """
    if m == n:
        raise ValueError("hopping rate needs two distinct bands")
    energies = _require_energies(field)
    vals = _connection(field, connection)
    f = occ.difference(m, n, field.n_k)[kindex]
    w_mn = energies[kindex, m] - energies[kindex, n]
    amp = float(np.interp(omega, drive.frequencies, drive.amplitude))
    r2 = float(np.abs(vals[kindex, m, n]) ** 2)
    return float(f * r2 * lorentzian(w_mn - omega, drive.broadening) * amp * amp)


@dataclass(frozen=True)
class SpectrumResult:
    frequencies: np.ndarray
    currents: np.ndarray
    skipped_fraction: float


def shift_current_spectrum(field: BlochField, occ: OccupationSpec, drive: DriveSpec,
                           connection: Optional[ConnectionField] = None) -> SpectrumResult:
    """DC shift-current spectrum.

    J(omega) = sum_{m>n} sum_p f_{m,n} R_{m,n} |r_{m,n}|^2
               L_eta(omega_{m,n} - omega) E(omega)^2 dk,
    skipping undefined-shift points; the skipped fraction is reported.
    """
    energies = _require_energies(field)
    vals = _connection(field, connection)
    nb, nk = field.n_bands, field.n_k
    dk = field.grid.spacing
    w = drive.frequencies
    amp2 = drive.amplitude ** 2

    total = np.zeros_like(w)
    skipped = 0
    pairs = 0
    # each unordered band pair once, m the energetically higher member, so
    # the resonance omega_{m,n} is positive whatever the column order
    order = np.argsort(np.mean(energies, axis=0))
    for hi in range(nb):
        for lo in range(hi):
            m, n = int(order[hi]), int(order[lo])
            shift, defined = shift_vector_field(field, m, n, connection=connection)
            pairs += nk
            skipped += int(np.sum(~defined))
            if not np.any(defined):
                continue
            f = occ.difference(m, n, nk)[defined]
            r2 = np.abs(vals[defined, m, n]) ** 2
            w_mn = energies[defined, m] - energies[defined, n]
            weight = f * shift[defined] * r2 * dk
            total += (weight[:, None] * lorentzian(w_mn[:, None] - w[None, :],
                                                   drive.broadening)).sum(axis=0) * amp2
    frac = skipped / pairs if pairs else 0.0
    return SpectrumResult(frequencies=w, currents=total, skipped_fraction=float(frac))


def _track_branch(raw: np.ndarray) -> np.ndarray:
    """Continuous unwrapping of a sequence of principal-branch phases.

    Nearest-branch continuation; an increment at the pi boundary is
    ambiguous and aborts rather than guessing.
    """
    out = np.empty_like(raw)
    out[0] = raw[0]
    for j in range(1, len(raw)):
        inc = np.angle(np.exp(1j * (raw[j] - raw[j - 1])))
        if np.abs(inc) >= BRANCH_JUMP_LIMIT - 1e-9:
            raise BranchTrackingError(
                f"phase jump {inc:+.3f} between parameter slices {j - 1} and {j}")
        out[j] = out[j - 1] + inc
    return out


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
    wraparound overlap product, which realises the same loop integral but
    is immune to the per-k phase convention of eigen-decomposed families.
    P is branch-tracked continuously through the cycle and the mass-center
    part cancels between the endpoints: delta Q = -(P(1) - P(0)).
    """
    spec = family.grid.spec
    links = link_overlaps(family.coeffs[:, :, :, band], axis=0)
    # one contiguous product per lambda slice: a strided reduction over
    # axis 0 multiplies in another order and moves the last bits
    raw = -np.angle(np.prod(np.ascontiguousarray(links.T), axis=-1))
    closing = raw[0]
    tracked = _track_branch(np.append(raw, closing))
    pol = tracked / (2.0 * np.pi) + spec.rbar / spec.lattice_constant
    cumulative = -(pol - pol[0])
    delta_q = float(cumulative[-1])
    return PumpResult(lambdas=np.append(family.lambdas, 1.0), polarization=pol,
                      cumulative_charge=cumulative, delta_q=delta_q)


@dataclass(frozen=True)
class ChernResult:
    value: int
    residue: float


def chern_number(family: PumpFamily, band: int) -> ChernResult:
    """Plaquette-product invariant of one band on the (k, lambda) torus.

    Sums the principal-branch phase of the oriented overlap product around
    every plaquette and divides by 2 pi.  The rounding residue must stay
    below 0.05; larger means the grid does not resolve the band geometry.
    """
    cols = family.coeffs[:, :, :, band]
    uk = link_overlaps(cols, axis=0)
    ul = link_overlaps(cols, axis=1)
    plaq = uk * np.roll(ul, -1, axis=0) * np.roll(uk, -1, axis=1).conj() * ul.conj()
    flux = np.angle(plaq)
    raw = float(np.sum(flux) / (2.0 * np.pi))
    value = int(np.rint(raw))
    residue = abs(raw - value)
    if residue >= CHERN_RESIDUE_LIMIT:
        raise UnderResolvedGrid(
            f"plaquette sum {raw:.4f} is {residue:.3f} from an integer; refine the grid")
    return ChernResult(value=value, residue=residue)
