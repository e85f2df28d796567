"""Named model builders shared by the CLI, demos, and tests."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegenerateRibbon
from .model import (BlochField, LatticeSpec, PumpFamily, TwoBandAngles,
                    build_kgrid, honeycomb_phasor_sum, pump_family_from_stack,
                    pump_lambdas, two_band_columns, two_band_field)

#: K point of the honeycomb model in the (kx, ky) convention used here,
#: for bond length 1: the phasor sum vanishes there.
DIRAC_POINT = (0.0, 4.0 * np.pi / (3.0 * np.sqrt(3.0)))


def identity_field(spec: LatticeSpec) -> BlochField:
    grid = build_kgrid(spec)
    coeffs = np.broadcast_to(np.eye(spec.n_bands, dtype=complex),
                             (grid.n, spec.n_bands, spec.n_bands)).copy()
    return BlochField(grid=grid, coeffs=coeffs, name="identity")


def generic_two_band(spec: LatticeSpec, theta0: float = 1.1, theta_amp: float = 0.4,
                     winding: int = 1, phi_amp: float = 0.3, theta_phase: float = 0.3,
                     phi_phase: float = -0.5, gap: float = 2.0,
                     bandwidth: float = 0.5) -> BlochField:
    """Smooth periodic two-band angles with analytic derivatives.

    theta(k) = theta0 + theta_amp cos(k a + theta_phase),
    phi(k) = winding k a + phi_amp sin(k a + phi_phase).
    Band energies -/+ (gap/2 + bandwidth cos(k a)) are attached so the
    field supports rates and spectra; column 0 is the upper band.
    """
    a = spec.lattice_constant
    angles = TwoBandAngles(
        theta=lambda k: theta0 + theta_amp * np.cos(k * a + theta_phase),
        phi=lambda k: winding * k * a + phi_amp * np.sin(k * a + phi_phase),
        dtheta=lambda k: -theta_amp * a * np.sin(k * a + theta_phase),
        dphi=lambda k: winding * a + phi_amp * a * np.cos(k * a + phi_phase),
    )
    grid = build_kgrid(spec)
    eps = gap / 2.0 + bandwidth * np.cos(grid.points * a)
    energies = np.column_stack([eps, -eps])
    return two_band_field(angles, grid, energies=energies, name="two-band-generic")


def graphene_loop(spec: LatticeSpec, bond: float = 1.0, radius: float = 0.8,
                  hopping: float = 1.0, mass: float = 0.0) -> BlochField:
    """Honeycomb two-band ribbon along a circle around the band-touching point.

    The 1D grid parametrises the loop angle; phi(k) comes from the
    three-phasor hopping sum and winds by +/- 2 pi.  mass = 0 is the pure
    sublattice-symmetric model with theta identically pi/2; a nonzero
    sublattice mass opens a gap, makes theta k-dependent, and is what
    gives the loop a nonvanishing shift current.  Column 0 is the upper
    band; energies are attached.  A loop through a band-touching point
    (e.g. radius 0), or zero hopping and zero mass, raises
    :class:`DegenerateRibbon`.
    """
    if not bond > 0:
        raise ValueError("bond length must be > 0")
    grid = build_kgrid(spec)
    n = grid.n
    t_angle = 2.0 * np.pi * np.arange(n) / n
    kx = DIRAC_POINT[0] / bond + radius * np.cos(t_angle)
    ky = DIRAC_POINT[1] / bond + radius * np.sin(t_angle)
    f = honeycomb_phasor_sum(kx, ky, bond)
    if np.any(np.abs(f) < 1e-12):
        raise DegenerateRibbon("loop passes through the band-touching point")
    energy = np.sqrt(mass ** 2 + (hopping * np.abs(f)) ** 2)
    if np.any(energy == 0):
        raise DegenerateRibbon(f"both bands have zero energy at k index "
                               f"{int(np.argmax(energy == 0))} (hopping and mass both 0)")
    theta = np.arccos(np.clip(mass / energy, -1.0, 1.0))
    coeffs = two_band_columns(theta, -np.angle(f))
    energies = np.column_stack([energy, -energy])
    return BlochField(grid=grid, coeffs=coeffs, energies=energies, name="graphene-ribbon")


def qwz_hamiltonian(mu: float):
    """Two-band pump Hamiltonian h(k, lam) = sin k tau_x + sin(2 pi lam) tau_y
    + (mu + cos k + cos(2 pi lam)) tau_z.  ``k`` and ``lam`` may be arrays
    that broadcast together; h returns one 2 x 2 matrix per point, with
    shape ``broadcast shape + (2, 2)``."""
    tau_x = np.array([[0, 1], [1, 0]], dtype=complex)
    tau_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    tau_z = np.array([[1, 0], [0, -1]], dtype=complex)

    def h(k, lam):
        k, lam = np.asarray(k)[..., None, None], np.asarray(lam)[..., None, None]
        return (np.sin(k) * tau_x + np.sin(2.0 * np.pi * lam) * tau_y
                + (mu + np.cos(k) + np.cos(2.0 * np.pi * lam)) * tau_z)

    return h


def qwz_pump(spec: LatticeSpec, n_lambda: int, mu: float = -1.0,
             gap_tol: float = 1e-6) -> PumpFamily:
    """Eigen-decomposed pump family of the qwz Hamiltonian; band 0 is the
    occupied (lower) band.  |mu| < 2 pumps one unit of charge per cycle,
    |mu| > 2 pumps none."""
    grid = build_kgrid(spec)
    kk, ll = np.meshgrid(grid.points, pump_lambdas(n_lambda), indexing="ij")
    return pump_family_from_stack(qwz_hamiltonian(mu)(kk, ll), grid, gap_tol=gap_tol,
                                  name="qwz-pump")


class Preset(NamedTuple):
    """A shipped model: ``builder(spec, **params)`` (None when only the
    divergence tasks construct it), its one-line description, the builder
    keywords a config may set as ``model.params``, and the band count the
    model has (None: any)."""

    builder: Optional[Callable]
    description: str
    params: tuple = ()
    n_bands: Optional[int] = None


PRESETS = {
    "identity": Preset(identity_field,
                       "constant identity coefficient field; every geometric quantity vanishes"),
    "two-band-generic": Preset(generic_two_band,
                               "smooth two-band angle field with analytic derivatives and closed-form overlaps",
                               ("theta0", "theta_amp", "winding", "phi_amp", "theta_phase",
                                "phi_phase", "gap", "bandwidth"), 2),
    "graphene-ribbon": Preset(graphene_loop,
                              "honeycomb two-band loop around the band-touching point; phase winds once",
                              ("bond", "radius", "hopping", "mass"), 2),
    "qwz-pump": Preset(qwz_pump,
                       "two-band (k, lambda) pump cycle with integer quantized charge transport",
                       ("mu",), 2),
    "vacuum-gap-chain": Preset(None,
                               "half-cell-supported orthonormal chain basis exhibiting truncation growth and the representation gap"),
}
