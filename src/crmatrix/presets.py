"""Named model builders shared by the CLI, demos, and tests."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import (BlochField, LatticeSpec, PumpFamily, _eigen_decompose, build_kgrid,
                    graphene_phases, pump_lambdas, two_band_field)

#: K point of the honeycomb model in the (kx, ky) convention used here,
#: for bond length 1: the phasor sum vanishes there.
DIRAC_POINT = (0.0, 4.0 * np.pi / (3.0 * np.sqrt(3.0)))


def identity_field(spec: LatticeSpec) -> BlochField:
    grid = build_kgrid(spec)
    coeffs = np.broadcast_to(np.eye(spec.n_bands, dtype=complex),
                             (grid.n, spec.n_bands, spec.n_bands)).copy()
    return BlochField(grid=grid, coeffs=coeffs)


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
    grid = build_kgrid(spec)
    k = grid.points
    eps = gap / 2.0 + bandwidth * np.cos(k * a)
    return two_band_field(grid, theta=theta0 + theta_amp * np.cos(k * a + theta_phase),
                          phi=winding * k * a + phi_amp * np.sin(k * a + phi_phase),
                          dtheta=-theta_amp * a * np.sin(k * a + theta_phase),
                          dphi=winding * a + phi_amp * a * np.cos(k * a + phi_phase),
                          energies=np.column_stack([eps, -eps]))


def graphene_loop(spec: LatticeSpec, bond: float = 1.0, radius: float = 0.8,
                  hopping: float = 1.0, mass: float = 0.0) -> BlochField:
    """Honeycomb two-band ribbon along a circle around the band-touching point.

    The 1D grid parametrises the loop angle; phi(k) comes from the
    three-phasor hopping sum and winds by +/- 2 pi.  mass = 0 is the pure
    sublattice-symmetric model with theta identically pi/2; a nonzero
    sublattice mass opens a gap, makes theta k-dependent, and is what
    gives the loop a nonvanishing shift current.  Column 0 is the upper
    band; energies are attached.  The errors are those of
    :func:`~crmatrix.model.graphene_phases` on the loop (a band-touching
    point, e.g. radius 0, or zero hopping and mass, is degenerate) and of
    :func:`~crmatrix.model.two_band_field`.
    """
    if not bond > 0:
        raise ValueError("bond length must be > 0")
    grid = build_kgrid(spec)
    t_angle = 2.0 * np.pi * np.arange(grid.n) / grid.n
    theta, phi, energy = graphene_phases(DIRAC_POINT[0] / bond + radius * np.cos(t_angle),
                                         DIRAC_POINT[1] / bond + radius * np.sin(t_angle),
                                         bond, hopping, mass)
    return two_band_field(grid, theta, phi, energies=np.column_stack([energy, -energy]))


def qwz_hamiltonian(mu: float):
    """Two-band pump Hamiltonian h(k, lam) = sin k tau_x + sin(2 pi lam) tau_y
    + (mu + cos k + cos(2 pi lam)) tau_z.  ``k`` and ``lam`` may be arrays
    that broadcast together; h returns one 2 x 2 matrix per point, with
    shape ``broadcast shape + (2, 2)``.  The entries are written directly,
    with the bits (signed zeros included) of the complex Pauli sum."""

    def h(k, lam):
        turn = 2.0 * np.pi * np.asarray(lam)
        s, y, z = np.sin(k), np.sin(turn), mu + np.cos(k) + np.cos(turn)
        out = np.zeros(np.broadcast(s, z).shape + (2, 2), dtype=complex)
        re, im = out.real, out.imag
        # a real x times a zero Pauli entry is the signed zero x * 0.0, and
        # a sum of zeros is -0 only if every term is
        zeros_sy, zeros_yz = s * 0.0 + y * 0.0, y * 0.0 + z * 0.0
        re[..., 0, 0], re[..., 1, 1] = zeros_sy + z, zeros_sy - z
        re[..., 0, 1], re[..., 1, 0] = s + 0.0, s + zeros_yz
        im[..., 0, 1], im[..., 1, 0] = 0.0 - y, y + 0.0
        return out

    return h


def qwz_pump(spec: LatticeSpec, n_lambda: Optional[int] = None, mu: float = -1.0) -> PumpFamily:
    """Eigen-decomposed pump family of the qwz Hamiltonian, on ``n_lambda``
    (default N) lambda points; band 0 is the occupied (lower) band.
    |mu| < 2 pumps one unit of charge per cycle, |mu| > 2 pumps none.  The
    Hamiltonian is evaluated block by block of k rows inside the eigen path,
    so its whole (N, n_lambda, 2, 2) stack is never held, and each block
    takes the trigonometric functions once per k and once per lambda."""
    if spec.n_bands != 2:
        raise ValueError("the qwz pump is two-band")
    grid = build_kgrid(spec)
    lambdas = pump_lambdas(spec.n_cells if n_lambda is None else n_lambda)
    h = qwz_hamiltonian(mu)

    def block(rows: slice) -> np.ndarray:
        return h(grid.points[rows, None], lambdas[None, :])

    coeffs, energies = _eigen_decompose(block, (grid.n, len(lambdas), 2, 2))
    return PumpFamily(grid=grid, lambdas=lambdas, coeffs=coeffs, energies=energies)


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
