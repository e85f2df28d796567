import numpy as np
import pytest

from crmatrix import LatticeSpec, build_kgrid, two_band_field


@pytest.fixture
def two_band_spec():
    return LatticeSpec(n_cells=64, lattice_constant=1.0, n_bands=2)


def smooth_angles(seed=0, winding=1, theta0=1.1, theta_amp=0.4, phi_amp=0.3, a=1.0):
    """Seeded smooth periodic angle functions of k with analytic derivatives:
    the tuple (theta, phi, dtheta, dphi)."""
    rng = np.random.default_rng(seed)
    pt, pp = rng.uniform(0, 2 * np.pi, 2)
    return (lambda k: theta0 + theta_amp * np.cos(k * a + pt),
            lambda k: winding * k * a + phi_amp * np.sin(k * a + pp),
            lambda k: -theta_amp * a * np.sin(k * a + pt),
            lambda k: winding * a + phi_amp * a * np.cos(k * a + pp))


def on_grid(angles, grid):
    """The angle functions evaluated at the grid momenta."""
    return tuple(angle(grid.points) for angle in angles)


def smooth_field(n_cells=64, seed=0, winding=1, a=1.0, **kw):
    grid = build_kgrid(LatticeSpec(n_cells=n_cells, lattice_constant=a, n_bands=2))
    return two_band_field(grid, *on_grid(smooth_angles(seed=seed, winding=winding, a=a, **kw),
                                         grid))


def three_band_hamiltonian(k):
    """A gapped 3-band Hamiltonian with complex hoppings."""
    return np.array([[-2.0 + 0.2 * np.cos(k), 0.3 * np.exp(1j * k), 0.2 * np.exp(-1j * k)],
                     [0.3 * np.exp(-1j * k), 0.1 * np.sin(k), 0.25 * np.exp(2j * k)],
                     [0.2 * np.exp(1j * k), 0.25 * np.exp(-2j * k), 2.0 + 0.2 * np.cos(k)]])
