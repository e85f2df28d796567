#!/usr/bin/env python3
"""Berry phase of a loop encircling the honeycomb band-touching point.

The hopping-sum phase winds by -2 pi around the touching point, so the
loop Berry phase is pi/2 of a winding: -pi mod 2 pi, independent of the
loop radius and already exact on modest grids.
"""

import numpy as np

from crmatrix import LatticeSpec, berry_phase, graphene_phases
from crmatrix.presets import DIRAC_POINT, graphene_loop

print("phase winding around the touching point (12-point loops):")
for radius in (0.05, 0.5):
    t = 2 * np.pi * np.arange(12) / 12
    _, phi, _ = graphene_phases(DIRAC_POINT[0] + radius * np.cos(t),
                                DIRAC_POINT[1] + radius * np.sin(t))
    inc = np.angle(np.exp(1j * np.diff(np.append(phi, phi[0]))))
    print(f"  radius {radius:4.2f}: winding {np.sum(inc) / (2 * np.pi):+.3f}")

print("\nloop Berry phase vs grid size:")
for n in (16, 64, 512):
    field = graphene_loop(LatticeSpec(n_cells=n, lattice_constant=1.0, n_bands=2))
    theta = berry_phase(field, 0)
    print(f"  N = {n:4d}: theta = {theta:+.12f}  (|theta| - pi = {abs(theta) - np.pi:+.1e})")

print("\na sublattice mass gaps the loop and pulls the phase off +/- pi:")
for mass in (0.0, 0.3, 1.0):
    field = graphene_loop(LatticeSpec(n_cells=256, lattice_constant=1.0, n_bands=2),
                          mass=mass)
    print(f"  mass {mass:3.1f}: theta = {berry_phase(field, 0):+.6f}")
