#!/usr/bin/env python3
"""Why the infinite-volume position matrix cannot be used directly.

Three numerical exhibits: the truncated diagonal expectation grows
linearly with the truncation window; a one-cell translation always moves
it by exactly -a (the formal invariance argument hides a divergence); and
a perfectly orthonormal Bloch-like basis with a vacuum gap cannot
represent weight placed in the gap, however many bands are kept.
"""

import numpy as np

from crmatrix import (SampledCellFunction, gapped_basis_gram, gapped_cell_basis,
                      projection_residual, translation_audit,
                      truncated_position_expectation)
from crmatrix.divergence import FROM_ORIGIN

a = 1.0
cell = SampledCellFunction.from_callable(
    lambda r: np.sin(2 * np.pi * r / a) ** 2 + 0.2, a, 2048).normalized()

windows = [8, 16, 32, 64, 128, 256]
study = truncated_position_expectation(cell, windows, FROM_ORIGIN)
print("truncated <r> vs window size W:")
for w, v in zip(study.windows, study.values):
    print(f"  W = {w:4d}   <r>_W = {v:10.4f}")
print(f"linear fit: slope {study.slope:.4f}, R^2 = {study.r_squared:.6f} "
      "- unbounded growth, no W-independent value exists")

audit = translation_audit(cell, 64)
print(f"\none-cell translation at W = 64: before {audit.before:.4f}, "
      f"after {audit.after:.4f}, shift {audit.measured_shift:+.4f} "
      f"(predicted {audit.predicted_shift:+.1f})")
print("the formal argument that the shift should vanish divides one")
print("divergent integral by another; honest truncation always finds -a")

print("\nvacuum-gap basis:")
gram, worst = gapped_basis_gram(2, 4, a, 2048)
print(f"  chain Gram matrix = N * identity to {worst:.1e} "
      "(a perfectly valid orthonormal Bloch set)")
basis = gapped_cell_basis(3, a, 2048)
in_span = SampledCellFunction(values=basis[1].astype(complex), lattice_constant=a)
gap_target = SampledCellFunction.from_callable(
    lambda r: np.where(r > a / 2, 1.0, 0.0), a, 2048).normalized()
print(f"  residual of an in-span target:      {projection_residual(in_span, 3):.2e}")
for n_max in (4, 16, 64):
    resid = projection_residual(gap_target, n_max)
    print(f"  residual of a gap-supported target: {resid:.12f}  (n_max = {n_max})")
print("no band cutoff ever touches the gap: the space is incomplete for position")
