"""Convergent position-operator matrices on finite 1D crystals.

Builds Bloch coefficient ribbons on discrete k-grids, factorises the
Bloch basis into band and site factors, assembles the finite position
matrix with its Berry-connection diagonal blocks, probes gauge/ribbon
transformation behaviour, and evaluates transport observables (Berry
phase, shift current, adiabatic pumping) together with numerical
demonstrations of why the naive infinite-volume position matrix cannot
work.
"""

from .errors import (BranchTrackingError, ConfigError, CrmatrixError,
                     DegenerateRibbon, MissingEnergies, NonHermitianInput,
                     NumericalGuardError, UnderResolvedGrid, UndefinedShift,
                     ZeroOverlap)
from .model import (BlochField, KGrid, LatticeSpec, PumpFamily, TwoBandAngles,
                    build_kgrid, eigenfield_from_hamiltonian, fix_phase_gauge,
                    graphene_phases, honeycomb_phasor_sum,
                    pump_family_from_angles, pump_family_from_hamiltonian,
                    two_band_field)
from .projection import (band_factor, embedded_gram, kron_embed,
                         pair_inner_product, site_factor, site_factor_frame,
                         wannier_coefficient, wannier_inverse)
from .rmatrix import (ConnectionField, PositionMatrix, band_overlap,
                      berry_connection, central_difference,
                      crystal_momentum_matrix, link_overlaps, position_matrix,
                      position_momentum_commutator, position_phase_sum,
                      reduced_position_matrix)
from .gauge import (CurvatureCheck, GaugeField, InvarianceReport,
                    apply_gauge_to_field, berry_phase,
                    curvature_substitution_check, diagonal_loop,
                    diagonal_value, gauge_transform, random_gauge_field,
                    similarity_transform, trace_loop)
from .divergence import (SampledCellFunction, TranslationAudit,
                         TruncationStudy, gapped_basis_gram, gapped_cell_basis,
                         projection_residual, translation_audit,
                         truncated_position_expectation)
from .transport import (ChernResult, DriveSpec, OccupationSpec, PumpResult,
                        SpectrumResult, chern_number, hopping_rate,
                        lorentzian, pumped_charge, shift_current_spectrum,
                        shift_vector, shift_vector_field)

__version__ = "0.1.0"
