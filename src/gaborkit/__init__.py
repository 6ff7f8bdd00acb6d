"""Numerical toolkit for Gabor systems over unions of shifted lattices.

Provides normalized Hermite windows and the restricted theta-3 function,
time-frequency operators with their plane isomorphisms, lattice point-set
algebra, the Zak transform with certified truncation, and frame-bound
estimation with zero certification.
"""

from .errors import (GaborError, IrreducibleSet, NotASublattice, NotUnimodular,
                     ShiftExceedsGrid, SingularAngle, SingularMatrix,
                     TruncationTooCoarse, UnboundedWindow)
from .frames import (FrameReport, GaborSystem, Zero, equivalence_transport,
                     find_zak_zeros, finite_frame_spectrum, frame_bounds,
                     reduce_to_multiwindow, report_to_json,
                     theta_zero_certificate)
from .lattices import (PRESETS, PointSet, coset_split, dilation_matrix,
                       enumerate_points, iwasawa_factor, point_set, recompose,
                       rotation, sets_equal, shear, transform, translate)
from .operators import (Chirp, Dilation, Fourier, FrFT, SampledFunction,
                        TFShift, apply_chain, apply_chirp, apply_dilation,
                        apply_frft, apply_tf_shift, grid_points,
                        matched_phase_residual, project_isomorphism, sample,
                        support_radius)
from .special import ThetaValue, hermite, hermite_stack, theta3
from .windows import (NormalForm, Window, descriptor, envelope, evaluate,
                      normal_form, parse_descriptor, parity, realize, shifted,
                      window)
from .zak import (ZakSurface, auto_truncation, verify_identities,
                  write_surface_csv, zak_point, zak_scaled, zak_surface,
                  zak_tail_bound)

__version__ = "0.1.0"
