"""mukailab: exact-arithmetic Mukai lattices, cohomological Fourier-Mukai
transforms, twisted-stability walls and generating series.

All arithmetic is exact: NS classes are integer numerators over one
denominator, and rationals reach the API as fractions.Fraction.
"""

from .errors import (InvariantError, LatticeMismatchError, MukaiLabError,
                     ParseError, PreconditionError)
from .lattice import (GammaTriple, MukaiVector, NSClass, NSLattice,
                      SurfaceModel, VectorStats, abelian_model, chi_of, dual,
                      e8_minus_gram, elliptic_model, enriques_lattice,
                      enriques_model, gamma_of, generic_model,
                      hyperbolic_lattice, k3_model, mukai_pair, mukai_square,
                      rat, twist, vector_of_gamma, vector_stats)
from .transforms import (CohMap, EllipticRelativeParams, FMPreconditions,
                         IsotropicContext, IsotropicCoords, check_isometry,
                         compose, cor_ext_context, cor_ext_map,
                         elliptic_jacobian_fm, elliptic_jacobian_inverse,
                         elliptic_jacobian_map, elliptic_relative_fm,
                         elliptic_relative_map, enriques_reflection_map,
                         fm_preconditions, identity_map, isotropic_coords,
                         isotropic_fm_map, twist_map)
from .walls import (Chamber, Crossing, OnWall, TwistData, Wall,
                    WallSolveResult, chamber_locate, chamber_path,
                    effective_decompositions, slope_dim1, twisted_invariants,
                    unique_hyperplanes, wall_solve_tf, walls_dim1)
from .series import (LaurentPoly, QSeries, e_gl, eta_inv12, euler_hilb,
                     hecke_cosets, hilb_series, wallcross_epoly)
from .partition import (PartitionTerm, hecke_block_sum, hecke_coset_transform,
                        hecke_zr, lattice_box_vectors, merge_terms,
                        multiplicity_chi, partition_z1, q_form,
                        rank_side_terms)
from .reductions import (EnriquesReduction, FiltrationDims, GitData, GitDims,
                         MoveStep, MoveTrace, elliptic_gcd_reduce,
                         enriques_reduce, filtration_stack_dim, git_weight,
                         moduli_dim, parabolic_euler, pss_bound,
                         reduce_to_rank_one, trace_rank_sequence)
