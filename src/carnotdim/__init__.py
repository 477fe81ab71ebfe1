"""Dimension computations for conformal graph directed Markov systems on
step-2 Carnot groups: gauge geometry, Heisenberg inversions, thermodynamic
pressure brackets, Bowen dimension, theta numbers, Gibbs measures, and
Euclidean dimension-comparison bounds."""

from .errors import (BudgetError, CarnotDimError, NonConvergenceError,
                     PoleError, UnsupportedError, ValidationError)
from .groups import (GPoint, GroupSpec, INFINITY, LatticePoint, cross_ratio,
                     dilate, gauge_dist, gauge_norm, gpoint, group_inv,
                     group_mul, heisenberg, is_infinity, lattice_A1,
                     lattice_A2, lattice_round, lattice_shell,
                     lattice_shell_array, origin, quaternionic_heisenberg,
                     step2)
from .conformal import (ConformalChain, Dilate, Invert, Rotate, Translate,
                        chain_from_json, chain_to_json, compose, compose_all,
                        identity_chain, invert_chain)
from .gdms import EdgeMap, EdgeTable, GdmsSpec, PointCloud, VertexSet
from .thermo import (CylinderMeasure, DimBracket, InvariantMeasureSpec,
                     PressureBracket, ShellFamily, ThetaEstimate, WeightTable,
                     bowen_dim, compute_weight_table, ensure_weights,
                     gibbs_check, measure_dimension, pressure_bracket,
                     similarity_dimension, subsystem_with_dimension,
                     theta_estimate, transfer_eigenmeasure)
from .dimension import (beta_minus, beta_minus_inv, beta_plus, beta_plus_inv,
                        euclidean_dim_bounds, gauge_dim_bounds,
                        homogeneous_dim, topological_dim)
from .systems import (CantorSystemParams, CfSystemParams, build_cantor_system,
                      build_cf_system, build_self_similar, cantor_shell_family,
                      cf_shell_family, power_law_weights,
                      similarity_shell_family)

__version__ = "0.1.0"
