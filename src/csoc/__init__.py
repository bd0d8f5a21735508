"""Complex stochastic optimal control toolkit.

Correlated real/imaginary diffusions, dynamic-programming residuals of
candidate value fields, the relativistic electromagnetic Lagrangian with its
stationary control, and the gamma-matrix linearization, all verifiable at
desk scale from the command line (`csoc run <scenario>`).
"""

from .errors import (AnalyticityError, CsocError, DomainError,
                     NonConvergenceError)
from .spacetime import (MOSTLY_MINUS, MOSTLY_PLUS, Metric, boost_matrix,
                        contract, weak_equation_residual)
from .wiener import (RNG_ALGORITHM, DiffusionSpec, MomentLine, MomentReport,
                     complex_sigma_squared, moment_check)
from .sde import (ActionEstimate, BellmanResidual, TrajectoryEnsemble,
                  bellman_consistency, constant_policy, estimate_action,
                  integrate, integrate_with_increments, linear_policy,
                  pointwise_policy)
from .ccalc import (DerivativeReport, DomainBox, ScalarField, ScanReport,
                    analyticity_scan, complex_derivative,
                    second_complex_derivative, tau_derivative)
from .lagrangian import (EMFieldConfig, Lagrangian, em_lagrangian,
                         free_particle_lagrangian, quadratic_lagrangian,
                         vector_potential_preset, zero_lagrangian)
from .control import (AuditReport, StationarityResult, equivalence_audit,
                      solve_optimal_control)
from .hjb import (HJBProblem, ResidualProbe, boundary_residual,
                  covariance_check, dalembertian, hjb_residual_pair,
                  hjb_residual_probe, optimal_control_at, probe_points)
from .dirac import (COMPONENT_SIGNS, GammaSet, HopfColeReport, PlaneWave,
                    RouteReport, build_gammas, hopf_cole_check,
                    hopf_cole_order, linearization_check, linearized_residual,
                    plane_wave, route_consistency)

__version__ = "0.1.0"

__all__ = [
    "AnalyticityError", "CsocError", "DomainError", "NonConvergenceError",
    "MOSTLY_MINUS", "MOSTLY_PLUS", "Metric", "boost_matrix", "contract",
    "weak_equation_residual",
    "RNG_ALGORITHM", "DiffusionSpec", "MomentLine", "MomentReport",
    "complex_sigma_squared", "moment_check",
    "ActionEstimate", "BellmanResidual", "TrajectoryEnsemble",
    "bellman_consistency", "constant_policy", "estimate_action", "integrate",
    "integrate_with_increments", "linear_policy", "pointwise_policy",
    "DerivativeReport", "DomainBox", "ScalarField", "ScanReport",
    "analyticity_scan", "complex_derivative", "second_complex_derivative",
    "tau_derivative",
    "EMFieldConfig", "Lagrangian", "em_lagrangian", "free_particle_lagrangian",
    "quadratic_lagrangian", "vector_potential_preset", "zero_lagrangian",
    "AuditReport", "StationarityResult", "equivalence_audit",
    "solve_optimal_control",
    "HJBProblem", "ResidualProbe", "boundary_residual", "covariance_check",
    "dalembertian", "hjb_residual_pair", "hjb_residual_probe",
    "optimal_control_at", "probe_points",
    "COMPONENT_SIGNS", "GammaSet", "HopfColeReport", "PlaneWave",
    "RouteReport", "build_gammas", "hopf_cole_check", "hopf_cole_order",
    "linearization_check", "linearized_residual", "plane_wave",
    "route_consistency",
    "__version__",
]
