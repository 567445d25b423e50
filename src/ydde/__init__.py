"""Pathwise solving and verification of delay equations with Young integrals.

Solves ``dx(t) = f(x_t) dt + g(x_t) domega(t)`` for Holder drivers with
exponent above 1/2, together with the constructive estimates the solution
theory provides: Young-Loeve quadrature certificates, greedy stopping-time
windows with per-window Picard contraction, growth and Gronwall-type
bounds, and sensitivity of the solution to its initial segment.
"""

from .coefficients import (CoefficientSet, accepts_stacks,
                           bounded_segment_sampler, coefficients_from_json,
                           composition_holder, composition_holder_diff,
                           composition_path, make_builtin, verify_regularity)
from .drivers import (DriverSpec, empirical_holder_exponent,
                      gen_deterministic, gen_driver, gen_fbm)
from .errors import (ConvergenceError, DomainError, GenerationError,
                     PartitionError)
from .paths import (GridPath, Segment, counterexample_growth, holder_norm,
                    holder_seminorm, pvar_seminorm, segment, segment_norm,
                    segment_norm_profile, segment_path_holder, sup_norm,
                    write_csv)
from .sensitivity import (ContinuityReport, DifferentiabilityReport,
                          continuity_check, differentiability_check,
                          linearized_solve)
from .solver import (BallReport, ContractionConstants, GreedyPartition,
                     GronwallReport, GrowthReport, ProbeReport, SolveReport,
                     SolverConfig, WindowRecord, ball_check,
                     compute_contraction_constants, euler_solve,
                     greedy_partition, gronwall_check, growth_bound_check,
                     picard_solve, stopping_count_bound, uniqueness_probe,
                     window_residual)
from .young import (GapReport, YoungConstants, certificate_sweep,
                    young_constant, young_integral, young_loeve_gap)

__version__ = "0.1.0"
