"""How the solution responds to its initial segment.

Two faces of the same estimate: continuity (two nearby initial segments
stay exponentially-in-N close) and differentiability (the linearized
equation along the base solution captures first-order perturbations, with
a superlinear remainder).
"""

import numpy as np

from ydde import (DriverSpec, Segment, SolverConfig, continuity_check,
                  differentiability_check, gen_driver, linearized_solve,
                  make_builtin, picard_solve)

mesh = 1 / 256
config = SolverConfig(beta=0.55, nu=0.7, mesh=mesh, T=1.0, r=0.25)
coeffs = make_builtin("sin_delay", A=-0.15, B=0.1, sigma=0.05)
omega = gen_driver(DriverSpec(kind="fbm", T=1.0, mesh=mesh, hurst=0.75,
                              seed=7, amplitude=0.05))
u = np.linspace(-0.25, 0.0, config.n_history + 1)
eta = Segment(0.25, mesh, (1.0 + 0.2 * u)[:, None])
xi = Segment(0.25, mesh, (0.5 * np.cos(2 * np.pi * u))[:, None])

# every check starts from the one base solve of eta
report = picard_solve(coeffs, eta, omega, config)

print("continuity in the initial segment:")
for size in (1e-1, 1e-2):
    eta2 = eta.with_values(eta.values + size)
    rep = continuity_check(report, eta2)
    print(f"  |eta2 - eta1| = {size:.0e}:  N(T) = {rep.N_T}, "
          f"pointwise margin {rep.pointwise_min_margin:.2f}, "
          f"full-interval margin {rep.full_margin:.2f} "
          f"(constant 1 + T/r = {rep.full_constant:.0f})")

# The linearized equation along the base solution: for linear coefficients
# it reproduces the exact solution difference; in general it is the
# derivative of the solution map in the direction xi.
y = linearized_solve(report, xi)
print(f"\nlinearized solution: y(0) = {y.value_at(0.0)[0]:+.4f}, "
      f"y(T) = {y.value_at(1.0)[0]:+.4f}")

print("\nfinite-difference remainder rho(eps) = "
      "sup_t |x_t(eta + eps xi) - x_t(eta) - eps y_t| / eps:")
rep = differentiability_check(report, xi)
for eps, rho in rep.table:
    print(f"  eps = {eps:.0e} : rho = {rho:.3e}")
print(f"ladder decreasing: {rep.decreasing}, "
      f"rho(min)/rho(max) = {rep.final_over_initial:.4f}")
