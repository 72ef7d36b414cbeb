"""Rigidly rotating vortex clusters and their certification.

Each catalog entry is a planar configuration that rotates without
changing shape.  `certify` counts the periodic solutions of the
linearization along one turn; nondegenerate entries are the building
blocks the superposition machinery accepts.
"""

import numpy as np
from scipy.integrate import solve_ivp

from vortexlab import (certify, make_collinear_hermite, make_equilateral,
                       make_pair, make_thomson, monodromy)

entries = [
    ("pair(1, 1)", make_pair(1.0, 1.0)),
    ("pair(0.25, 1.75)", make_pair(0.25, 1.75)),
    ("equilateral(2, 1, 1)", make_equilateral(2.0, 1.0, 1.0)),
    ("equilateral(1, 1, -0.5)", make_equilateral(1.0, 1.0, -0.5)),
    ("thomson(5)", make_thomson(5, 1.0)),
    ("hermite(3)", make_collinear_hermite(3, 1.0)),
]

print(f"{'entry':26s} {'omega':>8s} {'order':>5s} {'geo':>4s} {'alg':>4s}  verdict")
for name, eq in entries:
    report = certify(eq)
    verdict = "nondegenerate" if report.nondegenerate else "degenerate"
    if report.sigma_nondegenerate and not report.nondegenerate:
        verdict += " (symmetry-reduced ok)"
    print(f"{name:26s} {eq.angular_velocity:8.3f} {report.order:5d} "
          f"{report.periodic_solution_count:4d} "
          f"{report.unit_multiplier_count:4d}  {verdict}")

# thomson rings rotate at -1/n, so one geometric period is n turns;
# the cyclic relabeling sigma closes the orbit after a single turn
ring = make_thomson(4, 1.0)
print("\nthomson(4): omega =", ring.angular_velocity,
      " sigma =", ring.permutation, " period =", ring.period)

# collinear configurations are strongly hyperbolic: their fundamental
# matrices grow large, and certify caps its kernel cutoff at 1e-2
eq = make_collinear_hermite(4, 1.0)
norm = np.linalg.norm(monodromy(eq, 2.0 * np.pi), 2)
report = certify(eq)
print(f"\nhermite(4): |Phi| = {norm:.1e}, counts "
      f"geo={report.periodic_solution_count} "
      f"alg={report.unit_multiplier_count} "
      f"nondegenerate={report.nondegenerate}")

# cross-check one fundamental matrix against direct integration of the
# variational system W' = DV W, W(0) = I, along the actual orbit, with
# plain scipy: the state and W side by side, the field and its Jacobian
# from one call
eq = make_pair(1.0, 1.0)
system, d = eq.system, 2 * eq.n


def variational(t, y):
    f, J = system.field_and_jacobian(y[:d])
    return np.concatenate([f, (J @ y[d:].reshape(d, d)).reshape(-1)])


sol = solve_ivp(variational, (0.0, 2.0 * np.pi),
                np.concatenate([eq.flat(), np.eye(d).reshape(-1)]),
                method="DOP853", rtol=1e-13, atol=1e-13)
W = sol.y[d:, -1].reshape(d, d)
gap = np.max(np.abs(W - monodromy(eq, 2.0 * np.pi)))
print(f"\npair monodromy vs integrated fundamental matrix: {gap:.2e}")
