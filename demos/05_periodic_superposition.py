"""
Periodic orbits from superposed rotating clusters
=================================================

Pin a stationary skeleton of cluster centers, replace each center by a
small rigidly rotating cluster, and shoot for a genuinely periodic
orbit of the full interacting system.  The smaller the cluster scale r,
the closer the orbit hugs the manifold of superposed rigid motions.

Runtime: about 1 second (the phase scan shoots once from each of the
two critical points of the reduced functional).
"""

import numpy as np

from vortexlab import (SuperpositionSpec, UnitDisc, cluster_winding_numbers,
                       continue_in_r, distance_to_M, evaluate_point,
                       make_pair, scan_phases, shoot)
from vortexlab.stationary import DIPOLE_OFFSET

disc = UnitDisc()
mu = DIPOLE_OFFSET

# skeleton: the stationary (-2, 2) pair of the disc at x = +-mu
anchors = evaluate_point((-2.0, 2.0), disc, [[mu, 0.0], [-mu, 0.0]])
print(f"skeleton gradient norm: {anchors.gradient_norm:.2e}")

# clusters: two same-sign pairs whose strengths sum to the skeleton's
spec = SuperpositionSpec(
    stationary=anchors,
    clusters=(make_pair(-1.0, -1.0), make_pair(1.0, 1.0)),
    domain=disc,
    phases=(0.0, 0.0),
    scale=0.1,
)
print(f"vortices: {spec.n}, clusters: {spec.m}, "
      f"rescaled period tau = {spec.tau / np.pi:g} pi, "
      f"physical period T = tau r^2 = {spec.period:.6f}")

orbit = shoot(spec)
print(f"\nshoot at r = {spec.scale}:")
print(f"  residual        {orbit.residual:.2e}")
print(f"  closure         {orbit.closure:.2e}")
print(f"  energy drift    {orbit.energy_drift:.2e}")
print(f"  distance to M   {orbit.distance_to_m:.6f}")
print(f"  iterations      {orbit.iterations}")
print(f"  windings        {cluster_winding_numbers(orbit)}")

# shrink r: the orbit crowds toward the superposed rigid motions
print("\ncontinuation in r:")
for o in continue_in_r(spec.replace(scale=0.2), [0.2, 0.1, 0.05]):
    print(f"  r = {o.scale:<5g} distance to M = {o.distance_to_m:.6f}")

# a loop assembled from the rigid motions themselves sits on M exactly
ts = np.linspace(0.0, spec.tau, 256, endpoint=False)
print(f"\nsanity: distance of the model loop itself: "
      f"{distance_to_M(spec, spec.torus_samples(ts)):.2e}")

# different relative cluster phases can converge to genuinely distinct
# orbits, so one skeleton yields several orbit classes at the same r.
# The scan shoots from each critical point of the reduced functional,
# the period mean of the coupling energy on M as a function of the
# relative phase.  Swapping an equal pair's members is a half turn of
# its rotation, so that phase ranges over [0, pi) and orbits are
# counted modulo the swap
result = scan_phases(spec)
print(f"\nphase scan: {result.distinct_count} distinct classes "
      f"from {result.attempted} shoots, {len(result.failures)} failures")
for o in result.orbits:
    print(f"  class with phases {np.round(o.spec.phases, 3)}: "
          f"distance to M {o.distance_to_m:.6f}")
