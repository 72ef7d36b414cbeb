"""Integrating vortex motion, with guard rails.

The integrator is an adaptive embedded Runge-Kutta pair with dense
output.  Collisions and boundary approaches are detected from the dense
output and refined to event times; energy is conserved to integrator
accuracy without any projection.
"""

import numpy as np

from vortexlab import (BoundaryEventError, IntegratorSettings, RescaledSystem,
                       UnitDisc, VortexSystem, WholePlane, integrate)

disc = UnitDisc()

# a counter-rotating pair translates; in the disc the images bend the
# path into a loop hugging the wall
pair = VortexSystem((1.0, -1.0), (1, 1), disc)
z0 = np.array([0.5, 0.05, 0.5, -0.05])
traj = integrate(pair, z0, (0.0, 4.0))
energies = [pair.hamiltonian(s) for s in traj.states]
print("disc dipole, t in [0, 4]:")
print(f"  {len(traj.times) - 1} steps, min separation {traj.min_separation:.4f}")
print(f"  energy drift {max(energies) - min(energies):.2e}")
print(f"  state at t=2: {np.round(traj.sample(2.0), 4)}")

# the same run with a conservative wall margin trips the boundary guard
try:
    integrate(pair, z0, (0.0, 4.0), IntegratorSettings(boundary_margin=0.1))
except BoundaryEventError as exc:
    print(f"\nboundary guard: vortex {exc.index} within margin at "
          f"t = {exc.time:.3f}")

# time reversal brings the state back
back = integrate(pair, traj.final_state, (4.0, 0.0))
print(f"\nreversal error: {np.linalg.norm(back.final_state - z0):.2e}")

# rescaled cluster coordinates trace the same physics: evolving the
# rescaled state u for a time t / r^2 and mapping it back by
# z = r u + anchor agrees with the direct physical flow for a time t
plane_pair = VortexSystem((1.0, 1.0), (2,), WholePlane())
anchor = np.array([[0.3, -0.2]])
u0 = np.array([0.5, 0.0, -0.5, 0.0])
grid = np.linspace(0.0, 2.0, 257)
for r in (1.0, 0.5):
    rs = RescaledSystem(plane_pair, anchor, r)
    traj_u = integrate(rs, u0, (0.0, 2.0 / r**2))
    traj_z = integrate(plane_pair, rs.to_physical(u0), (0.0, 2.0))
    mapped = r * traj_u.sample(grid / r**2) + rs.anchor_hat
    dev = np.max(np.linalg.norm(traj_z.sample(grid) - mapped, axis=1))
    print(f"rescaling equivalence at r={r}: {dev:.2e}")
