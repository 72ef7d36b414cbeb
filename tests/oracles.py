"""Reference computations the package does not make itself, kept here
to check what it does make.

`dop853_steps` is a bare DOP853 loop at `dynamics.TOLERANCE`, with no
guard screening: `integrate` takes exactly its steps.
`flow_with_jacobian` runs that loop on the flow and its matrix
variational equation together, the direct integration that
`equilibria.monodromy` is checked against.  `coupling_grad` and
`coupling_hess` put the derivatives of a RescaledSystem's coupling term
F in real form, from the package's own assembly of F.
"""

import numpy as np
from scipy.integrate import DOP853

from vortexlab import dynamics
from vortexlab.linalg import as_state, real_blocks


def dop853_steps(fun, y0, t_end):
    """(times, states) of every accepted step of DOP853 on y' = fun(t,
    y) from y0 at t = 0 to t_end, at rtol = atol = dynamics.TOLERANCE."""
    stepper = DOP853(fun, 0.0, y0, t_end, rtol=dynamics.TOLERANCE,
                     atol=dynamics.TOLERANCE)
    ts, ys = [0.0], [y0]
    while stepper.status == "running":
        message = stepper.step()
        ts.append(stepper.t)
        ys.append(stepper.y)
    assert stepper.status == "finished", message
    return np.array(ts), np.array(ys)


def flow_with_jacobian(system, z0, t_end):
    """Flow map phi_t(z0) and its state derivative Dphi_t(z0) at t_end.

    Co-integrates the co-rotating state v (system.to_frame; v = z at
    t = 0) and the matrix variational equation W' = DV(t, v) W, W(0) = I,
    through one step sequence, each right-hand side from one
    system.field_and_jacobian call; both are turned back to the
    system's states at t_end.
    """
    y0 = as_state(z0)
    d = y0.size

    def rhs(t, aug):
        f, J = system.field_and_jacobian(aug[:d], t)
        return np.concatenate([f, (J @ aug[d:].reshape(d, d)).reshape(-1)])

    _, augs = dop853_steps(rhs, np.concatenate([y0, np.eye(d).reshape(-1)]),
                           float(t_end))
    # the turn is linear, so it turns each column of W as it turns v
    zT = system.to_lab(t_end, augs[-1, :d])
    WT = system.to_lab(t_end, augs[-1, d:].reshape(d, d).T).T
    return zT, WT


def coupling_grad(rs, w):
    """Real gradient of rs's coupling term F at the states w (..., 2N)."""
    return rs._coupling_parts(w, 1)[1].conj().view(float)


def coupling_hess(rs, w):
    """Real Hessian of rs's coupling term F at the states w (..., 2N)."""
    return real_blocks(*rs._coupling_parts(w, 2)[2])
