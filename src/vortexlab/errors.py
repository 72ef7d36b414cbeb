"""Exception hierarchy for vortexlab.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto process exit codes.
"""

from __future__ import annotations


class VortexError(Exception):
    """Base class for all vortexlab errors."""


class DomainViolationError(VortexError):
    """A position is outside the domain (or inside the boundary margin)."""

    def __init__(self, msg, index=None, time=None):
        super().__init__(msg)
        self.index = index
        self.time = time


class BoundaryEventError(DomainViolationError):
    """Integration guard: a vortex reached the boundary margin at a known time."""


class CollisionError(VortexError):
    """Two vortices are closer than the collision tolerance."""

    def __init__(self, msg, pair=None, distance=None, time=None):
        super().__init__(msg)
        self.pair = pair
        self.distance = distance
        self.time = time


class CollisionEventError(CollisionError):
    """Integration guard: two vortices came within the collision
    tolerance at a known time."""


class CoincidentPointError(VortexError):
    """The two-point Green's function was evaluated at x == y."""


class ZeroTotalStrengthError(VortexError):
    """A cluster with zero total strength cannot rotate about a center."""


class NotEquilibriumError(VortexError):
    """Certification was asked for a configuration that fails the
    rigid-rotation residual check."""


class ConvergenceError(VortexError):
    """An iterative solve (Newton, shooting) did not converge."""

    def __init__(self, msg, iterations=None, last_iterate=None, residual=None):
        super().__init__(msg)
        self.iterations = iterations
        self.last_iterate = last_iterate
        self.residual = residual


class ScaleTooLargeError(VortexError):
    """The superposition scale r puts the assembled state outside the
    admissible set; carries a usable upper estimate."""

    def __init__(self, msg, max_admissible=None):
        super().__init__(msg)
        self.max_admissible = max_admissible


class ConstraintViolationError(VortexError):
    """A structural precondition failed (strength sums, cluster layout,
    certification requirements)."""
