"""Critical points of the m-point renormalized energy on a domain.

The energy of m interacting centers a = (a^1, ..., a^m) with strengths
Gamma^k is the trivially clustered system energy

    E(a) = sum_{k != k'} Gamma^k Gamma^k' G(a^k, a^k')
         - sum_k (Gamma^k)^2 h(a^k),

with G the domain's two-point function and h its self-interaction term.
Critical points anchor the rescaled cluster dynamics; find_critical_point
locates them with linalg.newton, the Newton loop orbits share too.
What matters is not just criticality but the kernel of the Hessian,
which is forced by whatever continuous symmetry the domain has.
classify() names the four admissible kernel shapes:

    NondegenerateI     kernel dim 0 (generic domains)
    RotationalII       rotational domain, kernel = span{rotation mode}
    TranslationalIII   translational domain, kernel = span{direction}
    PlaneIV            whole plane, kernel = the two translations plus
                       the rotation mode, dim exactly 3
    Unclassified       anything else

The whole-plane case with the pure logarithmic kernel always carries a
fourth kernel direction (scaling) at critical points, so PlaneIV can
only occur for modified radial kernels; the check is exposed but the
shipped plane kernel never satisfies it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domains import Domain, SymmetryClass, UnitDisc
from .errors import ConstraintViolationError
from .linalg import as_state, newton, perp
from .systems import VortexSystem

GRADIENT_TOL = 1e-10
KERNEL_TOL = 1e-8
MAX_ITERATIONS = 100

#: half-separation of the strength (1, -1) stationary pair in the unit
#: disc; the positive root of mu^4 = 1 - 4 mu^2
DIPOLE_OFFSET = float(np.sqrt(np.sqrt(5.0) - 2.0))


class Classification(enum.Enum):
    NONDEGENERATE = "NondegenerateI"
    ROTATIONAL = "RotationalII"
    TRANSLATIONAL = "TranslationalIII"
    PLANE = "PlaneIV"
    UNCLASSIFIED = "Unclassified"


@dataclass
class StationaryPoint:
    strengths: tuple
    positions: np.ndarray  # (m, 2)
    gradient_norm: float
    hessian: np.ndarray  # (2m, 2m)
    kernel_dimension: int
    classification: Classification
    residuals: tuple = ()  # gradient norm of each Newton iterate, if any

    def flat(self) -> np.ndarray:
        return self.positions.reshape(-1)

    @property
    def m(self) -> int:
        return len(self.strengths)

    def as_dict(self) -> dict:
        return {
            "strengths": [float(g) for g in self.strengths],
            "positions": self.positions.tolist(),
            "gradient_norm": float(self.gradient_norm),
            "hessian": self.hessian.tolist(),
            "kernel_dimension": int(self.kernel_dimension),
            "classification": self.classification.value,
        }


def _anchor_system(strengths, domain: Domain) -> VortexSystem:
    return VortexSystem(tuple(float(g) for g in strengths),
                        (1,) * len(tuple(strengths)), domain)


def m_hamiltonian(strengths, domain: Domain, a) -> float:
    """Energy of the m centers; gradient/Hessian companions below."""
    return _anchor_system(strengths, domain).hamiltonian(as_state(a))


def m_gradient(strengths, domain: Domain, a) -> np.ndarray:
    return _anchor_system(strengths, domain).gradient(as_state(a))


def m_hessian(strengths, domain: Domain, a) -> np.ndarray:
    return _anchor_system(strengths, domain).hessian(as_state(a))


# ---------------------------------------------------------------------------
# symmetry bookkeeping
# ---------------------------------------------------------------------------

def kernel_generators(domain: Domain, positions) -> list:
    """Kernel directions the domain's symmetry forces at a critical
    point: what the Hessian kernel is compared against."""
    flat = as_state(positions)
    m = flat.size // 2
    sym = domain.symmetry
    if sym == SymmetryClass.ROTATIONAL:
        return [perp(flat)]
    if sym == SymmetryClass.TRANSLATIONAL:
        nu = np.asarray(domain.translation_direction, dtype=float)
        return [np.tile(nu / np.linalg.norm(nu), m)]
    if sym == SymmetryClass.PLANE_FULL:
        return [np.tile([1.0, 0.0], m), np.tile([0.0, 1.0], m), perp(flat)]
    return []


def _hessian_kernel(hessian: np.ndarray):
    """(dimension, orthonormal basis columns) of the numerical kernel."""
    U, s, Vt = np.linalg.svd(hessian)
    if s.size == 0 or s[0] == 0.0:
        n = hessian.shape[0]
        return n, np.eye(n)
    mask = s <= KERNEL_TOL * s[0]
    return int(mask.sum()), Vt[mask].T


def _spanned_by(basis: np.ndarray, generators: list) -> bool:
    """Whether the orthonormal columns of `basis` span the same space as
    the generators (dimensions already known to match)."""
    G = np.column_stack(generators)
    Q, R = np.linalg.qr(G)
    keep = np.abs(np.diag(R)) > 1e-12 * max(1.0, np.abs(np.diag(R)).max())
    Q = Q[:, keep]
    if Q.shape[1] != basis.shape[1]:
        return False
    resid = basis - Q @ (Q.T @ basis)
    return bool(np.linalg.norm(resid) <= 1e-8)


def classify(sp: StationaryPoint, domain: Domain) -> Classification:
    """Match the Hessian kernel against the domain's symmetry case."""
    if sp.gradient_norm > GRADIENT_TOL:
        raise ConstraintViolationError(
            f"classification needs a converged critical point "
            f"(gradient norm {sp.gradient_norm:.2e})")
    return _classify_kernel(domain, sp.flat(), *_hessian_kernel(sp.hessian))


#: the class of a kernel that the domain's symmetry generators span
_SYMMETRY_CLASSES = {
    SymmetryClass.ROTATIONAL: Classification.ROTATIONAL,
    SymmetryClass.TRANSLATIONAL: Classification.TRANSLATIONAL,
    SymmetryClass.PLANE_FULL: Classification.PLANE,
}


def _classify_kernel(domain, flat, dim, basis) -> Classification:
    if dim == 0:
        return Classification.NONDEGENERATE
    gens = kernel_generators(domain, flat)
    if dim == len(gens) and _spanned_by(basis, gens):
        return _SYMMETRY_CLASSES[domain.symmetry]
    return Classification.UNCLASSIFIED


def _finish_point(strengths, domain, flat, gradient_norm, hess,
                  residuals=()) -> StationaryPoint:
    dim, basis = _hessian_kernel(hess)
    cls = _classify_kernel(domain, flat, dim, basis)
    return StationaryPoint(
        strengths=tuple(float(g) for g in strengths),
        positions=flat.reshape(-1, 2).copy(),
        gradient_norm=float(gradient_norm),
        hessian=hess,
        kernel_dimension=dim,
        classification=cls,
        residuals=tuple(residuals),
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def evaluate_point(strengths, domain: Domain, positions) -> StationaryPoint:
    """Assemble a StationaryPoint at explicitly given positions.

    Computes the gradient norm, Hessian, kernel and classification; no
    iteration happens, and no criticality is enforced (callers that need
    a critical point must check gradient_norm themselves); positions
    validate_state refuses raise its error."""
    flat = as_state(positions)
    sys = _anchor_system(strengths, domain)
    sys.validate_state(flat)
    grad, hess = sys.gradient_and_hessian(flat)
    return _finish_point(strengths, domain, flat, np.linalg.norm(grad), hess)


def disc_dipole() -> StationaryPoint:
    """The strength (1, -1) stationary pair of the unit disc, placed
    symmetrically on the x-axis at +-DIPOLE_OFFSET (closed form)."""
    return evaluate_point((1.0, -1.0), UnitDisc(),
                          [[DIPOLE_OFFSET, 0.0], [-DIPOLE_OFFSET, 0.0]])


def find_critical_point(strengths, domain: Domain, guess) -> StationaryPoint:
    """Local Newton search (linalg.newton) for a critical point of the
    m-point energy, converged at gradient norm GRADIENT_TOL (the bound
    classify and SuperpositionSpec require of an anchor configuration)
    in at most MAX_ITERATIONS steps, read at call time.

    The symmetric Hessian is bordered by the domain's symmetry
    generators at the current iterate (and the dilation on the whole
    plane), as both rows and columns: the rows keep the step orthogonal
    to them, the columns take up the gradient's part along them.  The
    border removes the symmetry kernel but pins the representative on
    its group orbit to first order only, so the copy a search ends on
    depends on its path.

    Raises ConvergenceError (with the last iterate attached) if the
    iteration budget runs out or an iterate leaves the admissible set.
    """
    sys = _anchor_system(strengths, domain)
    x = as_state(guess).copy()
    sys.validate_state(x)
    hessians = []  # the driver returns the last iterate it evaluated

    def gradient_and_bordered_hessian(x):
        grad, hess = sys.gradient_and_hessian(x)
        hessians.append(hess)
        C = kernel_generators(domain, x)
        if domain.symmetry == SymmetryClass.PLANE_FULL:
            C.append(x)
        return grad, hess, C, C

    x, residuals = newton(gradient_and_bordered_hessian, x,
                          sys.validate_state, tol=GRADIENT_TOL,
                          max_iterations=MAX_ITERATIONS)
    return _finish_point(strengths, domain, x, residuals[-1], hessians[-1],
                         residuals)
