"""vortexlab: periodic point-vortex orbits built by superposing rigidly
rotating clusters on stationary anchor configurations.

Layers, bottom up:

* domains    -- planar domains and their Green's-function regular parts
* systems    -- interaction energies, vector fields, rescaled coordinates
* equilibria -- catalog of rigidly rotating clusters and their certification
* stationary -- critical anchor configurations and their classification
* dynamics   -- guarded adaptive integration and flow Jacobians
* periodic   -- superposition guesses, shooting, continuation, phase scans
* cli        -- batch front end (`vortexlab run/certify/version`)
"""

from .domains import (Domain, PerturbedDisc, SymmetryClass, UnitDisc,
                      WholePlane, make_domain)
from .dynamics import (IntegratorSettings, Trajectory,
                       check_rescaling_equivalence, flow_with_jacobian,
                       integrate)
from .equilibria import (CertificationReport, RelativeEquilibrium, certify,
                         from_catalog, make_collinear_hermite,
                         make_equilateral, make_pair, make_thomson,
                         make_trivial, monodromy, normalize)
from .errors import (BoundaryEventError, CoincidentPointError, CollisionError,
                     CollisionEventError, ConstraintViolationError,
                     ConvergenceError, DomainViolationError, NotEquilibriumError,
                     ScaleTooLargeError, VortexError, ZeroTotalStrengthError)
from .linalg import aligned_distance, permutation_matrix, perp, rotate_all
from .periodic import (PeriodicOrbit, PhaseScanResult, SuperpositionSpec,
                       build_initial_guess, cluster_winding_numbers,
                       continue_in_r, distance_to_M, scan_phases, shoot,
                       winding_number)
from .stationary import (Classification, DIPOLE_OFFSET, StationaryPoint,
                         disc_dipole, evaluate_point, find_critical_point,
                         m_gradient, m_hamiltonian, m_hessian, classify)
from .systems import RescaledSystem, VortexSystem, assemble_interaction

__version__ = "0.1.0"

__all__ = [
    "BoundaryEventError",
    "CertificationReport",
    "Classification",
    "DIPOLE_OFFSET",
    "CoincidentPointError",
    "CollisionError",
    "CollisionEventError",
    "ConstraintViolationError",
    "ConvergenceError",
    "Domain",
    "DomainViolationError",
    "IntegratorSettings",
    "NotEquilibriumError",
    "PeriodicOrbit",
    "PerturbedDisc",
    "PhaseScanResult",
    "RelativeEquilibrium",
    "RescaledSystem",
    "ScaleTooLargeError",
    "StationaryPoint",
    "SuperpositionSpec",
    "SymmetryClass",
    "Trajectory",
    "UnitDisc",
    "VortexError",
    "VortexSystem",
    "WholePlane",
    "ZeroTotalStrengthError",
    "aligned_distance",
    "assemble_interaction",
    "build_initial_guess",
    "certify",
    "check_rescaling_equivalence",
    "classify",
    "cluster_winding_numbers",
    "continue_in_r",
    "disc_dipole",
    "distance_to_M",
    "evaluate_point",
    "find_critical_point",
    "flow_with_jacobian",
    "from_catalog",
    "integrate",
    "m_gradient",
    "m_hamiltonian",
    "m_hessian",
    "make_collinear_hermite",
    "make_domain",
    "make_equilateral",
    "make_pair",
    "make_thomson",
    "make_trivial",
    "monodromy",
    "normalize",
    "permutation_matrix",
    "perp",
    "rotate_all",
    "scan_phases",
    "shoot",
    "winding_number",
    "__version__",
]
