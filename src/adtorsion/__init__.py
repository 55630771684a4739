"""Twisted Alexander invariants and adjoint Reidemeister torsion of knot
exteriors, computed from a group presentation and an SL(2,C)/SU(2)
representation, with Riley's parametrization for two-bridge knots."""

__version__ = "0.1.0"

from .words import Word, WordError, parse_word, format_word
from .presentation import (
    Presentation,
    PresentationError,
    ValidationReport,
    Violation,
    conjugation_relator,
    load_presentation_file,
    loads_presentation,
    two_bridge,
    validate,
)
from .foxcalc import (
    GroupRingElt,
    fox_derivative,
    fundamental_identity_holds,
)
from .laurent import (
    IntLaurent,
    LaurentMatrix,
    LaurentPoly,
    RationalFunction,
    divide_out_simple_roots,
    unit_aligned_distance,
)
from .reps import (
    Rep,
    RepresentationError,
    RileyPoly,
    Su2Solutions,
    Su2Stack,
    adjoint_of_matrix,
    build_rep,
    riley_assignment,
    riley_polynomial,
    su2_root_count_thresholds,
    su2_solutions,
)
from .torsion import (
    RegularityError,
    Tolerances,
    TorsionPolynomial,
    TorsionResult,
    alexander_block_matrix,
    boundary_factor,
    compute_torsion,
    dihedral_class_count,
    homology_torsion,
    phi_of,
    regularity_diagnostics,
    simple_zero,
    torsion_polynomial,
    torsion_via_formula,
    torsion_via_limit,
    twisted_alexander_invariant,
    untwisted_alexander,
)
from .catalog import knot, knot_names, two_bridge_pq
from .locus import auto_theta_range, find_critical_points, sweep_rows
from .verify import run_verification

__all__ = [name for name in dir() if not name.startswith("_")]
