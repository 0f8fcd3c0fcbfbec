"""Near-MDS codes from elliptic curves over finite fields of odd order.

The package builds the point images of plane elliptic curves in projective
spaces, derives linear codes from them, classifies code parameters, and
decides extendability questions by exhaustive and constructive search.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ArcPropertyViolated,
    BadIndex,
    Budget,
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZero,
    EllnmdsError,
    EvenCharacteristic,
    FrameViolation,
    HypothesisNotMet,
    InvariantViolated,
    KOutOfRange,
    NoFrameFound,
    NotPrime,
    NotPrimePower,
    NoWitnessFound,
    Overflow,
    PointOnCurve,
    ScanLimitExceeded,
    Singular,
)
from .gf import Field, field_make, field_of_order  # noqa: F401
from .curve import (  # noqa: F401
    INFINITY,
    CurveSummary,
    EllipticCurve,
    curve_make,
    curve_scan,
    nq1,
    short_curve,
)
from .geometry import (  # noqa: F401
    EllipticArc,
    ProjPointSet,
    addable_filter,
    addable_points,
    arc_make,
    complete_arc,
    normalize_coords,
    phi_k,
    psi,
)
from .code import (  # noqa: F401
    Classification,
    LinearCode,
    classify,
    dual_min_distance,
    extend,
    generator_matrix,
    h_extendability_oracle,
    min_distance,
)
from .secants import (  # noqa: F401
    LineProfile,
    LineSystem,
    line_meet,
    line_profile,
    min_trisecants,
    zero_j_hypotheses,
)
from .extendability import (  # noqa: F401
    Frame,
    WitnessReport,
    choose_frame,
    k5_candidates,
    verify_main_theorem,
    verify_zero_j_theorem,
)
