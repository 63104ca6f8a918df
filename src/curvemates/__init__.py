"""curvemates: Frenet apparatus and associated space-curve mates.

Build curves, compute their Frenet frames, solve the offset-function ODEs
of the nine tangent/normal/binormal x osculating/normal/rectifying
association families, construct the mates, and verify the closed-form
frame and curvature predictions against an independent numeric oracle.
"""
from .association import (
    FAMILIES,
    AssociationSpec,
    PredictedMate,
    associate,
    classify_special_case,
    construct_mate,
    mate_curvatures_closed,
)
from .errors import CurveMatesError
from .geometry import (
    CurveSpec,
    FrameData,
    SampledCurve,
    frenet_residuals,
    reparametrize_arclength,
    sample_curve,
)
from .solvers import (
    LambdaSolution,
    lambda_constant,
    lambda_exponential_pair,
    lambda_half_curvature,
    lambda_helix_hyperbolic,
    lambda_involute,
    riccati_linearize,
    solve_constraint_ode,
    solve_linear,
    solve_riccati,
)
from .verify import (
    Tolerances,
    VerificationReport,
    audit_curvature_formulas,
    check_association,
    check_distance,
    verify_mate,
)

__version__ = "0.1.0"
