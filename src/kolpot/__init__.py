"""Numerical potential theory for Kolmogorov-type degenerate parabolic operators.

The package builds the homogeneous group attached to an operator
div(A grad) + <Bx, grad> - d/dt in block form, its Gaussian fundamental
solution, the level-set balls with exact ellipsoidal time slices, and the
mean-value kernel, and provides quadrature and experiment drivers that verify
the mean-value formula, the exterior potential identity and its rigidity
under domain perturbations.
"""

from .operators import (
    GroupPoint,
    OperatorSpec,
    validate_operator,
    group_compose,
    group_inverse,
    dilate,
    transport_matrix,
    dilation_matrix,
    operator_hash,
    heat_operator,
    kolmogorov_prototype,
    chain_operator,
)
from .covariance import (
    MatrixPolynomial,
    CovarianceModel,
    exponential_polynomial,
    covariance_polynomial,
    covariance_at,
    covariance_inverse_at,
    det_covariance_polynomial,
)
from .fundsol import GammaEvaluator
from .balls import (
    Ellipsoid,
    LBall,
    lball,
    ball_time_extent,
    ball_contains,
    ball_classify,
    ball_bounding_box,
    ball_translate,
    ball_dilate,
    export_slices_csv,
)
from .quadrature import (
    QuadratureConfig,
    IntegralResult,
    integrate_over_ball,
)
from .harmonic import AnisoPolynomial, apply_L, harmonic_basis, format_polynomial

__version__ = "0.1.0"

from .domains import (  # noqa: E402  (needs __version__ for reports)
    SlicedDomain,
    ExactBall,
    ScaledBall,
    ShiftedBall,
    RadiusMismatchBall,
    BittenBall,
    TimeShiftedBall,
    make_perturbation,
)
from .lab import (  # noqa: E402
    mean_value,
    gamma_potential,
    potential_identity_residual,
    interior_inequality_margin,
    lp_condition_norm,
    exterior_test_points,
    interior_test_points,
    future_mass_detector,
    RigidityReport,
    LpCheck,
)
from .config import ExperimentConfig, load_config  # noqa: E402
