"""Numerical laboratory for few-sample limits of Gaussian rank detection.

The package verifies, end to end and with explicit error bars, the chain
that caps how well any procedure can read conditioned pair correlations
(equivalently, the rank of a planar ellipsoid section) out of n Gaussian
samples in dimension d: conditioned moments equal an inverse precision
block, projected ensembles have Wishart Gram laws, and the total-variation
distance between neighbouring Wishart laws stays below 0.6 whenever
n < d/3, so no detector can be right with probability 0.9 on every
covariance matrix.
"""

from .conditional import (
    AlphaEstimate,
    AlphaMatrix,
    SectionCovariance,
    alpha_analytic,
    alpha_monte_carlo,
    conditional_covariance_schur,
    kd_constant,
    precision_block,
    section_covariance,
)
from .detection import (
    Detector,
    Ensemble,
    GameReport,
    bayes_three_way_detector,
    constant_detector,
    det_threshold_detector,
    evaluate_batches,
    lr_detector,
    make_detector,
    random_guess_detector,
    registry_names,
    run_fixed_theta_game,
    run_three_way_game,
    run_two_way_game,
    symmetrize_detector,
    three_way_ceiling,
    trace_threshold_detector,
    two_way_ceiling,
)
from .errors import (
    BasisNotOrthonormalError,
    DegenerateDrawError,
    IndexOutOfRangeError,
    InvalidParamsError,
    InvariantViolationError,
    MatrixParseError,
    NotPdError,
    NotPsdError,
    NotUnitVectorError,
    PrecisionLabError,
    SingularBlockError,
    ThetaInEPerpError,
    TooFewAcceptancesError,
    UnknownDetectorError,
)
from .matcore import (
    CholeskyLogdet,
    cholesky_logdet,
    projector_complement,
    psd_eigh,
    subspace_intersection_dim,
    sym_sqrt,
)
from .matrixio import dump_symmetric_matrix, load_symmetric_matrix
from .sampler import (
    RngStream,
    deficient_batches,
    haar_rotation_many,
    standard_batches,
    uniform_sphere_many,
)
from .tvbounds import (
    TvReport,
    tv_chi2_quadrature,
    tv_closed_form_bound,
    tv_exact_mc,
    tv_moment_ratio_bound,
    tv_report,
)
from .wishart import (
    DetMoments,
    WishartParams,
    det_moments,
    det_moments_exact,
    gram_many,
    log_density,
    log_normalizer,
    wishart_samples,
)

__version__ = "0.1.0"
