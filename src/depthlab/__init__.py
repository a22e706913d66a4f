"""depthlab: a numerical laboratory for functional data depth.

Half-space, simplicial and band depths over coordinate-sequence models,
with certificates of zero depth, certified positive lower bounds, and
Monte Carlo experiments exhibiting the failure of empirical-depth
consistency exactly where the true depth is positive.
"""

from .models import (
    CoordinateLaw,
    Density,
    Direction,
    LawTail,
    Point,
    PowerTail,
    Sample,
    SequenceModel,
    apply_direction,
    gaussian_law,
    gaussian_model,
    logistic_density,
    normal_density,
    project_sample,
    rademacher_law,
    rademacher_model,
    sample,
    stable_law,
    stable_model,
    uniform_density,
    uniform_law,
    uniform_model,
)
from .analytic import (
    Certificate,
    DepthReport,
    GridFunction,
    SeriesReport,
    band_depth_1d,
    brownian_depths,
    dual_norm,
    gaussian_sequence_depth,
    modified_band_depth,
    rademacher_classify,
    series_report,
    stable_cdf,
    stable_depth,
)
from .bounds import (
    LowerBoundReport,
    ZeroCertificate,
    fourth_moment_ratio,
    j_functional,
    k_functional,
    kurtosis_bound,
    markov_bound_curve,
    markov_zero_certificate,
    rademacher_tail_lower_bound,
    projection_lower_bound,
    small_point_lower_bound,
    pz_lower_bound,
    wlln_second_moment,
)
from .admissibility import (
    AdmissibilityVerdict,
    PositivityDecision,
    fisher_information,
    hellinger_affinities,
    kakutani_product,
    positivity_decision,
)
from .empirical import (
    DirectionFamily,
    ExperimentResult,
    empirical_half_space_depth,
    zero_depth_experiment,
)
from .simplicial import (
    SimplicialRecord,
    empirical_block_depth,
    block_depth_experiment,
    simplicial_depth_mc,
    u_statistic_depth_mc,
)

__version__ = "0.1.0"
