"""AUGUST: a distribution-free nonparametric two-sample test.

The test compares two univariate samples up to a chosen binary resolution
``d``.  Each point of one sample is mapped to exact hypergeometric cell
probabilities against the other sample (the augmented CDF), the averaged
cell vectors are pushed through a Sylvester Hadamard transform into
symmetry statistics, and the statistic is minus the inner product of the
two symmetry vectors.  Large values reject equality in distribution, and
the individual symmetry statistics say *why*.

Quick start::

    import numpy as np
    from august import august_plus, build_null_table, p_value

    rng = np.random.default_rng(7)
    x, y = rng.normal(size=200), rng.normal(0.4, 1.0, size=220)
    result = august_plus(x, y, depth=3)
    table = build_null_table(200, 220, depth=3, sims=2000, seed=1)
    print(result.statistic, p_value(result.statistic, table))
"""

from .baselines import BaselineResult, baseline_permutation_test, energy_statistic, ks_statistic
from .core import (
    AugustResult,
    TiePolicy,
    august,
    august_many,
    august_plus,
    cos_angle,
    minimum_sample_size,
)
from .errors import (
    AugustError,
    DegenerateVector,
    DepthOutOfRange,
    DimensionMismatch,
    EmptySample,
    IOFailure,
    LengthNotPowerOfTwo,
    NonFiniteInput,
    ParseError,
    QuadratureFailure,
    SampleTooSmall,
    SingularCovariance,
    TiesPresent,
)
from .hadamard import fwht, sylvester
from .hypergeom import SubsampleConfig, augmented_cdf
from .inference import (
    AlternativeSpec,
    NullTable,
    alternative_mu,
    asymptotic_p_value,
    build_null_table,
    cached_null_table,
    estimate_sigma,
    limit_covariance,
    limit_weights,
    load_null_table,
    null_table_path,
    p_value,
    power_simulation,
    save_null_table,
)
from .interpret import (
    RegionReport,
    emit_plot_data,
    rank_symmetries,
    read_plot_data,
    region_report,
    row_label,
)
from .multivariate import (
    MahalanobisModel,
    MultiResult,
    fit_mahalanobis,
    multivariate_statistic,
    multivariate_test,
    permutation_p_value,
    transform,
)
from .version import __version__

__all__ = [
    "__version__",
    # core test
    "AugustResult", "TiePolicy", "august", "august_plus", "august_many",
    "cos_angle", "minimum_sample_size",
    # hypergeometric machinery
    "SubsampleConfig", "augmented_cdf",
    # Hadamard machinery
    "sylvester", "fwht",
    # inference
    "NullTable", "AlternativeSpec", "build_null_table",
    "p_value", "estimate_sigma", "limit_covariance", "limit_weights",
    "asymptotic_p_value", "alternative_mu",
    "power_simulation", "null_table_path", "save_null_table",
    "load_null_table", "cached_null_table",
    # multivariate
    "MahalanobisModel", "MultiResult", "fit_mahalanobis", "transform",
    "multivariate_statistic", "multivariate_test", "permutation_p_value",
    # interpretation
    "RegionReport", "rank_symmetries", "region_report", "emit_plot_data",
    "read_plot_data", "row_label",
    # baselines
    "BaselineResult", "ks_statistic", "energy_statistic",
    "baseline_permutation_test",
    # errors
    "AugustError", "SampleTooSmall", "NonFiniteInput", "TiesPresent",
    "DepthOutOfRange", "LengthNotPowerOfTwo", "DegenerateVector",
    "QuadratureFailure", "SingularCovariance",
    "DimensionMismatch", "EmptySample", "IOFailure", "ParseError",
]
