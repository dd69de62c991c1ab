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

Each module's ``__all__`` is its public API, and the package re-exports
every one of them.
"""

from . import (baselines, core, errors, hadamard, hypergeom, inference, interpret,
               multivariate)
from .baselines import *
from .core import *
from .errors import *
from .hadamard import *
from .hypergeom import *
from .inference import *
from .interpret import *
from .multivariate import *
from .version import __version__

__all__ = ["__version__"]
__all__ += baselines.__all__
__all__ += core.__all__
__all__ += errors.__all__
__all__ += hadamard.__all__
__all__ += hypergeom.__all__
__all__ += inference.__all__
__all__ += interpret.__all__
__all__ += multivariate.__all__
