"""Named alternative families for power studies.

Each family pairs a null sampler with a parameterized alternative sampler
and a default parameter grid.  Univariate families cover location, scale
and shape alternatives; the bivariate families cover location, scale,
correlation, rotation, log-normal location and a bimodal component.

The normal-mixture family mixes N(-sep, tau**2) and N(+sep, tau**2) in
equal parts with tau**2 = 1 - sep**2, keeping zero mean and unit variance
for every separation; as sep -> 1 the mixture approaches a +-1 coin flip.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Family", "UNIVARIATE_FAMILIES", "BIVARIATE_FAMILIES", "get_family"]


@dataclass(frozen=True)
class Family:
    name: str
    kind: str  # "univariate" or "bivariate"
    default_grid: tuple
    null_sampler: callable
    alternative: callable  # alternative(param) -> sampler(rng, size)


def _std_normal(rng, size):
    return rng.standard_normal(size)


def _std_normal2(rng, size):
    return rng.standard_normal((size, 2))


def normal_mixture_sampler(separation):
    if not 0.0 <= separation < 1.0:
        raise ValueError("separation must lie in [0, 1)")
    tau = np.sqrt(1.0 - separation**2)

    def sample(rng, size):
        signs = rng.integers(0, 2, size) * 2 - 1
        return signs * separation + tau * rng.standard_normal(size)

    return sample


def _scale_sampler(draw):
    """The alternative ``scale -> draw(rng, size, scale)``, for a scale > 0."""

    def alternative(scale):
        if not scale > 0.0:
            raise ValueError("scale must be positive")
        return lambda rng, size: draw(rng, size, scale)

    return alternative


def _standardized_gamma_sampler(skewness):
    def sample(rng, size):
        if skewness == 0.0:
            return rng.standard_normal(size)
        shape = 4.0 / skewness**2
        return (rng.gamma(shape, 1.0, size) - shape) / np.sqrt(shape)

    return sample


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _aniso_normal2(rng, size):
    return rng.standard_normal((size, 2)) * np.array([1.0, 3.0])


UNIVARIATE_FAMILIES = {
    "null": Family(
        "null", "univariate", (0.0,),
        lambda rng, size: rng.random(size),
        lambda p: lambda rng, size: rng.random(size),
    ),
    "normal-location": Family(
        "normal-location", "univariate", (0.0, 0.15, 0.3, 0.45, 0.6),
        _std_normal,
        lambda p: lambda rng, size: rng.standard_normal(size) + p,
    ),
    "laplace-location": Family(
        "laplace-location", "univariate", (0.0, 0.15, 0.3, 0.45, 0.6),
        lambda rng, size: rng.laplace(0.0, 1.0, size),
        lambda p: lambda rng, size: rng.laplace(p, 1.0, size),
    ),
    "laplace-scale": Family(
        "laplace-scale", "univariate", (1.0, 1.25, 1.5, 1.75, 2.0),
        lambda rng, size: rng.laplace(0.0, 1.0, size),
        _scale_sampler(lambda rng, size, p: rng.laplace(0.0, p, size)),
    ),
    "beta-skew": Family(
        "beta-skew", "univariate", (0.0, 0.3, 0.6, 0.9, 1.2),
        lambda rng, size: rng.beta(2.0, 2.0, size),
        lambda p: lambda rng, size: rng.beta(2.0 + p, 2.0 - p, size),
    ),
    "gamma-skew": Family(
        "gamma-skew", "univariate", (0.0, 0.4, 0.8, 1.2, 1.6),
        _std_normal,
        _standardized_gamma_sampler,
    ),
    "normal-mixture": Family(
        "normal-mixture", "univariate", (0.0, 0.5, 0.7, 0.85, 0.95),
        _std_normal,
        normal_mixture_sampler,
    ),
}


BIVARIATE_FAMILIES = {
    "mvn-location": Family(
        "mvn-location", "bivariate", (0.0, 0.2, 0.4, 0.6),
        _std_normal2,
        lambda p: lambda rng, size: rng.standard_normal((size, 2)) + p,
    ),
    "mvn-scale": Family(
        "mvn-scale", "bivariate", (1.0, 1.3, 1.6, 2.0),
        _std_normal2,
        _scale_sampler(
            lambda rng, size, p: rng.standard_normal((size, 2)) * np.sqrt(p)
        ),
    ),
    "mvn-correlation": Family(
        "mvn-correlation", "bivariate", (0.0, 0.2, 0.4, 0.6),
        _std_normal2,
        lambda p: lambda rng, size: rng.standard_normal((size, 2))
        @ np.array([[1.0, p], [0.0, np.sqrt(1.0 - p**2)]]),
    ),
    "mvn-rotation": Family(
        "mvn-rotation", "bivariate", (0.0, 0.15, 0.3, 0.45),
        _aniso_normal2,
        lambda p: lambda rng, size: _aniso_normal2(rng, size) @ _rotation(p).T,
    ),
    "lognormal-location": Family(
        "lognormal-location", "bivariate", (0.0, 0.1, 0.2, 0.3),
        lambda rng, size: np.exp(rng.standard_normal((size, 2))),
        lambda p: lambda rng, size: np.exp(rng.standard_normal((size, 2)) + p),
    ),
    "mvn-bimodal": Family(
        "mvn-bimodal", "bivariate", (0.0, 0.5, 0.7, 0.9),
        _std_normal2,
        lambda p: lambda rng, size: np.column_stack(
            [rng.standard_normal(size), normal_mixture_sampler(p)(rng, size)]
        ),
    ),
}


def get_family(name):
    if name in UNIVARIATE_FAMILIES:
        return UNIVARIATE_FAMILIES[name]
    if name in BIVARIATE_FAMILIES:
        return BIVARIATE_FAMILIES[name]
    known = sorted(UNIVARIATE_FAMILIES) + sorted(BIVARIATE_FAMILIES)
    raise ValueError(f"unknown family {name!r}; choose from {known}")
