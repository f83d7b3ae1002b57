"""Shared test helpers: random parameter draws and grid-search oracles."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from stacknash import DEFAULT_PARAMS, ModelParams


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion verdict lines past output capture."""
    acceptance = sys.modules.get("test_acceptance")
    for line in getattr(acceptance, "VERDICTS", []):
        terminalreporter.write_line(line)


def random_params(rng: np.random.Generator, max_product: float = 0.99,
                  delta_range=(0.5, 10.0), lambda_range=(0.01, 2.0)) -> ModelParams:
    """A random draw of behavioral parameters with lambda1*lambda2 below the
    requested bound."""
    while True:
        d0, d1, d2 = rng.uniform(*delta_range, 3)
        l1, l2 = rng.uniform(*lambda_range, 2)
        if l1 * l2 < max_product:
            return replace(DEFAULT_PARAMS, delta0=d0, delta1=d1, delta2=d2,
                           lambda1=l1, lambda2=l2)


#: A valid input at large scale: loadings near 3.9e5 and 6.1e6. The solver
#: accepts its root by the relative residual (3.0e-16) at an absolute defect
#: of 1.16e-10, and a loading grid of step 1e-3 up to delta2 + delta0/2 would
#: hold 3.5e10 points.
LARGE_SCALE = {"delta0": 881831.3443155417, "delta1": 9768.467296259096,
               "delta2": 34244454.642182745, "lambda1": 0.051778231966182364,
               "lambda2": 0.6835258309094595, "mu": 5.0, "c": 5.0,
               "sigma": 2.3869295150604455e-06}


def wide_deltas():
    """Three risk aversions, each log-uniform in [1e-6, 1e8]."""
    return st.tuples(*[st.floats(min_value=-6.0, max_value=8.0)
                       .map(lambda d: 10.0 ** d)] * 3)


@st.composite
def wide_lambdas(draw):
    """lambda1*lambda2 = 1 - eps with eps in [1e-15, 1] and lambda1/lambda2 =
    ratio**2 with ratio in [1e-2, 1e2], both log-uniform; then none, both or
    exactly one of them (on either side) set to zero."""
    k = math.sqrt(1.0 - 10.0 ** draw(st.floats(min_value=-15.0, max_value=0.0)))
    ratio = 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
    zeros = draw(st.sampled_from(((), (0, 1), (0,), (1,))))
    return tuple(0.0 if i in zeros else lam
                 for i, lam in enumerate((k * ratio, k / ratio)))


def simplex_grid(step: float):
    """All (p1, p2) grid points with p1, p2 >= 0 and p1 + p2 <= 1."""
    axis = np.arange(0.0, 1.0 + 0.5 * step, step)
    p1, p2 = np.meshgrid(axis, axis, indexing="ij")
    mask = p1 + p2 <= 1.0
    return p1[mask], p2[mask]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
