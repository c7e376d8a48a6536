"""Value types: each constructor copies the arrays it is given before it
freezes them, and each sign guard rejects NaN as it rejects a negative."""

import math

import numpy as np
import pytest

from transrisk.divergence import DiscreteDist, EmpiricalSample1D
from transrisk.gaussian import AffineModel, GaussianDist, GaussianJointTask
from transrisk.portfolio import Portfolio, ReturnsDataset
from transrisk.regression import RegressionDataset
from transrisk.risk import PolyCombiner, source_task_distance
from transrisk.signature import PiecewisePath, TruncatedSignature
from transrisk.errors import ValidationError

# name -> (the caller's arrays, a constructor taking them, the stored arrays)
TYPES = {
    "GaussianDist": (lambda: [np.zeros(2), np.eye(2)], GaussianDist,
                     lambda o: [o.mean, o.cov]),
    "GaussianJointTask": (lambda: [np.zeros(2), np.eye(2)],
                          lambda m, c: GaussianJointTask(1, 1, m, c), lambda o: [o.mean, o.cov]),
    "AffineModel": (lambda: [np.ones((1, 2)), np.zeros(1)], AffineModel,
                    lambda o: [o.weight, o.intercept]),
    "ReturnsDataset": (lambda: [np.ones((3, 2))], ReturnsDataset, lambda o: [o.returns]),
    "Portfolio": (lambda: [np.full(2, 0.5)], Portfolio, lambda o: [o.weights]),
    "DiscreteDist": (lambda: [np.full(2, 0.5)], DiscreteDist, lambda o: [o.probs]),
    "EmpiricalSample1D": (lambda: [np.arange(3.0)], EmpiricalSample1D, lambda o: [o.values]),
    "RegressionDataset": (lambda: [np.ones((3, 2)), np.arange(3.0)], RegressionDataset,
                          lambda o: [o.features, o.targets]),
    "PiecewisePath": (lambda: [np.arange(3.0), np.ones((3, 2))], PiecewisePath,
                      lambda o: [o.times, o.values]),
    "TruncatedSignature": (lambda: [np.array([1.0, 0.5])],
                           lambda c: TruncatedSignature(1, 1, c), lambda o: [o.coeffs]),
}


@pytest.mark.parametrize("name", list(TYPES))
def test_constructor_leaves_the_callers_arrays_alone(name):
    """The caller's arrays stay writeable, and writing to them leaves the
    object unchanged, while the object's own arrays are read-only."""
    make_args, construct, stored = TYPES[name]
    args = make_args()
    obj = construct(*args)
    before = [a.copy() for a in stored(obj)]
    for arg in args:
        assert arg.flags.writeable
        arg[...] = 7.0
    for kept, old in zip(stored(obj), before):
        assert not kept.flags.writeable
        np.testing.assert_array_equal(kept, old)


@pytest.mark.parametrize("make", [
    lambda: Portfolio([math.nan, 1.0]),
    lambda: DiscreteDist([math.nan, 1.0]),
    lambda: PolyCombiner(math.nan, 1.0),
    lambda: source_task_distance(math.nan, 0.1),
], ids=["Portfolio", "DiscreteDist", "PolyCombiner", "source_task_distance"])
def test_nan_fails_the_sign_guards(make):
    with pytest.raises(ValidationError):
        make()
