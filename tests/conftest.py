"""Shared fixtures. Clouds are expensive, so they are session scoped."""

import os

import numpy as np
import pytest

import ratdyn
from ratdyn.ratmap import RationalMap
from ratdyn.julia import sample_inverse_iteration

# CLI tests start `python -m ratdyn.cli`: let those processes import the
# same ratdyn as this one, installed or run from a checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.dirname(os.path.dirname(ratdyn.__file__))]
    + [p for p in [os.environ.get("PYTHONPATH")] if p])


@pytest.fixture(scope="session")
def z2():
    return RationalMap([0, 0, 1], [1])


@pytest.fixture(scope="session")
def zm2():
    return RationalMap([-2, 0, 1], [1])


@pytest.fixture(scope="session")
def t2():
    return RationalMap([-1, 0, 2], [1])


@pytest.fixture(scope="session")
def t3():
    return RationalMap([0, -3, 0, 4], [1])


@pytest.fixture(scope="session")
def lattes():
    # (z^2 + 1)^2 / (4 z (z^2 - 1))
    return RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4])


@pytest.fixture(scope="session")
def full_shift():
    # (2 z^2 - 1) / z
    return RationalMap([-1, 0, 2], [0, 1])


@pytest.fixture(scope="session")
def cloud_z2(z2):
    return sample_inverse_iteration(z2, 0.9 + 0.3j, count=4000, seed=0)


@pytest.fixture(scope="session")
def cloud_zm2(zm2):
    return sample_inverse_iteration(zm2, 1.3, count=4000, seed=0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)
