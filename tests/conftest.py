"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.graph.generators import (
    circular_skip_link,
    erdos_renyi,
    grid_graph,
    molecular_like,
    ring_graph,
    star_graph,
)
from repro.graph.graph import complete_graph

# CI runs with HYPOTHESIS_PROFILE=ci so that a failing property prints
# the @reproduce_failure blob; example counts stay as each test sets them.
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ring12():
    return ring_graph(12)


@pytest.fixture
def molecule(rng):
    return molecular_like(rng, 23)


@pytest.fixture
def csl41():
    return circular_skip_link(41, 5)


@pytest.fixture
def er50(rng):
    return erdos_renyi(rng, 50, 0.1)


@pytest.fixture
def grid4x5():
    return grid_graph(4, 5)


@pytest.fixture
def star10():
    return star_graph(10)


@pytest.fixture
def k8():
    return complete_graph(8)


def numeric_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at numpy array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn(x)
        x[idx] = orig - eps
        lo = fn(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad
