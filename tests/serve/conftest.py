"""Shared fixtures for the serving tests.

One small ZINC slice and one small model are built per session; the
single-node server under test (a one-replica cluster) is cheap to
construct around them, so each test gets a fresh one (and a fresh
simulated clock) while the expensive pieces are shared.
"""

import pytest

from repro.datasets import load_dataset
from repro.train.trainer import build_model

SCALE = 0.004


@pytest.fixture(scope="session")
def dataset():
    return load_dataset("ZINC", scale=SCALE)


@pytest.fixture(scope="session")
def model(dataset):
    model = build_model("GCN", dataset, hidden_dim=16, num_layers=2,
                        seed=0)
    model.eval()
    return model


@pytest.fixture(scope="session")
def pool(dataset):
    """Six distinct graphs: small enough to be fast, enough to repeat."""
    graphs = dataset.test[:6]
    assert len(graphs) == 6
    return graphs


@pytest.fixture
def make_server(model, tmp_path):
    """Factory for fresh single-node servers: one-replica clusters,
    optionally over an on-disk schedule cache."""
    from repro.cluster import Cluster, ClusterConfig
    from repro.pipeline import ScheduleCache
    from repro.serve import ServerConfig

    def _make(config=None, cached=False, cache_dir=None):
        cache = None
        if cached:
            cache = ScheduleCache(cache_dir or tmp_path / "schedules")
        return Cluster(model, ClusterConfig(
            num_replicas=1, server=config or ServerConfig()), cache=cache)

    return _make
