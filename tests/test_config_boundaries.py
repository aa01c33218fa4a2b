"""The config constructors are typed boundaries.

``MegaConfig``, ``BatchingPolicy``, ``ServerConfig`` and
``ClusterConfig`` check every field's type and finiteness in
``__post_init__``: a malformed value raises the config's
:class:`~repro.errors.ReproError`, never a bare ``TypeError`` at
construction or later in a run.  One hypothesis fuzz test per
constructor, over :func:`tests.strategies.config_values`, then a named
regression test per value that used to get through.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.cluster.routing import HashRing
from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.errors import ClusterError, ConfigError, ReproError, ServeError
from repro.serve import BatchingPolicy, ServerConfig
from repro.serve.queueing import BoundedRequestQueue
from tests.strategies import config_values, graphs


def fuzzed(*names):
    """Keyword arguments for some of ``names``, each a fuzzed value."""
    return st.dictionaries(st.sampled_from(names), config_values(),
                           max_size=len(names))


@settings(max_examples=150, deadline=None)
@given(kwargs=fuzzed("window", "coverage", "edge_drop", "max_window",
                     "seed"),
       graph=graphs(max_nodes=8))
def test_mega_config_fuzz(kwargs, graph):
    try:
        config = MegaConfig(**kwargs)
        PathRepresentation.from_graph(graph, config)
    except ReproError:
        pass


@settings(max_examples=150, deadline=None)
@given(kwargs=fuzzed("max_batch_size", "max_wait_s", "bucket_width"))
def test_batching_policy_fuzz(kwargs):
    try:
        policy = BatchingPolicy(**kwargs)
    except ReproError:
        return
    assert policy.bucket_of(17) >= 0
    assert math.isfinite(policy.max_wait_s)


@settings(max_examples=100, deadline=None)
@given(kwargs=fuzzed("queue_capacity", "policy"))
def test_server_config_fuzz(kwargs):
    try:
        config = ServerConfig(**kwargs)
    except ReproError:
        return
    BoundedRequestQueue(config.queue_capacity)


@settings(max_examples=150, deadline=None)
@given(kwargs=fuzzed("num_replicas", "policy", "vnodes",
                     "breaker_threshold", "breaker_cooldown_s",
                     "brownout_watermark", "shed_retry_after_s", "server"))
def test_cluster_config_fuzz(kwargs):
    try:
        config = ClusterConfig(**kwargs)
    except ReproError:
        return
    ring = HashRing(list(range(config.num_replicas)), vnodes=config.vnodes)
    assert ring.route("ab" * 32) in range(config.num_replicas)
    assert math.isfinite(config.breaker_cooldown_s)
    assert math.isfinite(config.shed_retry_after_s)


# -- named regressions: each of these got past the constructor ----------

def test_cluster_config_string_replicas():
    with pytest.raises(ClusterError, match="num_replicas"):
        ClusterConfig(num_replicas="3")


def test_server_config_none_capacity():
    with pytest.raises(ServeError, match="queue_capacity"):
        ServerConfig(queue_capacity=None)


def test_batching_policy_string_batch_size():
    with pytest.raises(ConfigError, match="max_batch_size"):
        BatchingPolicy(max_batch_size="8")


def test_mega_config_string_edge_drop():
    with pytest.raises(ConfigError, match="edge_drop"):
        MegaConfig(edge_drop="x")


def test_mega_config_none_max_window():
    with pytest.raises(ConfigError, match="max_window"):
        MegaConfig(max_window=None)


def test_cluster_config_fractional_vnodes():
    """Accepted before, then failed inside ``HashRing`` at run time."""
    with pytest.raises(ClusterError, match="vnodes"):
        ClusterConfig(vnodes=2.5)


def test_mega_config_fractional_window():
    """Accepted before, then failed inside Algorithm 1 on a slice."""
    with pytest.raises(ConfigError, match="window"):
        MegaConfig(window=2.5)


@pytest.mark.parametrize("name", ["breaker_cooldown_s",
                                  "shed_retry_after_s"])
def test_cluster_config_nan_seconds(name):
    """A nan cooldown never half-opens a tripped breaker."""
    with pytest.raises(ClusterError, match=name):
        ClusterConfig(**{name: float("nan")})


def test_numpy_integers_stay_accepted():
    config = ClusterConfig(num_replicas=np.int64(3), vnodes=np.int32(8),
                           server=ServerConfig(
                               queue_capacity=np.int64(4),
                               policy=BatchingPolicy(
                                   max_batch_size=np.int64(2))))
    assert config.num_replicas == 3
    assert MegaConfig(window=np.int64(2), max_window=np.int16(8)).window == 2
