"""Every forward without a backward runs tape-free; training records.

The model's ``forward`` is wrapped to note whether grad recording is on
when it runs.  A refactor that drops a ``no_grad()`` context at one of
these call sites fails here instead of silently paying for the tape.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.datasets import load_dataset
from repro.models import GatedGCN, compute_model_stats
from repro.serve import (
    ArrivalProcess,
    BatchingPolicy,
    ServerConfig,
    generate_requests,
)
from repro.stream import StreamMix, StreamServer, generate_stream
from repro.tensor import Tensor
from repro.train import Trainer, build_model


@pytest.fixture(scope="module")
def zinc():
    return load_dataset("ZINC", scale=0.004)


@pytest.fixture
def recorded(monkeypatch):
    """Grad-recording state at each ``GatedGCN`` forward, in call order."""
    seen = []
    original = GatedGCN.forward

    def forward(self, batch, runtime):
        seen.append((Tensor([1.0], requires_grad=True) * 2.0).requires_grad)
        return original(self, batch, runtime)

    monkeypatch.setattr(GatedGCN, "forward", forward)
    return seen


def _model(dataset):
    return build_model("GCN", dataset, hidden_dim=8, num_layers=1).eval()


def _config(replicas):
    return ClusterConfig(
        num_replicas=replicas, policy="hash-affinity",
        server=ServerConfig(queue_capacity=16,
                            policy=BatchingPolicy(max_batch_size=4)))


def _process():
    return ArrivalProcess(kind="poisson", rate_rps=400.0, seed=0)


def test_cluster_forwards_do_not_record(zinc, recorded):
    cluster = Cluster(_model(zinc), _config(1))
    result = cluster.run(generate_requests(zinc.test[:4], 12, _process()))
    assert result.stats.served == 12
    assert recorded and not any(recorded)


def test_stream_forwards_do_not_record(zinc, recorded):
    graphs = {f"g{i}": g for i, g in enumerate(zinc.test[:3])}
    server = StreamServer(_model(zinc), graphs, _config(2))
    requests, deltas = generate_stream(server.table, 16, _process(),
                                       StreamMix(seed=0, delta_fraction=0.3))
    server.run(requests, deltas)
    assert recorded and not any(recorded)


def test_trainer_records_only_while_training(zinc, recorded):
    trainer = Trainer(_model(zinc), zinc, method="baseline", batch_size=16)
    trainer.train_epoch()
    assert recorded and all(recorded)
    recorded.clear()
    trainer.evaluate("validation")
    assert recorded and not any(recorded)


def test_model_stats_forward_does_not_record(recorded):
    """Table I reads the layers' declared ops: no forward runs at all."""
    compute_model_stats(GatedGCN, hidden_dim=8, num_layers=1)
    assert recorded == []
