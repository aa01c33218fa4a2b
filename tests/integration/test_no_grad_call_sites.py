"""Every forward without a backward runs tape-free; training records.

The model's ``forward`` is wrapped to note whether grad recording is on
when it runs.  A refactor that drops a ``no_grad()`` context at one of
these call sites fails here instead of silently paying for the tape.
Serving runs are checked with the forward in-process and in a forked
forward worker; the worker's forwards note their state through a pipe
both processes hold.
"""

import os

import pytest

import repro.serve.server as server

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


class Recorder:
    """Grad-recording states noted by ``GatedGCN`` forwards, in any
    process forked from this one."""

    def __init__(self):
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)

    def note(self, recording: bool) -> None:
        os.write(self._write, b"1" if recording else b"0")

    def read(self):
        """The states noted since the last read."""
        data = b""
        try:
            while True:
                data += os.read(self._read, 4096)
        except BlockingIOError:
            pass
        return [byte == ord("1") for byte in data]

    def close(self) -> None:
        os.close(self._read)
        os.close(self._write)


@pytest.fixture
def recorded(monkeypatch):
    """A :class:`Recorder` fed by every ``GatedGCN`` forward."""
    recorder = Recorder()
    original = GatedGCN.forward

    def forward(self, batch, runtime):
        recorder.note(
            (Tensor([1.0], requires_grad=True) * 2.0).requires_grad)
        return original(self, batch, runtime)

    monkeypatch.setattr(GatedGCN, "forward", forward)
    yield recorder
    recorder.close()


def both_sides(monkeypatch):
    """Force the forward worker selection off, then on."""
    for worker in (False, True):
        monkeypatch.setattr(server, "use_forward_worker",
                            lambda _: worker)
        yield worker


def _model(dataset):
    return build_model("GCN", dataset, hidden_dim=8, num_layers=1).eval()


def _config(replicas):
    return ClusterConfig(
        num_replicas=replicas, policy="hash-affinity",
        server=ServerConfig(queue_capacity=16,
                            policy=BatchingPolicy(max_batch_size=4)))


def _process():
    return ArrivalProcess(kind="poisson", rate_rps=400.0, seed=0)


def test_cluster_forwards_do_not_record(zinc, recorded, monkeypatch):
    requests = generate_requests(zinc.test[:4], 12, _process())
    for _ in both_sides(monkeypatch):
        result = Cluster(_model(zinc), _config(1)).run(requests)
        assert result.stats.served == 12
        seen = recorded.read()
        assert seen and not any(seen)


def test_stream_forwards_do_not_record(zinc, recorded, monkeypatch):
    graphs = {f"g{i}": g for i, g in enumerate(zinc.test[:3])}
    for _ in both_sides(monkeypatch):
        stream = StreamServer(_model(zinc), graphs, _config(2))
        requests, deltas = generate_stream(
            stream.table, 16, _process(),
            StreamMix(seed=0, delta_fraction=0.3))
        stream.run(requests, deltas)
        seen = recorded.read()
        assert seen and not any(seen)


def test_trainer_records_only_while_training(zinc, recorded):
    trainer = Trainer(_model(zinc), zinc, method="baseline", batch_size=16)
    trainer.train_epoch()
    seen = recorded.read()
    assert seen and all(seen)
    trainer.evaluate("validation")
    seen = recorded.read()
    assert seen and not any(seen)


def test_model_stats_forward_does_not_record(recorded):
    """Table I reads the layers' declared ops: no forward runs at all."""
    compute_model_stats(GatedGCN, hidden_dim=8, num_layers=1)
    assert recorded.read() == []
