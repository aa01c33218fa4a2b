"""One L2 pass per batch prices every kernel as kernel-by-kernel would.

``simulate_batch`` submits a batch's launches to the device at once, so
the L2 sees them as one segmented stream over the batch's distinct
traces, and all kernels are priced in one array pass.  Here the same
launches run one at a time through a device whose L2 is the
access-by-access reference (:class:`tests.memsim.lru_oracle.OracleLRU`),
and through the scalar pricing reference
(:mod:`tests.memsim.price_oracle`); every :class:`KernelStats` record
must match field for field, on a fresh device and on one reused across
batches as ``EpochCostModel`` does.
"""

import dataclasses

import pytest

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.memsim.access import AccessTrace
from repro.memsim.device import GPUDevice, GTX_1080
from repro.memsim.profiler import Profiler
from repro.models.kernel_plans import batch_launches, simulate_batch
from repro.models.runtime import BaselineRuntime, MegaRuntime
from tests.memsim import price_oracle
from tests.memsim.lru_oracle import OracleLRU

DIM, LAYERS = 128, 2


def _runtime(graphs, kind):
    batch = GraphBatch(graphs)
    if kind == "baseline":
        return BaselineRuntime(batch)
    return MegaRuntime(batch, [PathRepresentation.from_graph(g, MegaConfig())
                               for g in graphs])


@pytest.fixture(scope="module")
def graphs():
    return load_dataset("ZINC", scale=0.02).train


def _oracle_device():
    device = GPUDevice(GTX_1080)
    device.l2 = OracleLRU(GTX_1080.l2_bytes, GTX_1080.sector_bytes,
                          GTX_1080.l2_associativity)
    return device


def _kernel_by_kernel(model, runtime, device):
    return [device.run_kernels([launch])[0] for launch in batch_launches(
        model, runtime, device.spec, DIM, LAYERS)]


def _fields(records):
    return [dataclasses.astuple(record) for record in records]


@pytest.mark.parametrize("model", ["GCN", "GT", "GAT"])
@pytest.mark.parametrize("kind", ["baseline", "mega"])
def test_fresh_device_matches_kernel_by_kernel(graphs, model, kind):
    runtime = _runtime(graphs[:16], kind)
    batched = simulate_batch(model, runtime, GPUDevice(GTX_1080), DIM, LAYERS,
                             include_h2d=False)
    reference = _kernel_by_kernel(model, runtime, _oracle_device())
    assert _fields(batched.records) == _fields(reference)


@pytest.mark.parametrize("model", ["GCN", "GT", "GAT"])
@pytest.mark.parametrize("kind", ["baseline", "mega"])
def test_reused_device_matches_kernel_by_kernel(graphs, model, kind):
    """Two batches on one device: the second starts from a warm L2 that
    the first overflowed, so the eviction walk decides its hits."""
    first, second = (_runtime(graphs[:64], kind),
                     _runtime(graphs[64:128], kind))
    device, oracle = GPUDevice(GTX_1080), _oracle_device()
    profiler = Profiler()
    reference = []
    for runtime in (first, second):
        simulate_batch(model, runtime, device, DIM, LAYERS,
                       profiler=profiler, include_h2d=False)
        reference += _kernel_by_kernel(model, runtime, oracle)
    assert _fields(profiler.records) == _fields(reference)
    assert device.l2.occupancy == oracle.l2.occupancy
    # More misses than lines in the cache: something was evicted.
    assert oracle.l2.misses > GTX_1080.l2_bytes // GTX_1080.sector_bytes


def _distinct_traces(launches):
    return len({id(trace) for launch in launches
                for trace in (launch.loads, launch.stores)
                if trace is not None and trace.num_accesses})


def _copied(launch):
    """The same launch with content-equal but distinct trace objects."""
    def copy(trace):
        return None if trace is None else AccessTrace(
            trace.addresses.copy(), trace.lengths.copy())
    return dataclasses.replace(launch, loads=copy(launch.loads),
                               stores=copy(launch.stores))


@pytest.mark.parametrize("model", ["GCN", "GT", "GAT"])
@pytest.mark.parametrize("kind", ["baseline", "mega"])
def test_pricing_matches_scalar_oracle(graphs, model, kind):
    """A small batch on a fresh device, then two that overflow the L2."""
    device = GPUDevice(GTX_1080)
    oracle_l2 = OracleLRU(GTX_1080.l2_bytes, GTX_1080.sector_bytes,
                          GTX_1080.l2_associativity)
    got, want = [], []
    for lo, hi in ((0, 7), (7, 71), (71, 135)):
        launches = batch_launches(model, _runtime(graphs[lo:hi], kind),
                                  GTX_1080, DIM, LAYERS)
        got += device.run_kernels(launches)
        want += price_oracle.run_kernels(GTX_1080, oracle_l2, launches)
    assert _fields(got) == _fields(want)
    assert oracle_l2.misses > GTX_1080.l2_bytes // GTX_1080.sector_bytes


@pytest.mark.parametrize("model", ["GCN", "GT", "GAT"])
@pytest.mark.parametrize("kind", ["baseline", "mega"])
def test_layers_share_one_plan(graphs, model, kind):
    """The L2 pass expands each distinct trace once, so a deeper model
    must reuse its layer plan's trace objects rather than rebuild them
    (the readout's last two launches are built per batch)."""
    runtime = _runtime(graphs[:7], kind)
    one, four = (batch_launches(model, runtime, GTX_1080, DIM, layers)
                 for layers in (1, 4))
    assert _distinct_traces(one[:-2]) == _distinct_traces(four[:-2])
    assert len(four) > len(one)


@pytest.mark.parametrize("model", ["GCN", "GT", "GAT"])
@pytest.mark.parametrize("kind", ["baseline", "mega"])
def test_equal_copies_price_as_one_object(graphs, model, kind):
    """Grouping traces by identity is an optimisation, not a meaning:
    content-equal copies give the records the shared objects give."""
    shared, copies = GPUDevice(GTX_1080), GPUDevice(GTX_1080)
    got, want = [], []
    for lo, hi in ((0, 7), (7, 71)):
        launches = batch_launches(model, _runtime(graphs[lo:hi], kind),
                                  GTX_1080, DIM, LAYERS)
        copied = [_copied(launch) for launch in launches]
        assert _distinct_traces(copied) > _distinct_traces(launches)
        got += shared.run_kernels(launches)
        want += copies.run_kernels(copied)
    assert _fields(got) == _fields(want)
