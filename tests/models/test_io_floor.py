"""Lower bounds on the simulated clock that hold for any exact model.

Two invariants bound a batch's pricing from below, independently of the
reference oracles the differential tests compare against:

* on a cold device every distinct sector's first touch misses, so a
  batch's L2 misses are at least its distinct sectors, and exactly that
  when no set receives more distinct sectors than it has ways;
* a kernel runs no faster than its roofline: its flops at peak, or its
  DRAM bytes at full bandwidth.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.graph.batch import GraphBatch
from repro.memsim.access import sector_lines, sequential_trace
from repro.memsim.device import DEVICE_PRESETS, GPUDevice
from repro.models.kernel_plans import batch_launches, simulate_batch
from repro.models.runtime import BaselineRuntime, MegaRuntime
from tests.strategies import batches

DIM, LAYERS = 16, 2

cases = dict(
    members=batches(),
    preset=st.sampled_from(sorted(DEVICE_PRESETS)),
    mega=st.booleans(),
    model=st.sampled_from(["GCN", "GT", "GAT"]))


def _runtime(members, mega):
    batch = GraphBatch(members)
    if not mega:
        return BaselineRuntime(batch)
    return MegaRuntime(batch, [PathRepresentation.from_graph(g, MegaConfig())
                               for g in members])


@settings(max_examples=100, deadline=None)
@given(**cases)
def test_cold_misses_are_at_least_the_distinct_sectors(members, preset,
                                                        mega, model):
    spec = DEVICE_PRESETS[preset]
    runtime = _runtime(members, mega)
    device = GPUDevice(spec)
    records = simulate_batch(model, runtime, device, DIM, LAYERS,
                             include_h2d=False).records
    traces = [trace for launch in batch_launches(model, runtime, spec, DIM,
                                                 LAYERS)
              for trace in (launch.loads, launch.stores)
              if trace is not None]
    distinct = np.unique(sector_lines(traces, spec.sector_bytes)[0])
    misses = sum(record.l2_misses for record in records)
    assert misses >= len(distinct)
    per_set = np.bincount(distinct % device.l2.num_sets)
    if per_set.max(initial=0) <= spec.l2_associativity:
        assert misses == len(distinct)


@settings(max_examples=100, deadline=None)
@given(**cases)
def test_kernels_run_no_faster_than_their_roofline(members, preset, mega,
                                                    model):
    spec = DEVICE_PRESETS[preset]
    records = simulate_batch(model, _runtime(members, mega),
                             GPUDevice(spec), DIM, LAYERS).records
    for record in records:
        floor = max(record.flops / spec.peak_flops,
                    record.dram_bytes / spec.dram_bandwidth)
        assert record.time_s >= floor, record


@pytest.mark.parametrize("preset", sorted(DEVICE_PRESETS))
def test_an_overflowing_batch_misses_more_than_its_distinct_sectors(preset):
    """The bound is strict once sets evict: a stream twice the L2,
    swept twice, misses on both sweeps."""
    spec = DEVICE_PRESETS[preset]
    sweep = sequential_trace(0, 2 * spec.l2_bytes)
    stats = GPUDevice(spec).run_kernel("sweep", 0.0, loads=sweep,
                                       stores=sweep)
    assert stats.l2_misses == 2 * (2 * spec.l2_bytes // spec.sector_bytes)
