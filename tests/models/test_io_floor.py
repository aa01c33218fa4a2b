"""Lower bounds on the simulated clock that hold for any exact model.

Two invariants bound a batch's pricing from below, independently of the
reference oracles the differential tests compare against:

* on a cold device every distinct sector's first touch misses, so a
  batch's L2 misses are at least its distinct sectors, and exactly that
  when no set receives more distinct sectors than it has ways;
* a kernel runs no faster than its roofline: its flops at peak, or its
  DRAM bytes at full bandwidth.

Two metamorphic properties relate pricings to each other:

* adding a graph to a batch never lowers its simulated time;
* doubling ``l2_bytes`` and ``l2_associativity`` together keeps the set
  count, so by LRU inclusion it never adds misses, and never adds time.

The misses half holds for any batch and geometry.  Both time
properties hold over ZINC batches on caches of 8 KB and more, but not
for every tiny input: the pricing rewards contiguity per run, so extra
rows that fill a gap, or hits that split a run of misses, can move a
kernel's time the other way.  The two ``test_*_counterexample`` tests
pin one such case each.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph
from repro.memsim.access import sector_lines, sequential_trace
from repro.memsim.device import DEVICE_PRESETS, GTX_1080, GPUDevice
from repro.models.kernel_plans import batch_launches, simulate_batch
from repro.models.runtime import BaselineRuntime, MegaRuntime
from tests.strategies import batches

DIM, LAYERS = 16, 2

#: ZINC graphs the metamorphic properties draw batches from.
POOL = 64

setups = dict(
    preset=st.sampled_from(sorted(DEVICE_PRESETS)),
    mega=st.booleans(),
    model=st.sampled_from(["GCN", "GT", "GAT"]))
cases = dict(members=batches(), **setups)
picks = st.lists(st.integers(0, POOL - 1), min_size=1, max_size=40)


def _runtime(members, mega, paths=None):
    batch = GraphBatch(members)
    if not mega:
        return BaselineRuntime(batch)
    if paths is None:
        paths = [PathRepresentation.from_graph(g, MegaConfig())
                 for g in members]
    return MegaRuntime(batch, paths)


@functools.lru_cache(maxsize=None)
def _zinc():
    """The first :data:`POOL` ZINC training graphs and their paths."""
    graphs = load_dataset("ZINC", scale=0.02).train[:POOL]
    return graphs, [PathRepresentation.from_graph(g, MegaConfig())
                    for g in graphs]


def _price(spec, members, mega, model, paths=None):
    """``(simulated time, L2 misses)`` of one batch on a cold device."""
    profiler = simulate_batch(model, _runtime(members, mega, paths),
                              GPUDevice(spec), DIM, LAYERS)
    return (profiler.total_time,
            sum(record.l2_misses for record in profiler.records))


def _zinc_price(spec, indices, mega, model):
    graphs, paths = _zinc()
    return _price(spec, [graphs[i] for i in indices], mega, model,
                  [paths[i] for i in indices])


def _doubled(spec):
    """``spec`` with twice the L2 bytes and ways: the same set count."""
    return dataclasses.replace(spec, l2_bytes=2 * spec.l2_bytes,
                               l2_associativity=2 * spec.l2_associativity)


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


@settings(max_examples=150, deadline=None)
@given(indices=picks, extra=st.integers(0, POOL - 1), **setups)
def test_adding_a_graph_never_lowers_simulated_time(indices, extra, preset,
                                                    mega, model):
    spec = DEVICE_PRESETS[preset]
    before, _ = _zinc_price(spec, indices, mega, model)
    after, _ = _zinc_price(spec, indices + [extra], mega, model)
    assert after >= before


@settings(max_examples=100, deadline=None)
@given(indices=picks, shrink=st.integers(0, 6),
       ways=st.sampled_from([1, 2, 4, 8, 16]), **setups)
def test_doubling_l2_ways_never_adds_misses_or_time(indices, shrink, ways,
                                                    preset, mega, model):
    """Scaled-down geometries (down to 1/64 of the preset's L2) make the
    batches evict."""
    spec = DEVICE_PRESETS[preset]
    small = dataclasses.replace(spec, l2_bytes=spec.l2_bytes >> shrink,
                                l2_associativity=ways)
    time_small, misses_small = _zinc_price(small, indices, mega, model)
    time_big, misses_big = _zinc_price(_doubled(small), indices, mega,
                                       model)
    assert misses_big <= misses_small
    assert time_big <= time_small


@settings(max_examples=60, deadline=None)
@given(sets=st.sampled_from([1, 2, 4, 8]), ways=st.sampled_from([1, 2, 4]),
       **cases)
def test_doubling_l2_ways_never_adds_misses_on_tiny_caches(
        members, sets, ways, preset, mega, model):
    small = dataclasses.replace(
        DEVICE_PRESETS[preset],
        l2_bytes=DEVICE_PRESETS[preset].sector_bytes * sets * ways,
        l2_associativity=ways)
    _, misses_small = _price(small, members, mega, model)
    _, misses_big = _price(_doubled(small), members, mega, model)
    assert misses_big <= misses_small


def test_adding_a_graph_counterexample():
    """A second one-edge graph fills the gap in the first one's scatter
    gather (sectors 0 and 2 become one run 0-1-2), which the per-run
    pricing makes cheaper than the gather it extends."""
    spec = DEVICE_PRESETS["a100"]
    edge = Graph(2, [0], [1])
    one, _ = _price(spec, [edge], False, "GCN")
    two, _ = _price(spec, [edge, edge.copy()], False, "GCN")
    assert two < one


def test_doubling_l2_ways_counterexample():
    """On a two-set cache the doubled L2 takes fewer misses, but the
    hits split runs of misses, and short runs pay the row activation
    more often."""
    small = dataclasses.replace(GTX_1080, l2_bytes=512, l2_associativity=2)
    empty = [Graph(0, [], [])]
    time_small, misses_small = _price(small, empty, False, "GAT")
    time_big, misses_big = _price(_doubled(small), empty, False, "GAT")
    assert misses_big < misses_small and time_big > time_small
