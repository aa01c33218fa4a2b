"""Device timing model: the orderings the reproduction depends on."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.memsim.access import (AccessTrace, MemoryLayout, row_gather_trace,
                                 sequential_trace)
from repro.memsim.device import (DEVICE_PRESETS, DeviceSpec, GPUDevice,
                                 GTX_1080, KernelLaunch)
from repro.memsim import kernels
from tests.memsim import price_oracle
from tests.memsim.lru_oracle import OracleLRU


@pytest.fixture
def device():
    return GPUDevice()


@pytest.fixture
def layout():
    lay = MemoryLayout()
    lay.allocate("nodes", 16 * 1024 * 1024)
    lay.allocate("path", 16 * 1024 * 1024)
    lay.allocate("weights", 1024 * 1024)
    lay.allocate("workspace", 64 * 1024 * 1024)
    return lay


class TestSpec:
    def test_peak_flops_positive(self):
        assert GTX_1080.peak_flops > 1e12

    def test_invalid_spec_rejected(self):
        with pytest.raises(SimulationError):
            GPUDevice(DeviceSpec(sector_bytes=0))

    @pytest.mark.parametrize("preset", sorted(DEVICE_PRESETS))
    def test_presets_build(self, preset):
        spec = DEVICE_PRESETS[preset]
        assert dataclasses.replace(spec) == spec
        assert GPUDevice(spec).run_kernel("noop", 1.0).time_s > 0

    @pytest.mark.parametrize("field", [
        "dram_bandwidth_gbs", "l2_bandwidth_gbs", "pcie_bandwidth_gbs",
        "sm_clock_ghz", "num_sms", "flops_per_cycle_per_sm",
        "saturation_items", "atomic_throughput_gops", "gemm_efficiency",
        "l2_bytes"])
    @pytest.mark.parametrize("value", [0, -1, float("nan")])
    def test_non_positive_spec_field_rejected(self, field, value):
        with pytest.raises(SimulationError, match=field):
            DeviceSpec(**{field: value})

    @pytest.mark.parametrize("field", [
        "kernel_launch_us", "row_activation_lines", "l2_gap_penalty",
        "scatter_run_ns"])
    def test_negative_spec_field_rejected(self, field):
        with pytest.raises(SimulationError, match=field):
            DeviceSpec(**{field: -1.0})
        assert getattr(DeviceSpec(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"efficiency": 0.0}, {"efficiency": -0.5}, {"flops": -1.0},
        {"flops": float("nan")}, {"parallel_items": -1}])
    def test_bad_launch_rejected(self, kwargs):
        fields = {"name": "k", "flops": 1.0, **kwargs}
        with pytest.raises(SimulationError):
            KernelLaunch(**fields)


class TestKernelTiming:
    def test_launch_overhead_floor(self, device):
        stats = device.run_kernel("noop", flops=0.0)
        assert stats.time_s == pytest.approx(
            device.spec.kernel_launch_us * 1e-6)

    def test_compute_bound_kernel(self, device):
        stats = device.run_kernel("math", flops=1e9)
        expected = 1e9 / device.spec.peak_flops
        assert stats.time_s >= expected

    def test_random_gather_slower_than_stream(self, device, layout):
        rng = np.random.default_rng(0)
        n_rows, row = 20000, 512
        scattered = row_gather_trace(
            layout.base("nodes"), rng.integers(0, 30000, n_rows), row)
        streamed = sequential_trace(layout.base("path"), n_rows * row)
        t_scatter = device.run_kernel("g", 0.0, loads=scattered).time_s
        device.reset()
        t_stream = device.run_kernel("s", 0.0, loads=streamed).time_s
        assert t_scatter > 2.0 * t_stream

    def test_sorted_gather_faster_than_random(self, device, layout):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 30000, 20000)
        t_rand = device.run_kernel(
            "r", 0.0, loads=row_gather_trace(layout.base("nodes"), idx, 512)
        ).time_s
        device.reset()
        t_sort = device.run_kernel(
            "s", 0.0,
            loads=row_gather_trace(layout.base("nodes"), np.sort(idx), 512)
        ).time_s
        assert t_sort < t_rand

    def test_atomic_stores_cost_more(self, device, layout):
        idx = np.random.default_rng(1).integers(0, 30000, 10000)
        stores = row_gather_trace(layout.base("nodes"), idx, 512)
        t_plain = device.run_kernel("p", 0.0, stores=stores).time_s
        device.reset()
        t_atomic = device.run_kernel("a", 0.0, stores=stores,
                                     atomic_stores=True).time_s
        assert t_atomic > t_plain

    def test_imbalance_stretches_time(self, device, layout):
        loads = sequential_trace(layout.base("nodes"), 4 * 1024 * 1024)
        t1 = device.run_kernel("b", 0.0, loads=loads).time_s
        device.reset()
        t2 = device.run_kernel("b", 0.0,
                               loads=sequential_trace(
                                   layout.base("nodes"), 4 * 1024 * 1024),
                               imbalance=2.0).time_s
        assert t2 > 1.5 * t1

    def test_cache_reuse_speeds_second_pass(self, device, layout):
        small = sequential_trace(layout.base("weights"), 512 * 1024)
        first = device.run_kernel("w", 0.0, loads=small)
        second = device.run_kernel(
            "w", 0.0, loads=sequential_trace(layout.base("weights"),
                                             512 * 1024))
        assert second.l2_misses < first.l2_misses

    def test_sm_efficiency_stream_high_scatter_low(self, device, layout):
        rng = np.random.default_rng(2)
        scattered = row_gather_trace(
            layout.base("nodes"), rng.integers(0, 30000, 20000), 512)
        s1 = device.run_kernel("scatter", 0.0, loads=scattered)
        device.reset()
        streamed = sequential_trace(layout.base("path"), 20000 * 512)
        s2 = device.run_kernel("stream", 0.0, loads=streamed)
        assert s2.sm_efficiency > s1.sm_efficiency
        assert s1.memory_stall_pct > s2.memory_stall_pct


class TestPricingOracle:
    """Array pricing against the scalar per-kernel reference."""

    @staticmethod
    def _launches(layout):
        rng = np.random.default_rng(3)
        scattered = row_gather_trace(layout.base("nodes"),
                                     rng.integers(0, 30000, 5000), 512)
        streamed = sequential_trace(layout.base("path"), 2 * 1024 * 1024)
        weights = sequential_trace(layout.base("weights"), 256 * 1024)
        # One sector touched over and over: every access but the first
        # repeats the previous line.
        repeats = AccessTrace(np.full(300, layout.base("workspace")),
                              np.full(300, 4))
        return [
            KernelLaunch("noop", 0.0),
            KernelLaunch("loads only", 1e6, loads=scattered),
            KernelLaunch("stores only", 0.0, stores=streamed,
                         parallel_items=10),
            KernelLaunch("atomic", 1e5, loads=streamed, stores=scattered,
                         atomic_stores=True, imbalance=2.0),
            KernelLaunch("weights", 1e9, loads=weights, efficiency=0.5,
                         parallel_items=0),
            # Same object and a content-equal copy: L2-resident, no misses.
            KernelLaunch("weights again", 1e9, loads=weights, stores=weights),
            KernelLaunch("weights copy", 2e9, loads=AccessTrace(
                weights.addresses.copy(), weights.lengths.copy()),
                parallel_items=1e9),
            KernelLaunch("repeats", 10.0, loads=repeats, stores=repeats,
                         atomic_stores=True),
            KernelLaunch("empty", 5.0, loads=AccessTrace(
                np.array([], np.int64), np.array([], np.int64))),
        ]

    @pytest.mark.parametrize("preset", sorted(DEVICE_PRESETS))
    def test_edge_launches_match(self, layout, preset):
        spec = DEVICE_PRESETS[preset]
        launches = self._launches(layout)
        got = GPUDevice(spec).run_kernels(launches)
        want = price_oracle.run_kernels(spec, OracleLRU(
            spec.l2_bytes, spec.sector_bytes, spec.l2_associativity),
            launches)
        assert ([dataclasses.astuple(r) for r in got]
                == [dataclasses.astuple(r) for r in want])
        assert got[5].l2_misses == got[6].l2_misses == 0
        assert got[0].load_transactions == got[0].store_transactions == 0

    def test_kernels_price_alike_alone_or_together(self, layout):
        launches = self._launches(layout)
        device = GPUDevice()
        together = GPUDevice().run_kernels(launches)
        alone = [device.run_kernels([launch])[0] for launch in launches]
        assert together == alone


class TestMemcpy:
    def test_pcie_rate(self, device):
        stats = device.memcpy(12e9 / 10)   # 1/10th second of PCIe traffic
        assert stats.time_s == pytest.approx(0.1, rel=0.01)

    def test_counts_as_memory_time(self, device):
        assert device.memcpy(1024).sm_efficiency == 0.0


class TestKernelLibrary:
    """Launch builders run through ``GPUDevice.run_kernels``; the graph
    gathers are built inline from traces, as ``kernel_plans`` does."""

    @staticmethod
    def _run(device, launch):
        return device.run_kernels([launch])[0]

    def test_sgemm_compute_bound_efficiency(self, device, layout):
        stats = self._run(device, kernels.sgemm_launch(
            layout, 8192, 512, 512, device.spec.gemm_efficiency))
        assert stats.sm_efficiency > 0.8
        assert stats.flops == 2.0 * 8192 * 512 * 512

    def test_band_gather_efficient(self, device, layout):
        # MEGA's diagonal gather: each position reads its 2ω+1 band rows.
        length, window, dim = 20000, 3, 128
        rows = np.clip(np.arange(length)[:, None]
                       + np.arange(-window, window + 1), 0, length - 1)
        stats = self._run(device, KernelLaunch(
            "mega::band", float(rows.size * dim),
            loads=row_gather_trace(layout.base("path"), rows.ravel(),
                                   dim * 4),
            stores=sequential_trace(layout.base("workspace"),
                                    length * dim * 4),
            parallel_items=length * dim))
        assert stats.sm_efficiency > 0.5

    def test_gather_kernel_records_transactions(self, device, layout):
        idx = np.arange(1000)
        stats = self._run(device, KernelLaunch(
            "dgl::gather", float(1000 * 128),
            loads=row_gather_trace(layout.base("nodes"), idx, 128 * 4),
            stores=sequential_trace(layout.base("workspace"), 1000 * 128 * 4),
            parallel_items=1000 * 128))
        assert stats.load_transactions == 1000 * (128 * 4 // 128)

    def test_cub_sort_passes(self, device, layout):
        stats = self._run(device, kernels.cub_sort_launch(layout, 10000))
        assert stats.load_transactions > 0

    def test_elementwise_streams(self, device, layout):
        stats = self._run(device, kernels.elementwise_launch(
            layout, "workspace", 10000, 128))
        assert stats.memory_stall_pct < 0.6


class TestReplay:
    def test_no_launches_price_nothing(self):
        assert GPUDevice().run_kernels([]) == []
        assert GPUDevice().replay([], []) == []

    def test_replay_matches_the_expanded_launch_list(self, layout):
        a = kernels.elementwise_launch(layout, "workspace", 100, 64)
        b = kernels.sgemm_launch(layout, 64, 64, 64, 0.8)
        order = [0, 1, 0, 0, 1]
        assert (GPUDevice().replay([a, b], order)
                == GPUDevice().run_kernels([[a, b][i] for i in order]))
