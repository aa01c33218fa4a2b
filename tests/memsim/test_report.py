"""Profiler text reports."""

import pytest

from repro.errors import SimulationError
from repro.memsim.device import KernelStats
from repro.memsim.profiler import Profiler
from repro.memsim.report import compare_profiles, format_profile


def make_stats(name, time_s=1.0, sm=0.5):
    return KernelStats(
        name=name, time_s=time_s, flops=1.0,
        load_transactions=10, store_transactions=5,
        l2_hits=6, l2_misses=4, dram_bytes=100.0,
        sm_efficiency=sm, memory_stall_pct=1 - sm)


@pytest.fixture
def prof():
    p = Profiler()
    p.record(make_stats("sgemm", 1.0, 0.9))
    p.record(make_stats("dgl::gather", 3.0, 0.2))
    return p


class TestFormatProfile:
    def test_contains_kernels_and_totals(self, prof):
        text = format_profile(prof, title="demo")
        assert "=== demo ===" in text
        assert "sgemm" in text and "dgl::gather" in text
        assert "TOTAL" in text

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            format_profile(Profiler())


class TestCompareProfiles:
    def test_speedup_reported(self, prof):
        fast = Profiler()
        fast.record(make_stats("mega::band", 1.0, 0.95))
        text = compare_profiles(prof, fast, names=("dgl", "mega"))
        assert "speedup (mega over dgl): 4.00x" in text
        assert "norm SM efficiency" in text

    def test_empty_rejected(self, prof):
        with pytest.raises(SimulationError):
            compare_profiles(prof, Profiler())
