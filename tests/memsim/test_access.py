"""Memory layout and access-trace expansion."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.memsim.access import (
    AccessTrace,
    MemoryLayout,
    row_gather_trace,
    sector_lines,
    sequential_trace,
)
from repro.memsim.device import GPUDevice


class TestMemoryLayout:
    def test_disjoint_regions(self):
        layout = MemoryLayout()
        a = layout.allocate("a", 1000)
        b = layout.allocate("b", 1000)
        assert b >= a + 1000

    def test_alignment(self):
        layout = MemoryLayout()
        layout.allocate("a", 1)
        assert layout.base("a") % 256 == 0
        assert layout.size("a") == 256

    def test_duplicate_rejected(self):
        layout = MemoryLayout()
        layout.allocate("a", 10)
        with pytest.raises(SimulationError):
            layout.allocate("a", 10)

    def test_unknown_region(self):
        with pytest.raises(SimulationError):
            MemoryLayout().base("missing")

    def test_negative_allocation(self):
        with pytest.raises(SimulationError):
            MemoryLayout().allocate("a", -1)

    def test_total_bytes(self):
        layout = MemoryLayout()
        layout.allocate("a", 100)
        layout.allocate("b", 300)
        assert layout.total_bytes == 256 + 512


class TestAccessTrace:
    def test_total_bytes(self):
        t = AccessTrace(np.array([0, 100]), np.array([50, 20]))
        assert t.total_bytes == 70
        assert t.num_accesses == 2

    def test_shape_mismatch(self):
        with pytest.raises(SimulationError):
            AccessTrace(np.array([0]), np.array([1, 2]))

    def test_sector_expansion_single_row(self):
        t = AccessTrace(np.array([0]), np.array([128]))
        sectors = t.sector_addresses(32)
        assert sectors.tolist() == [0, 32, 64, 96]

    def test_sector_alignment(self):
        # A 4-byte access still produces one full sector.
        t = AccessTrace(np.array([33]), np.array([4]))
        assert t.sector_addresses(32).tolist() == [32]

    def test_sector_spanning(self):
        t = AccessTrace(np.array([30]), np.array([10]))
        assert t.sector_addresses(32).tolist() == [0, 32]

    def test_empty(self):
        t = AccessTrace(np.array([]), np.array([]))
        assert t.sector_addresses(32).size == 0

    def test_invalid_sector_size(self):
        t = AccessTrace(np.array([0]), np.array([1]))
        with pytest.raises(SimulationError):
            t.sector_addresses(0)

    def test_concatenate(self):
        a = AccessTrace(np.array([0]), np.array([8]))
        b = AccessTrace(np.array([64]), np.array([8]))
        c = AccessTrace.concatenate([a, b])
        assert c.num_accesses == 2

    def test_concatenate_skips_empty(self):
        a = AccessTrace(np.array([]), np.array([]))
        out = AccessTrace.concatenate([a, a])
        assert out.num_accesses == 0


class TestTraceBuilders:
    def test_row_gather(self):
        t = row_gather_trace(1000, np.array([0, 3, 1]), 64)
        assert t.addresses.tolist() == [1000, 1192, 1064]
        assert np.all(t.lengths == 64)

    def test_sequential_chunks(self):
        t = sequential_trace(0, 10000, chunk_bytes=4096)
        assert t.num_accesses == 3
        assert t.total_bytes == 10000

    def test_sequential_empty(self):
        assert sequential_trace(0, 0).num_accesses == 0


class TestTypedBoundaries:
    """Malformed traces fail with :class:`SimulationError` at the memsim
    boundary instead of pricing as garbage."""

    def test_negative_row_length_is_rejected_when_priced(self):
        trace = AccessTrace(np.array([0]), np.array([-64]))
        with pytest.raises(SimulationError, match="non-negative"):
            GPUDevice().run_kernel("k", 0.0, loads=trace)

    def test_float_addresses_are_rejected(self):
        with pytest.raises(SimulationError, match="integers"):
            AccessTrace(np.array([0.5]), np.array([4]))

    def test_multidimensional_arrays_are_rejected(self):
        with pytest.raises(SimulationError, match="1-D"):
            AccessTrace(np.zeros((2, 2), dtype=np.int64),
                        np.ones((2, 2), dtype=np.int64))

    def test_zero_chunk_sweep_is_rejected(self):
        with pytest.raises(SimulationError, match="chunk_bytes"):
            sequential_trace(0, 100, chunk_bytes=0)

    def test_negative_memcpy_is_rejected(self):
        with pytest.raises(SimulationError, match="memcpy"):
            GPUDevice().memcpy(-5)

    def test_nan_memcpy_is_rejected(self):
        with pytest.raises(SimulationError, match="memcpy"):
            GPUDevice().memcpy(float("nan"))

    def test_empty_float_arrays_are_an_empty_trace(self):
        assert AccessTrace(np.array([]), np.array([])).num_accesses == 0


class TestSweeps:
    """A sweep holds no arrays, yet reads as the rows it streams."""

    @pytest.mark.parametrize("base, nbytes, chunk", [
        (0, 10000, 4096), (256, 4096, 4096), (100, 999, 64), (33, 7, 5)])
    def test_sweep_expands_like_its_rows(self, base, nbytes, chunk):
        sweep = sequential_trace(base, nbytes, chunk_bytes=chunk)
        rows = AccessTrace(sweep.addresses, sweep.lengths)
        assert sweep.addresses.tolist() == list(range(base, base + nbytes,
                                                      chunk))
        for sector in (32, 128):
            assert (sweep.sector_addresses(sector).tolist()
                    == rows.sector_addresses(sector).tolist())
            assert (sweep.sector_counts(sector).tolist()
                    == rows.sector_counts(sector).tolist())

    def test_expansion_reports_each_trace(self):
        traces = [sequential_trace(0, 1000), row_gather_trace(64, [3, 1], 50),
                  AccessTrace.concatenate([sequential_trace(256, 300),
                                           row_gather_trace(0, [0], 8)])]
        lines, sectors, useful = sector_lines(traces, 128)
        assert sectors.tolist() == [len(t.sector_addresses(128))
                                    for t in traces]
        assert useful.tolist() == [t.total_bytes for t in traces]
        assert (lines * 128).tolist() == np.concatenate(
            [t.sector_addresses(128) for t in traces]).tolist()
