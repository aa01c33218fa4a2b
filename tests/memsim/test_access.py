"""Memory layout and access-trace expansion."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.memsim.access import (
    AccessTrace,
    MemoryLayout,
    row_gather_trace,
    sequential_trace,
)


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
