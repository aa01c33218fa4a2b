"""Trace-locality analysis."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.memsim.access import AccessTrace, row_gather_trace, sequential_trace
from repro.memsim.trace_analysis import analyze_trace


class TestAnalyzeTrace:
    def test_pure_stream(self):
        stats = analyze_trace(sequential_trace(0, 128 * 100), line_bytes=128)
        assert stats.sequential_fraction > 0.95
        assert stats.locality_score > 0.7
        assert stats.reuse_fraction == 0.0

    def test_random_rows_low_score(self):
        rng = np.random.default_rng(0)
        idx = rng.permutation(5000)[:1000]
        stats = analyze_trace(row_gather_trace(0, idx * 7, 128),
                              line_bytes=128)
        assert stats.sequential_fraction < 0.1
        assert stats.locality_score < 0.3

    def test_stream_beats_random(self):
        rng = np.random.default_rng(1)
        idx = rng.permutation(4000)[:800]
        out = {"stream": analyze_trace(sequential_trace(0, 128 * 800)),
               "random": analyze_trace(row_gather_trace(0, idx * 11, 128))}
        assert (out["stream"].locality_score
                > out["random"].locality_score)

    def test_banded_between_stream_and_random(self):
        rng = np.random.default_rng(2)
        base = np.arange(800)
        banded = base + rng.integers(-2, 3, size=800)   # small strides
        idx = rng.permutation(4000)[:800]
        traces = {
            "stream": sequential_trace(0, 128 * 800),
            "banded": row_gather_trace(0, np.clip(banded, 0, None), 128),
            "random": row_gather_trace(0, idx * 11, 128),
        }
        out = {name: analyze_trace(t) for name, t in traces.items()}
        assert (out["stream"].locality_score
                >= out["banded"].locality_score
                > out["random"].locality_score)

    def test_repeat_detection(self):
        trace = AccessTrace(np.zeros(50, dtype=np.int64),
                            np.full(50, 4, dtype=np.int64))
        stats = analyze_trace(trace, line_bytes=128)
        assert stats.repeat_fraction > 0.9
        assert stats.unique_lines == 1

    def test_reuse_distance(self):
        # Pattern A B C A: reuse distance of the second A is 2.
        rows = np.array([0, 10, 20, 0])
        stats = analyze_trace(row_gather_trace(0, rows, 128),
                              line_bytes=128)
        assert stats.median_reuse_distance == 2.0
        assert stats.reuse_fraction == pytest.approx(0.25)

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            analyze_trace(AccessTrace(np.array([], dtype=np.int64),
                                      np.array([], dtype=np.int64)))

    def test_invalid_line_bytes(self):
        with pytest.raises(SimulationError):
            analyze_trace(sequential_trace(0, 100), line_bytes=0)


class TestScheduleReport:
    def test_report_structure(self, molecule):
        from repro.core.analysis import format_schedule_report, schedule_report

        report = schedule_report(molecule)
        assert report["path"]["coverage"] == 1.0
        assert 0 < report["band"]["fill_ratio"] <= 1.0
        text = format_schedule_report(report)
        assert "locality score" in text
        assert "bandwidth" in text

    def test_mega_stride_smaller(self, rng):
        """The band's access stride beats CSR neighbour fetches."""
        from repro.core.analysis import schedule_report
        from repro.graph.generators import erdos_renyi

        g = erdos_renyi(rng, 150, 0.04)
        report = schedule_report(g)
        assert (report["locality"]["mega_mean_stride"]
                < report["locality"]["baseline_mean_stride"])
