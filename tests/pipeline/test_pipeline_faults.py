"""Pipeline fault tolerance: injected failures never change the bytes.

Every scenario drives :func:`precompute_paths` through a seeded
:class:`FaultPlan` and asserts the central invariant — recovered runs
produce **byte-identical** schedules and plans to failure-free runs —
plus the loud accounting (retries, degradation, quarantine) in
:class:`PipelineStats`.
"""

import numpy as np
import pytest

from repro.errors import FaultInjectionError, GraphError
from repro.graph.generators import molecular_like
from repro.pipeline import pack_entry, precompute_paths
from repro.resilience import FaultPlan, RetryPolicy

pytestmark = pytest.mark.faultinject


@pytest.fixture(scope="module")
def graphs():
    return [molecular_like(np.random.default_rng(i), 16) for i in range(12)]


def entry_bytes(result, index):
    """Packed schedule bytes plus the derived plan's arrays."""
    packed = pack_entry(result.paths[index].schedule)
    plan = result.plans[index]
    return b"".join(
        [packed[name].tobytes() for name in ("meta", "ints", "flags")]
        + [getattr(plan, name).tobytes()
           for name in ("src_pos", "dst_pos", "edge_ids",
                        "unique_edge_rows", "mirror_index")])


def assert_identical(clean, faulty):
    assert len(clean) == len(faulty)
    for i in range(len(clean)):
        assert entry_bytes(clean, i) == entry_bytes(faulty, i), i


class TestWorkerCrashes:
    def test_crashes_retried_to_byte_identical_output(self, graphs):
        clean = precompute_paths(graphs, workers=2)
        plan = FaultPlan(seed=3, worker_crash_rate=0.5)
        slept = []
        faulty = precompute_paths(graphs, workers=2, fault_plan=plan,
                                  sleep=slept.append)
        assert faulty.stats.retries > 0
        assert slept, "retries must back off"
        assert_identical(clean, faulty)

    def test_backoff_follows_policy_schedule(self, graphs):
        plan = FaultPlan(seed=3, worker_crash_rate=0.5)
        policy = RetryPolicy(backoff_base_s=0.01)
        slept = []
        precompute_paths(graphs, workers=2, fault_plan=plan, retry=policy,
                         sleep=slept.append)
        assert set(slept) <= set(policy.delays())

    def test_unrecoverable_crash_raises_by_default(self, graphs):
        # Faults outlive the retry budget: every attempt of chunk 0 dies.
        plan = FaultPlan(seed=0, worker_crash_rate=1.0,
                         max_faults_per_site=10)
        with pytest.raises((FaultInjectionError, GraphError)):
            precompute_paths(graphs, workers=2, fault_plan=plan,
                             retry=RetryPolicy(max_attempts=2),
                             sleep=lambda s: None)


class TestSerialIOErrors:
    def test_transient_io_retried_and_identical(self, graphs):
        clean = precompute_paths(graphs, workers=1)
        plan = FaultPlan(seed=7, io_error_rate=0.4)
        faulty = precompute_paths(graphs, workers=1, fault_plan=plan,
                                  sleep=lambda s: None)
        assert faulty.stats.retries > 0
        assert_identical(clean, faulty)


class TestDeadExecutor:
    def test_broken_pool_degrades_to_serial(self, graphs):
        clean = precompute_paths(graphs, workers=2)
        plan = FaultPlan(break_pool_chunk=0)
        faulty = precompute_paths(graphs, workers=2, fault_plan=plan)
        assert faulty.stats.degraded_to_serial
        assert "DEGRADED" in faulty.stats.summary_line()
        assert_identical(clean, faulty)


class TestQuarantine:
    def test_poisoned_graph_quarantined_not_fatal(self, graphs):
        plan = FaultPlan(poison_graphs=(3,))
        result = precompute_paths(graphs, workers=2, fault_plan=plan,
                                  sleep=lambda s: None,
                                  on_error="quarantine")
        assert not result.ok
        assert result.paths[3] is None and result.plans[3] is None
        assert [q.index for q in result.stats.quarantined] == [3]
        assert "GraphError" in result.stats.quarantined[0].error
        assert "QUARANTINED" in result.stats.summary_line()
        # Every other graph still computed, byte-identical to clean.
        clean = precompute_paths(graphs, workers=1)
        for i in range(len(graphs)):
            if i != 3:
                assert entry_bytes(clean, i) == entry_bytes(result, i)

    def test_poisoned_graph_raises_by_default(self, graphs):
        plan = FaultPlan(poison_graphs=(3,))
        with pytest.raises(GraphError, match="pathological graph 3"):
            precompute_paths(graphs, workers=1, fault_plan=plan,
                             sleep=lambda s: None)

    def test_on_error_validated(self, graphs):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            precompute_paths(graphs[:2], on_error="ignore")


class TestEverythingAtOnce:
    def test_combined_faults_still_byte_identical(self, graphs):
        clean = precompute_paths(graphs, workers=2)
        plan = FaultPlan(seed=13, worker_crash_rate=0.3,
                         io_error_rate=0.3, break_pool_chunk=1)
        faulty = precompute_paths(graphs, workers=2, fault_plan=plan,
                                  sleep=lambda s: None)
        assert faulty.stats.degraded_to_serial
        assert_identical(clean, faulty)
