"""The clustered event loop: determinism, failover, degeneracy, edges.

The tier-1 contract for ``repro.cluster``:

* same seed (requests *and* faults) -> byte-identical
  ``ClusterStats.as_dict()``;
* every request ends served or as a typed failure — never silently
  dropped;
* one replica is single-node serving: its ``single_node()`` view
  equals the retired single-server loop, stat for stat.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, TierStats
from repro.errors import ClusterError, ReproError
from repro.pipeline import ScheduleCache
from repro.pipeline.hashing import schedule_cache_key
from repro.pipeline.parallel import compute_schedule
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import (
    ArrivalProcess,
    BatchingPolicy,
    ServerConfig,
    generate_requests,
)
from tests.serve.single_server_oracle import InferenceServer

RETRY = RetryPolicy(max_attempts=3)


def stats_bytes(stats) -> str:
    return json.dumps(stats.as_dict(), sort_keys=True)


replica_ids = st.lists(st.integers(0, 2), max_size=3, unique=True).map(tuple)

#: Random fault plans over every cluster-facing knob: rate-driven and
#: pinned crashes, recovery with jitter, and pinned or rolled stragglers.
fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**16),
    replica_failure_rate=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
    crash_replicas=replica_ids,
    crash_after_batches=st.integers(0, 4),
    recover_after_s=st.sampled_from([-1.0, 0.0, 0.005, 0.05]),
    recover_jitter_s=st.sampled_from([0.0, 0.01]),
    slow_replicas=replica_ids,
    slow_factor=st.sampled_from([1.0, 2.0, 8.0]),
    slow_rate=st.sampled_from([0.0, 0.3]))

#: Breaker and brownout settings the fault plans run against.
health_configs = st.fixed_dictionaries({
    "breaker_threshold": st.integers(0, 3),
    "breaker_cooldown_s": st.sampled_from([0.0, 0.01, 0.05]),
    "brownout_watermark": st.sampled_from([0.0, 0.5, 1.0]),
})


class TestDeterministicReplay:
    def test_fault_free_replay_is_byte_identical(self, make_cluster,
                                                 make_requests):
        first = make_cluster().run(make_requests(), retry_policy=RETRY)
        second = make_cluster().run(make_requests(), retry_policy=RETRY)
        assert stats_bytes(first.stats) == stats_bytes(second.stats)

    def test_seeded_crash_replay_is_byte_identical(self, make_cluster,
                                                   make_requests):
        plan = FaultPlan(seed=0, crash_replicas=(1,),
                         crash_after_batches=2)
        runs = [make_cluster(fault_plan=plan).run(make_requests(),
                                                  retry_policy=RETRY)
                for _ in range(2)]
        assert runs[0].stats.crashed_replicas == 1
        assert stats_bytes(runs[0].stats) == stats_bytes(runs[1].stats)

    def test_different_seed_changes_the_run(self, make_cluster,
                                            make_requests):
        a = make_cluster().run(make_requests(seed=0), retry_policy=RETRY)
        b = make_cluster().run(make_requests(seed=1), retry_policy=RETRY)
        assert stats_bytes(a.stats) != stats_bytes(b.stats)

    def test_rate_driven_crashes_replay(self, make_cluster,
                                        make_requests):
        # Seeded probabilistic crashes (not pinned) are just as
        # replayable: the roll is a pure function of (seed, site).
        plan = FaultPlan(seed=7, replica_failure_rate=0.08)
        a = make_cluster(fault_plan=plan).run(make_requests(),
                                              retry_policy=RETRY)
        b = make_cluster(fault_plan=plan).run(make_requests(),
                                              retry_policy=RETRY)
        assert stats_bytes(a.stats) == stats_bytes(b.stats)


class TestNoSilentDrops:
    def assert_accounted(self, stats):
        assert stats.received == stats.served + stats.failed + stats.shed
        assert stats.attempts == stats.admitted + stats.rejected
        assert len(stats.failures) == stats.failed
        assert len(stats.sheds) == stats.shed
        assert len(stats.latencies_s) == stats.served

    def test_fault_free_run_serves_everything(self, make_cluster,
                                              make_requests):
        result = make_cluster().run(make_requests(), retry_policy=RETRY)
        self.assert_accounted(result.stats)
        assert result.stats.failed == 0
        assert result.stats.served == 64

    def test_crash_run_accounts_for_every_request(self, make_cluster,
                                                  make_requests):
        plan = FaultPlan(seed=0, crash_replicas=(0, 1),
                         crash_after_batches=1)
        result = make_cluster(fault_plan=plan).run(make_requests(),
                                                   retry_policy=RETRY)
        stats = result.stats
        self.assert_accounted(stats)
        assert stats.crashed_replicas == 2
        assert {f.reason for f in stats.failures} <= {
            "retry-budget-exhausted", "replica-crash",
            "no-replicas-alive"}

    def test_failed_request_surfaces_typed_error(self, make_cluster,
                                                 make_requests):
        # No retry budget: evacuated requests fail immediately.
        plan = FaultPlan(seed=0, crash_replicas=(0, 1, 2),
                         crash_after_batches=0)
        result = make_cluster(fault_plan=plan).run(make_requests())
        stats = result.stats
        self.assert_accounted(stats)
        assert stats.failed > 0
        failure = stats.failures[0]
        with pytest.raises(ClusterError, match=failure.reason):
            result.response_for(failure.request_id)
        # ClusterError is a ReproError: callers can catch broadly.
        with pytest.raises(ReproError):
            result.response_for(failure.request_id)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plan=fault_plans, health=health_configs,
           request_seed=st.integers(0, 3),
           retry=st.sampled_from([None, RETRY]))
    def test_random_fault_plans_account_for_every_request(
            self, make_cluster, make_requests, plan, health, request_seed,
            retry):
        result = make_cluster(fault_plan=plan, **health).run(
            make_requests(num=32, seed=request_seed), retry_policy=retry)
        self.assert_accounted(result.stats)
        assert result.stats.received == 32

    def test_unknown_request_id_is_typed_too(self, make_cluster,
                                             make_requests):
        result = make_cluster().run(make_requests(num=4),
                                    retry_policy=RETRY)
        with pytest.raises(ClusterError, match="never submitted"):
            result.response_for(999)


class TestFailover:
    def test_evacuated_requests_get_served_elsewhere(self, make_cluster,
                                                     make_requests):
        plan = FaultPlan(seed=0, crash_replicas=(1,),
                         crash_after_batches=2)
        result = make_cluster(fault_plan=plan).run(make_requests(),
                                                   retry_policy=RETRY)
        stats = result.stats
        assert stats.crashed_replicas == 1
        assert stats.failovers > 0
        assert stats.failed == 0             # budget covered the crash
        assert stats.served == stats.received
        crashed = [r for r in stats.replicas if r.crashed]
        assert len(crashed) == 1
        assert crashed[0].replica_id == 1
        assert crashed[0].crashed_at_s >= 0.0

    def test_rebalance_cost_is_vnodes_per_crash(self, make_cluster,
                                                make_requests):
        plan = FaultPlan(seed=0, crash_replicas=(1,),
                         crash_after_batches=2)
        result = make_cluster(fault_plan=plan, vnodes=32).run(
            make_requests(), retry_policy=RETRY)
        assert result.stats.rebalanced_arcs == 32

    def test_rehash_under_churn_keeps_serving(self, make_cluster,
                                              make_requests):
        # Two of four replicas die mid-run; survivors absorb the keys
        # and the stream still completes without failures.
        plan = FaultPlan(seed=0, crash_replicas=(0, 2),
                         crash_after_batches=1)
        result = make_cluster(replicas=4, fault_plan=plan).run(
            make_requests(num=96), retry_policy=RETRY)
        stats = result.stats
        assert stats.crashed_replicas == 2
        assert stats.received == stats.served + stats.failed
        survivors = [r for r in stats.replicas if not r.crashed]
        assert sum(r.stats.served for r in survivors) == stats.served \
            - sum(r.stats.served for r in stats.replicas if r.crashed)
        assert stats.served > 0

    def test_all_replicas_down_fails_the_tail_loudly(self, make_cluster,
                                                     make_requests):
        plan = FaultPlan(seed=0, crash_replicas=(0, 1, 2),
                         crash_after_batches=0)
        result = make_cluster(fault_plan=plan).run(make_requests(),
                                                   retry_policy=RETRY)
        stats = result.stats
        assert stats.crashed_replicas == 3
        assert stats.served == 0
        assert stats.failed == stats.received
        assert "no-replicas-alive" in {f.reason for f in stats.failures}

    def test_crashed_replica_serves_nothing_after_crash(self,
                                                        make_cluster,
                                                        make_requests):
        plan = FaultPlan(seed=0, crash_replicas=(1,),
                         crash_after_batches=0)
        result = make_cluster(fault_plan=plan).run(make_requests(),
                                                   retry_policy=RETRY)
        crashed = next(r for r in result.stats.replicas if r.crashed)
        # crash_after_batches=0: died before launching anything.
        assert crashed.stats.served == 0
        assert len(crashed.stats.batches) == 0


class TestDegeneracy:
    """Single-node serving is a one-replica cluster.

    The retired single-server loop (``tests/serve/single_server_oracle``)
    is the oracle: over drawn server knobs, arrival streams, retry
    budgets and cache backings, the cluster's
    :meth:`~repro.cluster.ClusterStats.single_node` view and every
    response — order, batch, completion time, prediction — equal the
    oracle's.
    """

    @staticmethod
    def assert_matches_single_server(model, requests, server_config,
                                     retry=None, single_cache=None,
                                     cluster_cache=None):
        """Run both loops on ``requests``; return the oracle's result."""
        single = InferenceServer(model, config=server_config,
                                 cache=single_cache) \
            .run(requests, retry_policy=retry)
        clustered = Cluster(model, ClusterConfig(
            num_replicas=1, server=server_config),
            cache=cluster_cache).run(requests, retry_policy=retry)
        assert json.dumps(clustered.stats.single_node().as_dict(),
                          sort_keys=True) == \
            json.dumps(single.stats.as_dict(), sort_keys=True)
        assert clustered.stats.served == single.stats.served
        assert [(r.request_id, r.batch_id, r.completed_s)
                for r in clustered.responses] == \
            [(r.request_id, r.batch_id, r.completed_s)
             for r in single.responses]
        for ours, theirs in zip(clustered.responses, single.responses):
            assert ours.prediction.tobytes() == theirs.prediction.tobytes()
        return single

    @given(capacity=st.integers(1, 64), max_batch=st.integers(1, 8),
           max_wait_s=st.floats(0.001, 0.02),
           kind=st.sampled_from(["poisson", "bursty"]),
           rate_rps=st.floats(100.0, 20000.0),
           seed=st.integers(0, 9), retries=st.integers(0, 3),
           on_disk=st.booleans())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_node_matches_single_server(
            self, model, pool, capacity, max_batch, max_wait_s, kind,
            rate_rps, seed, retries, on_disk):
        server_config = ServerConfig(
            queue_capacity=capacity,
            policy=BatchingPolicy(max_batch_size=max_batch,
                                  max_wait_s=max_wait_s, bucket_width=16))
        requests = generate_requests(
            pool, 32, ArrivalProcess(kind=kind, rate_rps=rate_rps,
                                     seed=seed))
        retry = (RetryPolicy(max_attempts=retries + 1,
                             backoff_base_s=0.002) if retries else None)
        with tempfile.TemporaryDirectory() as tmp:
            def disk(name):
                return ScheduleCache(Path(tmp) / name) if on_disk else None

            self.assert_matches_single_server(
                model, requests, server_config, retry,
                disk("single"), disk("cluster"))

    def test_single_replica_matches_single_server(self, model,
                                                  make_requests):
        # Queue big enough that no rejection path fires.
        server_config = ServerConfig(
            queue_capacity=64, policy=BatchingPolicy(max_batch_size=8))
        self.assert_matches_single_server(model, make_requests(num=48),
                                          server_config)

    def test_single_replica_matches_single_server_on_disk(
            self, model, make_requests, tmp_path):
        # The single server's disk-only tier against the replica's L1
        # over a disk-backed L2: the serve-local counters still agree.
        server_config = ServerConfig(
            queue_capacity=64, policy=BatchingPolicy(max_batch_size=8))
        self.assert_matches_single_server(
            model, make_requests(num=48), server_config,
            single_cache=ScheduleCache(tmp_path / "single"),
            cluster_cache=ScheduleCache(tmp_path / "cluster"))

    def test_single_replica_matches_under_backpressure(self, model,
                                                       make_requests):
        # Rejections, retries and drops all fire; single_node() folds
        # the fleet's client-side retried and failed back in.
        server_config = ServerConfig(
            queue_capacity=3, policy=BatchingPolicy(
                max_batch_size=2, max_wait_s=0.004, bucket_width=16))
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.002)
        requests = make_requests(num=48, rate_rps=20000.0, kind="bursty")
        single = self.assert_matches_single_server(
            model, requests, server_config, retry)
        assert single.stats.retried > 0 and single.stats.dropped > 0

    def test_single_node_needs_one_replica_record(self, make_cluster,
                                                  make_requests):
        stats = make_cluster(replicas=2).run(make_requests(num=8)).stats
        with pytest.raises(ClusterError, match="exactly one replica"):
            stats.single_node()
        # One replica that crashed and rejoined has two records.
        plan = FaultPlan(seed=0, crash_replicas=(0,),
                         crash_after_batches=1, recover_after_s=0.0)
        healed = make_cluster(replicas=1, fault_plan=plan).run(
            make_requests(num=16), retry_policy=RETRY).stats
        assert len(healed.replicas) == 2
        with pytest.raises(ClusterError, match="exactly one replica"):
            healed.single_node()


class TestRunScopedTierStats:
    def test_each_run_reports_its_own_fleet_tier(self, make_cluster,
                                                 make_requests):
        # Two runs on one cluster share the L2, not the counters: the
        # first result must not move when the second runs, and the
        # second reports its own lookups only.
        cluster = make_cluster(replicas=2)
        requests = make_requests(num=12)
        first = cluster.run(requests).stats
        first_tier = first.tier.as_dict()
        second = cluster.run(requests).stats
        assert first.tier.as_dict() == first_tier
        for stats in (first, second):
            folded = TierStats()
            for record in stats.replicas:
                folded = folded.merge(record.tier)
            assert stats.tier.as_dict() == folded.as_dict()
        assert second.tier.misses == 0
        assert second.tier.lookups == len(requests)

    def test_run_counts_its_own_seeds_and_invalidations(
            self, make_cluster, make_requests, pool):
        cluster = make_cluster(replicas=2)
        config = cluster.mega_config
        old_key, new_key = (schedule_cache_key(g, config) for g in pool[:2])
        entry = compute_schedule(pool[1], config)
        removed = []

        def churn(now_s):
            removed.append(cluster.tiered.invalidate(old_key))
            cluster.tiered.seed(new_key, entry)

        requests = make_requests(num=12)
        first = cluster.run(requests, control_events=[(0.0, churn)]).stats
        second = cluster.run(requests).stats
        third = cluster.run(requests, control_events=[(0.0, churn)]).stats
        # Cold at the first churn; the runs in between cached pool[0].
        assert removed == [(0, 0, 0), (2, 1, 0)]
        assert (first.tier.seeds, first.tier.l2_invalidations) == (1, 0)
        assert (second.tier.seeds, second.tier.l2_invalidations) == (0, 0)
        assert (third.tier.seeds, third.tier.l2_invalidations) == (1, 1)
        assert cluster.tiered.tier.seeds == 2
        assert cluster.tiered.tier.l2_invalidations == 1


class TestPoliciesUnderLoad:
    def test_all_policies_serve_everything(self, make_cluster,
                                           make_requests):
        for policy in ("round-robin", "hash-affinity", "least-queue"):
            result = make_cluster(policy=policy).run(make_requests(),
                                                     retry_policy=RETRY)
            assert result.stats.policy == policy
            assert result.stats.served == 64

    def test_hash_affinity_beats_round_robin_on_l1(self, make_cluster,
                                                   make_requests):
        # The acceptance-criteria comparison: repeat-heavy traffic
        # (64 requests over 6 graphs) rewards content-aware routing.
        affine = make_cluster(policy="hash-affinity").run(
            make_requests(), retry_policy=RETRY)
        blind = make_cluster(policy="round-robin").run(
            make_requests(), retry_policy=RETRY)
        assert affine.stats.tier.l1_hit_rate > \
            blind.stats.tier.l1_hit_rate
        # Any-tier hit rates match: L2 recovers what L1 locality lost.
        assert affine.stats.tier.misses == blind.stats.tier.misses

    def test_least_queue_spreads_load(self, make_cluster, make_requests):
        result = make_cluster(policy="least-queue").run(
            make_requests(), retry_policy=RETRY)
        served = [r.stats.served for r in result.stats.replicas]
        assert all(s > 0 for s in served)


class TestRecovery:
    PLAN = FaultPlan(seed=0, crash_replicas=(1,), crash_after_batches=1,
                     recover_after_s=0.05, recover_jitter_s=0.01)

    def test_replica_rejoins_and_serves_again(self, make_cluster,
                                              make_requests):
        result = make_cluster(fault_plan=self.PLAN).run(
            make_requests(), retry_policy=RETRY)
        stats = result.stats
        assert stats.crashed_replicas == 1
        assert stats.recovered_replicas == 1
        assert stats.served == stats.received
        # One record per incarnation: the dead engine and the rejoin.
        records = [r for r in stats.replicas if r.replica_id == 1]
        assert [(r.incarnation, r.crashed) for r in records] == \
            [(0, True), (1, False)]
        assert records[1].stats.served > 0    # the rejoin did real work

    def test_recovery_reclaims_ring_arcs(self, make_cluster,
                                         make_requests):
        result = make_cluster(fault_plan=self.PLAN).run(
            make_requests(), retry_policy=RETRY)
        # remove() handed arcs out; add() took exactly them back.
        assert result.stats.rebalanced_arcs == 0

    def test_health_machine_walks_the_full_cycle(self, make_cluster,
                                                 make_requests):
        result = make_cluster(fault_plan=self.PLAN).run(
            make_requests(), retry_policy=RETRY)
        machine = result.stats.health["replicas"][1]
        edges = [(t["from"], t["to"]) for t in machine["transitions"]]
        assert edges == [("alive", "crashed"), ("crashed", "recovering"),
                         ("recovering", "alive")]
        assert machine["state"] == "alive"
        assert machine["incarnation"] == 1

    def test_rejoin_starts_with_a_cold_l1(self, make_cluster,
                                          make_requests):
        result = make_cluster(fault_plan=self.PLAN).run(
            make_requests(), retry_policy=RETRY)
        [record] = result.stats.recoveries
        assert record.replica_id == 1 and record.incarnation == 1
        assert record.recovered_at_s > record.crashed_at_s
        assert record.warmup_lookups > 0
        # Cold L1: the first post-rejoin lookup cannot be an L1 hit,
        # so re-warming goes through L2 promotion (the fleet had
        # already computed these schedules).
        assert record.lookups_to_first_l1_hit != 0
        assert record.warmup_l2_hits > 0
        assert record.warmup_lookups == (record.warmup_l1_hits
                                         + record.warmup_l2_hits
                                         + record.warmup_misses)

    def test_recovery_delay_respects_the_plan(self, make_cluster,
                                              make_requests):
        result = make_cluster(fault_plan=self.PLAN).run(
            make_requests(), retry_policy=RETRY)
        [record] = result.stats.recoveries
        gap = record.recovered_at_s - record.crashed_at_s
        assert self.PLAN.recover_after_s <= gap <= \
            self.PLAN.recover_after_s + self.PLAN.recover_jitter_s

    def test_without_recovery_the_crash_stays_permanent(self,
                                                        make_cluster,
                                                        make_requests):
        plan = FaultPlan(seed=0, crash_replicas=(1,),
                         crash_after_batches=1)
        result = make_cluster(fault_plan=plan).run(
            make_requests(), retry_policy=RETRY)
        stats = result.stats
        assert stats.recovered_replicas == 0
        assert stats.recoveries == []
        assert stats.health["replicas"][1]["state"] == "crashed"

    def test_self_healing_replay_is_byte_identical(self, make_cluster,
                                                   make_requests):
        # The acceptance run: crash + recovery + stragglers together,
        # twice, byte for byte.
        plan = FaultPlan(seed=3, crash_replicas=(2,),
                         crash_after_batches=1, recover_after_s=0.04,
                         recover_jitter_s=0.02, slow_replicas=(0,),
                         slow_factor=2.0)
        runs = [make_cluster(fault_plan=plan, breaker_threshold=2,
                             breaker_cooldown_s=0.05).run(
                    make_requests(), retry_policy=RETRY)
                for _ in range(2)]
        assert runs[0].stats.recovered_replicas == 1
        assert stats_bytes(runs[0].stats) == stats_bytes(runs[1].stats)


class TestBrownout:
    PLAN = FaultPlan(seed=0, crash_replicas=(1, 2),
                     crash_after_batches=0)

    def test_sheds_are_typed_and_hinted(self, make_cluster,
                                        make_requests):
        from repro.serve import scale_retry_after

        cluster = make_cluster(fault_plan=self.PLAN,
                               brownout_watermark=0.9,
                               shed_retry_after_s=0.01)
        result = cluster.run(make_requests())
        stats = result.stats
        assert stats.received == stats.served + stats.failed + stats.shed
        assert stats.shed > 0
        # Crashes land one at a time, so sheds see 2 then 1 alive of 3.
        legal_hints = {scale_retry_after(0.01, alive=2, total=3),
                       scale_retry_after(0.01, alive=1, total=3)}
        for shed in stats.sheds:
            assert shed.reason == "shed-capacity"
            assert shed.retry_after_s in legal_hints
        assert stats.sheds[-1].retry_after_s == \
            scale_retry_after(0.01, alive=1, total=3)
        with pytest.raises(ClusterError, match="shed-capacity"):
            result.response_for(stats.sheds[0].request_id)

    def test_admitted_fraction_tracks_capacity(self, make_cluster,
                                               make_requests):
        # 1 of 3 replicas alive under a full brownout: the credit
        # counter admits ~1/3 of the post-crash stream.
        result = make_cluster(fault_plan=self.PLAN,
                              brownout_watermark=1.0,
                              shed_retry_after_s=0.01).run(
            make_requests(num=90))
        stats = result.stats
        shed_fraction = stats.shed / (stats.shed + stats.served)
        assert 0.55 <= shed_fraction <= 0.75

    def test_retry_budget_can_outlive_the_brownout(self, make_cluster,
                                                   make_requests):
        # With recovery AND retries, shed requests come back after the
        # scaled hint — some land after the fleet has healed.
        plan = FaultPlan(seed=0, crash_replicas=(1, 2),
                        crash_after_batches=0, recover_after_s=0.02)
        result = make_cluster(fault_plan=plan, brownout_watermark=0.9,
                              shed_retry_after_s=0.02).run(
            make_requests(), retry_policy=RetryPolicy(max_attempts=6))
        stats = result.stats
        assert stats.shed_events > stats.shed   # retries absorbed some
        assert stats.recovered_replicas == 2
        assert stats.received == stats.served + stats.failed + stats.shed

    def test_brownout_replay_is_byte_identical(self, make_cluster,
                                               make_requests):
        runs = [make_cluster(fault_plan=self.PLAN,
                             brownout_watermark=0.9).run(make_requests())
                for _ in range(2)]
        assert runs[0].stats.shed > 0
        assert stats_bytes(runs[0].stats) == stats_bytes(runs[1].stats)

    def test_disabled_brownout_never_sheds(self, make_cluster,
                                           make_requests):
        result = make_cluster(fault_plan=self.PLAN).run(
            make_requests(), retry_policy=RETRY)
        assert result.stats.shed == 0
        assert result.stats.shed_events == 0


class TestStragglers:
    def test_slow_replica_stretches_latency(self, make_cluster,
                                            make_requests):
        healthy = make_cluster().run(make_requests(), retry_policy=RETRY)
        slowed = make_cluster(
            fault_plan=FaultPlan(slow_replicas=(0,), slow_factor=4.0)) \
            .run(make_requests(), retry_policy=RETRY)
        assert slowed.stats.p99_latency_s > healthy.stats.p99_latency_s
        # Without a breaker nothing trips and nothing is hedged.
        assert slowed.stats.breaker_trips == 0
        assert slowed.stats.hedges == 0

    def test_breaker_trips_and_hedges(self, make_cluster,
                                      make_requests):
        result = make_cluster(
            fault_plan=FaultPlan(slow_replicas=(0,), slow_factor=3.0),
            breaker_threshold=2, breaker_cooldown_s=0.05).run(
            make_requests(), retry_policy=RETRY)
        stats = result.stats
        assert stats.breaker_trips > 0
        assert stats.hedges > 0
        assert stats.served == stats.received   # hedged, not failed
        breaker = stats.health["breakers"][0]
        edges = [(t["from"], t["to"]) for t in breaker["transitions"]]
        assert ("closed", "open") in edges
        # The cooldown elapsed at least once and delivered a probe...
        assert ("open", "half-open") in edges
        # ...which a pinned straggler can only fail.
        assert ("half-open", "open") in edges
        assert breaker["probes"] > 0

    def test_breaker_shifts_load_off_the_straggler(self, make_cluster,
                                                   make_requests):
        plan = FaultPlan(slow_replicas=(0,), slow_factor=3.0)
        guarded = make_cluster(fault_plan=plan, breaker_threshold=2,
                               breaker_cooldown_s=0.2).run(
            make_requests(), retry_policy=RETRY)
        unguarded = make_cluster(fault_plan=plan).run(
            make_requests(), retry_policy=RETRY)

        def straggler_share(stats):
            served = {r.replica_id: r.stats.served for r in stats.replicas}
            return served[0] / stats.served

        assert straggler_share(guarded.stats) < \
            straggler_share(unguarded.stats)

    def test_straggler_replay_is_byte_identical(self, make_cluster,
                                                make_requests):
        plan = FaultPlan(seed=5, slow_rate=0.3, slow_factor=2.5)
        runs = [make_cluster(fault_plan=plan, breaker_threshold=2,
                             breaker_cooldown_s=0.05).run(
                    make_requests(), retry_policy=RETRY)
                for _ in range(2)]
        assert stats_bytes(runs[0].stats) == stats_bytes(runs[1].stats)


class TestDelayComposition:
    """The failover delay at the queue-full boundary (satellite fix).

    The resubmission delay is ``max(scaled replica hint, client
    backoff)`` — deterministic, and monotone in the fleet's lost
    capacity because :func:`~repro.serve.queueing.scale_retry_after`
    is monotone in ``total/alive``.
    """

    def test_scaled_hint_is_monotone_in_lost_capacity(self):
        from repro.serve import scale_retry_after

        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.005)
        delays = []
        for alive in (3, 2, 1):
            hint = scale_retry_after(0.01, alive=alive, total=3)
            delays.append(max(hint, policy.delay(0)))
        assert delays == sorted(delays)           # monotone
        assert delays[0] == max(0.01, policy.delay(0))
        assert delays[-1] == max(0.03, policy.delay(0))
        # Deterministic: same inputs, same composition, every time.
        assert delays == [
            max(scale_retry_after(0.01, alive=a, total=3),
                policy.delay(0)) for a in (3, 2, 1)]

    def test_queue_full_hint_scales_under_lost_capacity(
            self, make_cluster, make_requests):
        # One survivor of three, tiny queue, hot stream: the rejected
        # requests resubmit on the capacity-scaled hint and the run
        # still accounts for everything.
        plan = FaultPlan(seed=0, crash_replicas=(1, 2),
                         crash_after_batches=0)
        result = make_cluster(fault_plan=plan, queue_capacity=2,
                              max_batch=2).run(
            make_requests(num=48, rate_rps=2000.0),
            retry_policy=RetryPolicy(max_attempts=3))
        stats = result.stats
        assert stats.retried > 0
        assert stats.received == stats.served + stats.failed + stats.shed

    def test_exhausted_budget_fails_typed(self, make_cluster,
                                          make_requests):
        # No retry policy: the first rejection is terminal and typed.
        result = make_cluster(replicas=1, queue_capacity=2,
                              max_batch=2).run(
            make_requests(num=48, rate_rps=4000.0))
        stats = result.stats
        assert stats.failed > 0
        assert {f.reason for f in stats.failures} == \
            {"retry-budget-exhausted"}
        with pytest.raises(ClusterError, match="retry-budget-exhausted"):
            result.response_for(stats.failures[0].request_id)


class TestConfigValidation:
    def test_zero_replicas_rejected(self):
        with pytest.raises(ClusterError, match="num_replicas"):
            ClusterConfig(num_replicas=0)

    def test_unknown_policy_rejected_at_config_time(self):
        with pytest.raises(ClusterError, match="unknown load-balance"):
            ClusterConfig(policy="random")

    def test_bad_vnodes_rejected(self):
        with pytest.raises(ClusterError, match="vnodes"):
            ClusterConfig(vnodes=0)

    def test_bad_breaker_knobs_rejected(self):
        with pytest.raises(ClusterError, match="breaker_threshold"):
            ClusterConfig(breaker_threshold=-1)
        with pytest.raises(ClusterError, match="breaker_cooldown_s"):
            ClusterConfig(breaker_cooldown_s=-0.1)

    @pytest.mark.parametrize("plan", [
        FaultPlan(crash_replicas=(7,)),
        FaultPlan(crash_replicas=(0, 3)),
        FaultPlan(slow_replicas=(3,)),
        FaultPlan(slow_replicas=(-1,)),
    ], ids=["crash-7", "crash-3", "slow-3", "slow-negative"])
    def test_fault_pin_outside_the_fleet_rejected(self, model, plan):
        """Such a pin used to be ignored silently (never fired)."""
        pinned = (plan.crash_replicas + plan.slow_replicas)[-1]
        with pytest.raises(ClusterError,
                           match=rf"pins replica {pinned} .*0\.\.2"):
            Cluster(model, ClusterConfig(num_replicas=3), fault_plan=plan)

    def test_bad_brownout_knobs_rejected(self):
        with pytest.raises(ClusterError, match="brownout_watermark"):
            ClusterConfig(brownout_watermark=1.5)
        with pytest.raises(ClusterError, match="shed_retry_after_s"):
            ClusterConfig(shed_retry_after_s=-0.01)


class TestContentKeys:
    def test_a_run_hashes_each_graph_object_once(self, make_cluster, pool,
                                                 monkeypatch):
        """Routing and admission both ask for a request's content key and
        nothing hands it on; the memo answers every call after a graph
        object's first.  (Dispatch used to hash once per attempt.)"""
        from repro.pipeline import hashing

        hashed = []
        fingerprint = hashing.graph_fingerprint
        monkeypatch.setattr(hashing, "graph_fingerprint",
                            lambda g: hashed.append(g) or fingerprint(g))
        graphs = [g.copy() for g in pool]
        requests = generate_requests(
            graphs, 48, ArrivalProcess(kind="poisson", rate_rps=400.0,
                                       seed=0))
        result = make_cluster().run(requests, retry_policy=RETRY)
        assert len(result.responses) == 48
        used = {id(r.graph) for r in requests}
        assert sorted(id(g) for g in hashed) == sorted(used)
