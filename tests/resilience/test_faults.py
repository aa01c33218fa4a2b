"""FaultPlan: deterministic rolls, bounded transients, serialisation."""

import pytest

from repro.errors import ConfigError, FaultInjectionError
from repro.resilience import CORRUPTION_MODES, FaultPlan, corrupt_cache_entry


class TestDeterminism:
    def test_roll_is_pure_function_of_seed_site_coords(self):
        a = FaultPlan(seed=42)
        b = FaultPlan(seed=42)
        assert a.roll("worker", 3, 1) == b.roll("worker", 3, 1)

    def test_roll_varies_with_seed_and_site(self):
        a = FaultPlan(seed=1)
        b = FaultPlan(seed=2)
        assert a.roll("worker", 0) != b.roll("worker", 0)
        assert a.roll("worker", 0) != a.roll("io", 0)

    def test_roll_in_unit_interval(self):
        plan = FaultPlan(seed=9)
        for i in range(50):
            assert 0.0 <= plan.roll("x", i) < 1.0

    def test_decisions_repeat_across_instances(self):
        decisions = [FaultPlan(seed=5, worker_crash_rate=0.5)
                     .should_crash_worker(i, 0) for i in range(20)]
        again = [FaultPlan(seed=5, worker_crash_rate=0.5)
                 .should_crash_worker(i, 0) for i in range(20)]
        assert decisions == again
        assert any(decisions) and not all(decisions)


class TestBoundedness:
    def test_transients_stop_at_max_faults_per_site(self):
        plan = FaultPlan(seed=0, worker_crash_rate=1.0, io_error_rate=1.0,
                         max_faults_per_site=2)
        assert plan.should_crash_worker(0, 0)
        assert plan.should_crash_worker(0, 1)
        assert not plan.should_crash_worker(0, 2)
        assert not plan.should_io_error(7, 5)

    def test_poison_is_unbounded(self):
        plan = FaultPlan(poison_graphs=(4,))
        assert plan.is_poisoned(4)
        assert not plan.is_poisoned(3)

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(seed=11)
        assert not any(plan.should_crash_worker(i, 0) for i in range(100))
        assert not any(plan.node_fails(r, k)
                       for r in range(10) for k in range(10))


class TestSiteDecisions:
    def test_nan_epochs(self):
        plan = FaultPlan(nan_epochs=(2, 5))
        assert plan.nan_loss_at(2) and plan.nan_loss_at(5)
        assert not plan.nan_loss_at(3)

    def test_break_pool_chunk(self):
        assert FaultPlan(break_pool_chunk=1).should_break_pool(1)
        assert not FaultPlan().should_break_pool(0)

    def test_crash_raises_transient(self):
        with pytest.raises(FaultInjectionError, match="io"):
            FaultPlan().crash("io", 3, 0)


class TestReplicaRecovery:
    def test_default_plan_never_recovers(self):
        plan = FaultPlan()
        assert not plan.recovers
        with pytest.raises(ConfigError, match="recovery_delay"):
            plan.recovery_delay(0)

    def test_recovery_delay_is_seeded_and_bounded(self):
        plan = FaultPlan(seed=4, recover_after_s=0.1, recover_jitter_s=0.05)
        assert plan.recovers
        delays = [plan.recovery_delay(rid, inc)
                  for rid in range(4) for inc in range(3)]
        assert delays == [FaultPlan(seed=4, recover_after_s=0.1,
                                    recover_jitter_s=0.05)
                          .recovery_delay(rid, inc)
                          for rid in range(4) for inc in range(3)]
        assert all(0.1 <= d <= 0.15 for d in delays)
        assert len(set(delays)) > 1      # jitter actually spreads them

    def test_zero_recover_after_is_immediate_recovery(self):
        plan = FaultPlan(recover_after_s=0.0)
        assert plan.recovers
        assert plan.recovery_delay(1) == 0.0

    def test_pinned_crash_fires_only_in_first_incarnation(self):
        plan = FaultPlan(crash_replicas=(1,), crash_after_batches=2)
        assert not plan.replica_fails(1, 1, incarnation=0)
        assert plan.replica_fails(1, 2, incarnation=0)
        # The recovered incarnation is not stuck in a crash loop.
        assert not plan.replica_fails(1, 5, incarnation=1)

    def test_rate_crashes_roll_per_lifetime_batch(self):
        plan = FaultPlan(seed=6, replica_failure_rate=0.3)
        decisions = [plan.replica_fails(0, b) for b in range(40)]
        assert any(decisions) and not all(decisions)
        assert decisions == [plan.replica_fails(0, b) for b in range(40)]


class TestStragglerInjection:
    def test_pinned_stragglers_always_stretch(self):
        plan = FaultPlan(slow_replicas=(2,), slow_factor=3.0)
        assert plan.service_multiplier(2, 0) == 3.0
        assert plan.service_multiplier(2, 17) == 3.0
        assert plan.service_multiplier(0, 0) == 1.0

    def test_rate_stragglers_are_seeded(self):
        plan = FaultPlan(seed=8, slow_rate=0.4, slow_factor=2.0)
        scales = [plan.service_multiplier(1, b) for b in range(40)]
        assert set(scales) == {1.0, 2.0}
        assert scales == [plan.service_multiplier(1, b)
                          for b in range(40)]

    def test_default_plan_never_straggles(self):
        plan = FaultPlan()
        assert all(plan.service_multiplier(r, b) == 1.0
                   for r in range(3) for b in range(20))


class TestValidationAndSerialisation:
    def test_rate_out_of_range(self):
        with pytest.raises(ConfigError):
            FaultPlan(worker_crash_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(cache_corrupt_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(slow_rate=1.2)

    def test_negative_max_faults(self):
        with pytest.raises(ConfigError):
            FaultPlan(max_faults_per_site=-1)

    def test_bad_straggler_and_recovery_knobs(self):
        with pytest.raises(ConfigError, match="slow_factor"):
            FaultPlan(slow_factor=0.5)
        with pytest.raises(ConfigError, match="recover_jitter_s"):
            FaultPlan(recover_jitter_s=-0.1)

    def test_json_round_trip(self):
        plan = FaultPlan(seed=3, worker_crash_rate=0.25, nan_epochs=(1, 4),
                         poison_graphs=(2,), break_pool_chunk=0)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_round_trip_covers_recovery_and_stragglers(self):
        plan = FaultPlan(seed=9, crash_replicas=(0, 2),
                         crash_after_batches=1, recover_after_s=0.25,
                         recover_jitter_s=0.1, slow_replicas=(1,),
                         slow_factor=2.5, slow_rate=0.05)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        # Tuples survive the JSON list round-trip.
        assert restored.slow_replicas == (1,)
        assert restored.crash_replicas == (0, 2)
        # And the restored plan makes the same decisions.
        assert restored.recovery_delay(2, 1) == plan.recovery_delay(2, 1)
        assert [restored.service_multiplier(1, b) for b in range(10)] \
            == [plan.service_multiplier(1, b) for b in range(10)]

    def test_to_dict_includes_every_field(self):
        data = FaultPlan().to_dict()
        for name in ("recover_after_s", "recover_jitter_s",
                     "slow_replicas", "slow_factor", "slow_rate"):
            assert name in data

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            FaultPlan.from_dict({"seed": 1, "typo_rate": 0.5})
        with pytest.raises(ConfigError, match="unknown"):
            FaultPlan.from_dict({"recover_after": 0.5})   # typo'd name

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_json("not json {")

    def test_from_json_rejects_a_non_object(self):
        """Regression: ``'[]'`` escaped as a ``TypeError``."""
        with pytest.raises(ConfigError, match="JSON object"):
            FaultPlan.from_json("[]")

    def test_from_json_rejects_a_string_seed(self):
        """Regression: ``{"seed": "x"}`` was accepted, and it rolled."""
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan.from_json('{"seed": "x"}')

    def test_from_json_rejects_a_fractional_seed(self):
        """Regression: ``{"seed": 1.5}`` was accepted."""
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan.from_json('{"seed": 1.5}')

    def test_from_json_rejects_a_string_rate(self):
        """Regression: a string rate died as a ``TypeError`` inside
        ``__post_init__``."""
        with pytest.raises(ConfigError, match="io_error_rate"):
            FaultPlan.from_json('{"io_error_rate": "x"}')

    def test_from_dict_rejects_ill_typed_tuples_and_booleans(self):
        with pytest.raises(ConfigError, match="nan_epochs"):
            FaultPlan.from_dict({"nan_epochs": [1.5]})
        with pytest.raises(ConfigError, match="crash_replicas"):
            FaultPlan.from_dict({"crash_replicas": 1})
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan.from_dict({"seed": True})
        # Integers are real numbers: a JSON ``0`` is a valid rate.
        assert FaultPlan.from_dict({"io_error_rate": 0}).io_error_rate == 0


class _FakeCache:
    """Minimal duck-type of ScheduleCache's disk layout."""

    def __init__(self, directory):
        self.dir = directory

    def payload_path(self, key):
        return self.dir / f"{key}.npz"


class TestCorruptCacheEntry:
    @pytest.fixture
    def cache(self, tmp_path):
        cache = _FakeCache(tmp_path)
        cache.payload_path("k").write_bytes(bytes(range(64)))
        return cache

    def test_truncate_halves_payload(self, cache):
        assert corrupt_cache_entry(cache, "k", "truncate")
        assert len(cache.payload_path("k").read_bytes()) == 32

    def test_flip_changes_one_byte(self, cache):
        before = cache.payload_path("k").read_bytes()
        assert corrupt_cache_entry(cache, "k", "flip")
        after = cache.payload_path("k").read_bytes()
        assert len(after) == len(before)
        assert sum(a != b for a, b in zip(before, after)) == 1

    def test_unlink_removes_payload(self, cache):
        assert corrupt_cache_entry(cache, "k", "unlink")
        assert not cache.payload_path("k").exists()

    def test_tmp_litter_drops_stale_sibling(self, cache):
        assert corrupt_cache_entry(cache, "k", "tmp_litter")
        litter = list(cache.dir.glob("*.tmp.*"))
        assert len(litter) == 1

    def test_missing_payload_returns_false(self, cache):
        assert not corrupt_cache_entry(cache, "absent", "flip")

    def test_unknown_mode_rejected(self, cache):
        with pytest.raises(ConfigError):
            corrupt_cache_entry(cache, "k", "scramble")

    def test_mode_catalogue_matches_docs(self):
        assert CORRUPTION_MODES == ("truncate", "flip", "tmp_litter",
                                    "unlink")
