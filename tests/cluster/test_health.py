"""The self-healing primitives, exercised without any serving.

State machines, breakers and brownout admission are pure functions of
the timestamps and flags the cluster loop feeds them — so every edge
is reachable from a unit test with hand-picked instants.
"""

import pytest

from repro.cluster import (
    BrownoutController,
    CircuitBreaker,
    FleetHealth,
    ReplicaHealth,
)
from repro.errors import ClusterError
from repro.resilience import FaultPlan


class TestReplicaHealth:
    def test_full_cycle_and_counters(self):
        h = ReplicaHealth(3)
        assert h.state == "alive" and h.routable
        h.mark_crashed(1.0)
        assert h.state == "crashed" and not h.routable
        h.mark_recovering(2.0)
        assert h.state == "recovering" and h.routable
        assert h.incarnation == 1
        h.mark_alive(2.5)
        assert h.state == "alive"
        assert (h.crashes, h.recoveries) == (1, 1)
        edges = [(t.from_state, t.to_state) for t in h.transitions]
        assert edges == [("alive", "crashed"), ("crashed", "recovering"),
                         ("recovering", "alive")]

    def test_recovering_replica_may_crash_again(self):
        h = ReplicaHealth(0)
        h.mark_crashed(1.0)
        h.mark_recovering(2.0)
        h.mark_crashed(2.1)          # died before its first completion
        assert h.state == "crashed"
        assert h.crashes == 2

    def test_illegal_transitions_raise(self):
        h = ReplicaHealth(0)
        with pytest.raises(ClusterError, match="illegal health"):
            h.mark_recovering(0.0)   # alive -> recovering skips crashed
        h.mark_crashed(1.0)
        with pytest.raises(ClusterError, match="illegal health"):
            h.mark_crashed(2.0)
        with pytest.raises(ClusterError, match="illegal health"):
            h.mark_alive(2.0)        # crashed -> alive skips recovering

    def test_as_dict_round_trips_through_json(self):
        import json

        h = ReplicaHealth(1)
        h.mark_crashed(0.5)
        assert json.loads(json.dumps(h.as_dict()))["state"] == "crashed"


class TestCircuitBreaker:
    def test_threshold_zero_disables(self):
        b = CircuitBreaker(0, threshold=0, cooldown_s=1.0)
        assert not b.enabled
        for _ in range(10):
            assert not b.record_completion(slow=True, now_s=0.0)
        assert b.routable and b.state == "closed"

    def test_consecutive_slow_trips_a_healthy_reset(self):
        b = CircuitBreaker(0, threshold=3, cooldown_s=1.0)
        assert not b.record_completion(True, 0.1)
        assert not b.record_completion(True, 0.2)
        assert not b.record_completion(False, 0.3)   # streak resets
        assert not b.record_completion(True, 0.4)
        assert not b.record_completion(True, 0.5)
        assert b.record_completion(True, 0.6)        # third in a row
        assert b.state == "open" and not b.routable
        assert b.trips == 1

    def test_half_open_probe_closes_on_healthy(self):
        b = CircuitBreaker(0, threshold=1, cooldown_s=0.5)
        assert b.record_completion(True, 1.0)
        assert b.open_until_s == pytest.approx(1.5)
        b.advance(1.2)
        assert b.state == "open"                     # still cooling
        b.advance(1.5)
        assert b.state == "half-open" and b.routable
        assert not b.record_completion(False, 1.6)   # healthy probe
        assert b.state == "closed"
        assert b.probes == 1

    def test_half_open_probe_reopens_on_slow_with_longer_cooldown(self):
        b = CircuitBreaker(0, threshold=1, cooldown_s=0.5)
        b.record_completion(True, 1.0)
        b.advance(1.5)
        assert b.record_completion(True, 1.6)        # failed probe
        assert b.state == "open"
        assert b.trips == 2
        # Second trip cools down twice as long (cooldown_s * trips).
        assert b.open_until_s == pytest.approx(1.6 + 1.0)

    def test_open_breaker_ignores_draining_batches(self):
        b = CircuitBreaker(0, threshold=1, cooldown_s=10.0)
        b.record_completion(True, 1.0)
        # A batch launched pre-trip completes while open: no signal.
        assert not b.record_completion(True, 1.1)
        assert b.trips == 1

    def test_fault_plan_jitters_the_cooldown_deterministically(self):
        plan = FaultPlan(seed=2)
        a = CircuitBreaker(0, threshold=1, cooldown_s=1.0,
                           fault_plan=plan)
        b = CircuitBreaker(0, threshold=1, cooldown_s=1.0,
                           fault_plan=plan)
        a.record_completion(True, 0.0)
        b.record_completion(True, 0.0)
        assert a.open_until_s == b.open_until_s
        assert 1.0 <= a.open_until_s <= 2.0
        # A different replica id jitters differently.
        c = CircuitBreaker(1, threshold=1, cooldown_s=1.0,
                           fault_plan=plan)
        c.record_completion(True, 0.0)
        assert c.open_until_s != a.open_until_s

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ClusterError):
            CircuitBreaker(0, threshold=-1, cooldown_s=1.0)
        with pytest.raises(ClusterError):
            CircuitBreaker(0, threshold=1, cooldown_s=-1.0)


class TestBrownoutController:
    def test_watermark_zero_is_invisible(self):
        ctl = BrownoutController(0.0, 0.01)
        assert not ctl.enabled
        assert all(ctl.consider(1, 8) is None for _ in range(20))
        assert ctl.shed_events == 0

    def test_healthy_fleet_is_never_shed(self):
        ctl = BrownoutController(0.5, 0.01)
        assert not ctl.active(alive=2, total=4)      # at the watermark
        assert all(ctl.consider(3, 4) is None for _ in range(20))

    def test_credit_counter_admits_the_alive_fraction(self):
        ctl = BrownoutController(1.0, 0.01)
        verdicts = [ctl.consider(1, 4) is None for _ in range(100)]
        assert sum(verdicts) == 25                   # exactly 1/4
        # And deterministically patterned: every 4th request admits.
        assert verdicts[3::4] == [True] * 25

    def test_shed_hint_scales_with_lost_capacity(self):
        ctl = BrownoutController(1.0, 0.01)
        hints = {h for h in (ctl.consider(1, 4) for _ in range(16))
                 if h is not None}
        assert hints == {0.04}                       # 0.01 * 4/1

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ClusterError):
            BrownoutController(1.5, 0.01)
        with pytest.raises(ClusterError):
            BrownoutController(0.5, -0.01)


class TestFleetHealth:
    def test_alive_and_routable_track_state(self):
        fleet = FleetHealth([0, 1, 2], breaker_threshold=1,
                            breaker_cooldown_s=5.0)
        assert fleet.alive_ids() == [0, 1, 2]
        fleet.of(1).mark_crashed(1.0)
        assert fleet.alive_ids() == [0, 2]
        fleet.breaker(0).record_completion(True, 1.5)
        assert fleet.routable_ids(2.0) == [2]        # 0 open, 1 crashed

    def test_all_breakers_open_falls_back_to_alive(self):
        fleet = FleetHealth([0, 1], breaker_threshold=1,
                            breaker_cooldown_s=5.0)
        for rid in (0, 1):
            fleet.breaker(rid).record_completion(True, 1.0)
        # A slow replica still beats none: the full alive set returns.
        assert fleet.routable_ids(2.0) == [0, 1]

    def test_routable_ids_advances_cooled_breakers(self):
        fleet = FleetHealth([0, 1], breaker_threshold=1,
                            breaker_cooldown_s=0.5)
        fleet.breaker(0).record_completion(True, 1.0)
        assert fleet.routable_ids(1.2) == [1]
        assert fleet.routable_ids(1.6) == [0, 1]     # half-open probe
        assert fleet.breaker(0).state == "half-open"

    def test_as_dict_is_json_ready(self):
        import json

        fleet = FleetHealth([0, 1])
        fleet.of(0).mark_crashed(1.0)
        surface = json.loads(json.dumps(fleet.as_dict(),
                                        sort_keys=True))
        assert {r["state"] for r in surface["replicas"]} == \
            {"alive", "crashed"}
        assert surface["recoveries"] == []
