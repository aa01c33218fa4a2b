"""Per-replica health: state machine, circuit breaker, brownout.

PR 7 gave the cluster exactly one fault shape — a clean, permanent
crash.  This module is the self-healing layer on top: every replica
carries an explicit health state machine, slow replicas are detected
and routed around, recovered replicas rejoin, and when too much
capacity is gone the fleet browns out instead of queueing itself to
death.  Three deterministic pieces:

* :class:`ReplicaHealth` — the ``alive -> crashed -> recovering ->
  alive`` state machine.  Transitions happen only at simulated-clock
  instants the cluster's event loop produces (crash at a batch launch,
  rejoin at a seeded recovery delay, alive again at the first
  post-rejoin completion), so the full transition log is part of the
  byte-identical replay surface.
* :class:`CircuitBreaker` — the straggler defence.  A batch is *slow*
  when its observed service time exceeds the analytic expectation by
  the configured ratio; ``threshold`` consecutive slow batches trip
  the breaker (``closed -> open``), new traffic routes around the
  replica, and after a seeded cooldown the breaker goes ``half-open``:
  the next completed batch is the probe that either closes it or
  re-opens it with a longer cooldown.
* :class:`BrownoutController` — degraded-mode admission.  When the
  alive fraction of the fleet drops below the watermark, a
  deterministic credit counter admits requests in proportion to the
  surviving capacity and sheds the excess with typed
  ``shed-capacity`` outcomes and capacity-scaled retry-after hints
  (:func:`repro.serve.queueing.scale_retry_after`).

Nothing here reads a clock or an RNG: every decision is a pure
function of the simulated timestamps the cluster passes in and of
:meth:`repro.resilience.FaultPlan.roll`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.cache import ReplicaScheduleView
from repro.core.config import require_finite, require_int
from repro.errors import ClusterError

#: Legal state-machine moves; anything else is a cluster bug.
_LEGAL_TRANSITIONS = (("alive", "crashed"),
                      ("crashed", "recovering"),
                      ("recovering", "alive"),
                      ("recovering", "crashed"))


@dataclass(frozen=True)
class HealthTransition:
    """One edge of a replica's lifecycle, at a simulated instant."""

    from_state: str
    to_state: str
    at_s: float

    def as_dict(self) -> Dict:
        return {"from": self.from_state, "to": self.to_state,
                "at_s": self.at_s}


def _entries(transitions: List[HealthTransition], state: str) -> int:
    """How many of ``transitions`` entered ``state``."""
    return sum(1 for t in transitions if t.to_state == state)


class ReplicaHealth:
    """The ``alive -> crashed -> recovering -> alive`` machine.

    ``incarnation`` counts rejoins (0 for the original engine);
    ``crashes`` and ``recoveries`` count edge traversals (all three
    read off the transition log).  A ``recovering`` replica is already
    routable — it rejoined the ring with a cold L1 — and is promoted
    back to ``alive`` when its first post-rejoin batch completes (it
    proved it can serve).  Illegal transitions raise
    :class:`~repro.errors.ClusterError` rather than corrupting the
    replay surface.
    """

    def __init__(self, replica_id: int):
        self.replica_id = replica_id
        self.state = "alive"
        self.transitions: List[HealthTransition] = []

    @property
    def incarnation(self) -> int:
        return _entries(self.transitions, "recovering")

    @property
    def crashes(self) -> int:
        return _entries(self.transitions, "crashed")

    @property
    def recoveries(self) -> int:
        return _entries(self.transitions, "alive")

    def _move(self, to_state: str, at_s: float) -> None:
        if (self.state, to_state) not in _LEGAL_TRANSITIONS:
            raise ClusterError(
                f"illegal health transition {self.state!r} -> "
                f"{to_state!r} for replica {self.replica_id}")
        self.transitions.append(
            HealthTransition(self.state, to_state, at_s))
        self.state = to_state

    def mark_crashed(self, at_s: float) -> None:
        self._move("crashed", at_s)

    def mark_recovering(self, at_s: float) -> None:
        """The replica rejoins: fresh engine, cold L1, back on the ring."""
        self._move("recovering", at_s)

    def mark_alive(self, at_s: float) -> None:
        """First post-rejoin completion: the replica is healed."""
        self._move("alive", at_s)

    @property
    def routable(self) -> bool:
        """Crashed replicas take no traffic; alive/recovering do."""
        return self.state != "crashed"

    def as_dict(self) -> Dict:
        return {"replica_id": self.replica_id,
                "state": self.state,
                "incarnation": self.incarnation,
                "crashes": self.crashes,
                "recoveries": self.recoveries,
                "transitions": [t.as_dict() for t in self.transitions]}


class CircuitBreaker:
    """Per-replica straggler breaker: closed -> open -> half-open.

    ``threshold`` consecutive slow completions trip the breaker at the
    completion instant; while open the replica takes no new traffic
    (its queued work was hedged away by the cluster).  After
    ``cooldown_s`` — stretched by ``(1 + trips)`` so a repeat offender
    backs off longer, plus a seeded jitter share when a fault plan is
    attached — the breaker goes half-open and the next completed batch
    is the probe: healthy closes it, slow re-opens it.  ``threshold``
    of 0 disables the breaker entirely (every query answers
    "routable").  ``trips`` (entries into ``open``) and ``probes``
    (exits from ``half-open``) are read off the transition log.
    """

    def __init__(self, replica_id: int, threshold: int,
                 cooldown_s: float, fault_plan=None):
        require_int("breaker threshold", threshold, ClusterError, 0)
        require_finite("breaker cooldown_s", cooldown_s, ClusterError, 0)
        self.replica_id = replica_id
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.fault_plan = fault_plan
        self.state = "closed"
        self.consecutive_slow = 0
        self.open_until_s = 0.0
        self.transitions: List[HealthTransition] = []

    @property
    def trips(self) -> int:
        return _entries(self.transitions, "open")

    @property
    def probes(self) -> int:
        return sum(1 for t in self.transitions
                   if t.from_state == "half-open")

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def _move(self, to_state: str, at_s: float) -> None:
        self.transitions.append(
            HealthTransition(self.state, to_state, at_s))
        self.state = to_state

    def _cooldown(self) -> float:
        base = self.cooldown_s * self.trips
        if self.fault_plan is not None:
            # Seeded jitter keyed on the trip index: deterministic, but
            # two replicas tripping together do not probe together.
            base += self.cooldown_s * self.fault_plan.roll(
                "breaker", self.replica_id, self.trips)
        return base

    def _trip(self, at_s: float) -> None:
        # Open first: the cooldown is priced on this trip's index.
        self._move("open", at_s)
        self.open_until_s = at_s + self._cooldown()

    def advance(self, now_s: float) -> None:
        """Open -> half-open once the cooldown has elapsed."""
        if (self.enabled and self.state == "open"
                and now_s >= self.open_until_s):
            self._move("half-open", now_s)

    @property
    def routable(self) -> bool:
        """May the router send this replica new traffic right now?

        Callers :meth:`advance` the breaker to ``now`` first; half-open
        is routable — that is what delivers the probe batch.
        """
        return not self.enabled or self.state != "open"

    def record_completion(self, slow: bool, now_s: float) -> bool:
        """Account one finished batch; True when this trip opened it.

        In the closed state, slow completions accumulate and
        ``threshold`` consecutive ones trip the breaker; a healthy
        completion resets the streak.  In the half-open state the batch
        is the probe: healthy closes the breaker, slow re-opens it
        with a longer cooldown.
        """
        if not self.enabled:
            return False
        if self.state == "half-open":
            if slow:
                self._trip(now_s)
                return True
            self.consecutive_slow = 0
            self._move("closed", now_s)
            return False
        if self.state == "open":
            # A batch launched before the trip is still draining; it
            # carries no routing signal.
            return False
        if slow:
            self.consecutive_slow += 1
            if self.consecutive_slow >= self.threshold:
                self._trip(now_s)
                return True
        else:
            self.consecutive_slow = 0
        return False

    def as_dict(self) -> Dict:
        return {"replica_id": self.replica_id,
                "state": self.state,
                "trips": self.trips,
                "probes": self.probes,
                "consecutive_slow": self.consecutive_slow,
                "transitions": [t.as_dict() for t in self.transitions]}


class BrownoutController:
    """Deterministic degraded-mode admission (load shedding).

    While the alive fraction of the fleet is at or above ``watermark``
    every request is admitted and the controller is invisible.  Below
    it, a credit counter accrues ``alive/total`` per request and
    admits one request per whole credit — so over any window the
    admitted fraction tracks the surviving capacity exactly, with no
    randomness and no dependence on arrival timing.  Shed requests
    carry a retry-after hint scaled by the lost capacity
    (:func:`~repro.serve.queueing.scale_retry_after` over
    ``base_retry_after_s``).

    ``watermark`` of 0 disables brownout (the fleet queues and rejects
    as before); 1.0 sheds proportionally on any capacity loss.
    """

    def __init__(self, watermark: float, base_retry_after_s: float):
        require_finite("brownout watermark", watermark, ClusterError, 0)
        if watermark > 1.0:
            raise ClusterError(
                f"brownout watermark must be in [0, 1], got {watermark}")
        require_finite("base_retry_after_s", base_retry_after_s,
                       ClusterError, 0)
        self.watermark = watermark
        self.base_retry_after_s = base_retry_after_s
        self.credits = 0.0
        self.admitted = 0
        self.shed_events = 0

    @property
    def enabled(self) -> bool:
        return self.watermark > 0.0

    def active(self, alive: int, total: int) -> bool:
        """Is the fleet below the watermark (brownout in force)?"""
        if not self.enabled or total < 1:
            return False
        return alive < self.watermark * total

    def consider(self, alive: int, total: int) -> Optional[float]:
        """Admit (``None``) or shed (the retry-after hint in seconds).

        Callers only invoke this with ``alive >= 1`` — a fleet with no
        replicas at all fails requests as ``no-replicas-alive`` before
        admission control is consulted.
        """
        from repro.serve.queueing import scale_retry_after

        if not self.active(alive, total):
            self.admitted += 1
            return None
        self.credits += alive / total
        if self.credits >= 1.0:
            self.credits -= 1.0
            self.admitted += 1
            return None
        self.shed_events += 1
        return scale_retry_after(self.base_retry_after_s, alive, total)

    def as_dict(self) -> Dict:
        return {"watermark": self.watermark,
                "admitted": self.admitted,
                "shed_events": self.shed_events}


@dataclass(frozen=True)
class RecoveryRecord:
    """One replica rejoin, with its cold-L1 warm-up trajectory.

    The warm-up counters are read from the recovered incarnation's
    ``view`` (its :class:`~repro.cluster.cache.TierStats`) — by
    construction every lookup after the rejoin starts from an empty L1,
    so ``l2_hits`` are the promotions that re-warm it and
    ``lookups_to_first_l1_hit`` measures how quickly routing locality
    re-establishes (-1 when the incarnation never hit its L1).
    """

    replica_id: int
    incarnation: int
    crashed_at_s: float
    recovered_at_s: float
    view: ReplicaScheduleView

    @property
    def warmup_lookups(self) -> int:
        return self.view.tier.lookups

    @property
    def warmup_l1_hits(self) -> int:
        return self.view.tier.l1_hits

    @property
    def warmup_l2_hits(self) -> int:
        return self.view.tier.l2_hits

    @property
    def warmup_misses(self) -> int:
        return self.view.tier.misses

    @property
    def lookups_to_first_l1_hit(self) -> int:
        return self.view.lookups_to_first_l1_hit

    @property
    def warmup_l1_hit_rate(self) -> float:
        if self.warmup_lookups == 0:
            return 0.0
        return self.warmup_l1_hits / self.warmup_lookups

    def as_dict(self) -> Dict:
        return {"replica_id": self.replica_id,
                "incarnation": self.incarnation,
                "crashed_at_s": self.crashed_at_s,
                "recovered_at_s": self.recovered_at_s,
                "warmup_lookups": self.warmup_lookups,
                "warmup_l1_hits": self.warmup_l1_hits,
                "warmup_l2_hits": self.warmup_l2_hits,
                "warmup_misses": self.warmup_misses,
                "lookups_to_first_l1_hit": self.lookups_to_first_l1_hit}


class FleetHealth:
    """The fleet's health book: one machine and one breaker per replica."""

    def __init__(self, replica_ids, breaker_threshold: int = 0,
                 breaker_cooldown_s: float = 0.0, fault_plan=None):
        self.replicas: Dict[int, ReplicaHealth] = {
            rid: ReplicaHealth(rid) for rid in replica_ids}
        self.breakers: Dict[int, CircuitBreaker] = {
            rid: CircuitBreaker(rid, breaker_threshold,
                                breaker_cooldown_s, fault_plan)
            for rid in replica_ids}
        self.recoveries: List[RecoveryRecord] = []

    def of(self, replica_id: int) -> ReplicaHealth:
        return self.replicas[replica_id]

    def breaker(self, replica_id: int) -> CircuitBreaker:
        return self.breakers[replica_id]

    def alive_ids(self):
        """Replicas currently taking traffic, ascending."""
        return [rid for rid in sorted(self.replicas)
                if self.replicas[rid].routable]

    def routable_ids(self, now_s: float):
        """Alive replicas whose breaker admits new traffic at ``now``.

        Advances open breakers whose cooldown elapsed (open ->
        half-open) as a side effect — the lazy transition is
        deterministic because ``now`` comes from the simulated event
        loop.  When every alive breaker is open, the alive set is
        returned unfiltered: a slow replica still beats none.
        """
        alive = self.alive_ids()
        for rid in alive:
            self.breakers[rid].advance(now_s)
        routable = [rid for rid in alive if self.breakers[rid].routable]
        return routable if routable else alive

    def as_dict(self) -> Dict:
        return {
            "replicas": [self.replicas[rid].as_dict()
                         for rid in sorted(self.replicas)],
            "breakers": [self.breakers[rid].as_dict()
                         for rid in sorted(self.breakers)],
            "recoveries": [r.as_dict() for r in self.recoveries],
        }
