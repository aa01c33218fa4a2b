"""The one serving event loop, driven with stub engines.

:class:`~repro.serve.server.EventLoop` is what every serving run (a
cluster of one replica or N) runs on, so its ordering rules are pinned
here directly,
without a model: same-instant ties resolve in push order, the batchers
drain only once no arrival is pending, a launch takes precedence over
the next event, and a loop that cannot make progress fails loudly.
"""

import pytest

from repro.errors import ServeError
from repro.serve import EventLoop, InferenceRequest
from repro.train.clock import SimulatedClock


class StubEngine:
    """Queues payloads; offers one plan per queued payload when ripe."""

    def __init__(self, ripe_after_s=0.0, deadline_s=None):
        self.queue = []
        self.busy = False
        self.ripe_after_s = ripe_after_s
        self.deadline_s = deadline_s
        self.drain_flags = []

    @property
    def idle(self):
        return not self.busy

    @property
    def depth(self):
        return len(self.queue)

    def select(self, now_s, draining):
        self.drain_flags.append(draining)
        if now_s >= self.ripe_after_s:
            return self.queue[0]
        return None

    def flush_deadline(self):
        if self.busy or not self.queue:
            return None
        return self.deadline_s


def request(request_id, at_s):
    return InferenceRequest(request_id=request_id, graph=None,
                            submitted_s=at_s)


def serve_all(loop, engine, log, service_s=0.5):
    """Run ``loop`` with one stub engine; ``log`` records what fired."""

    def launch(key, eng, plan, now_s):
        eng.queue.remove(plan)
        eng.busy = True
        log.append(("launch", plan, now_s))
        loop.push(now_s + service_s, "done", plan)

    def done(plan, now_s):
        engine.busy = False
        log.append(("done", plan, now_s))

    def arrive(req, now_s):
        engine.queue.append(req.request_id)
        log.append(("arrive", req.request_id, now_s))

    loop.run(lambda: [(0, engine)], launch,
             {"arrive": arrive, "done": done,
              "control": lambda name, now_s: log.append(
                  ("control", name, now_s))})


class TestOrdering:
    def test_same_instant_events_fire_in_push_order(self):
        loop = EventLoop(SimulatedClock())
        loop.push(1.0, "control", "first")
        loop.arrive(request(7, 1.0))
        loop.push(1.0, "control", "last")
        log = []
        serve_all(loop, StubEngine(), log)
        events = [entry for entry in log if entry[0] != "launch"]
        assert events[:3] == [("control", "first", 1.0),
                              ("arrive", 7, 1.0),
                              ("control", "last", 1.0)]

    def test_launch_precedes_the_next_event(self):
        # Request 0 is ripe the moment it arrives, so it launches before
        # request 1 (same instant, pushed later) is even admitted.
        loop = EventLoop(SimulatedClock())
        loop.arrive(request(0, 1.0))
        loop.arrive(request(1, 1.0))
        log = []
        serve_all(loop, StubEngine(), log)
        assert log == [("arrive", 0, 1.0), ("launch", 0, 1.0),
                       ("arrive", 1, 1.0), ("done", 0, 1.5),
                       ("launch", 1, 1.5), ("done", 1, 2.0)]

    def test_batchers_drain_only_after_the_last_arrival(self):
        loop = EventLoop(SimulatedClock())
        loop.arrive(request(0, 1.0))
        loop.arrive(request(1, 2.0))
        engine = StubEngine()
        serve_all(loop, engine, [])
        # First select: request 1 still pending; second: none left.
        assert engine.drain_flags == [False, True]

    def test_unripe_queue_waits_for_its_deadline(self):
        loop = EventLoop(SimulatedClock())
        loop.arrive(request(0, 1.0))
        log = []
        serve_all(loop, StubEngine(ripe_after_s=3.0, deadline_s=3.0), log)
        assert ("launch", 0, 3.0) in log
        assert loop.clock.now() == pytest.approx(3.5)

    def test_engine_set_is_asked_again_every_turn(self):
        # A handler can bring an engine into the live set mid-run.
        clock = SimulatedClock()
        loop = EventLoop(clock)
        engine = StubEngine()
        live = []
        launched = []

        def join(_, now_s):
            engine.queue.append("work")
            live.append((3, engine))

        def launch(key, eng, plan, now_s):
            eng.queue.remove(plan)
            launched.append((key, plan, now_s))

        loop.push(2.0, "join", None)
        loop.run(lambda: list(live), launch, {"join": join})
        assert launched == [(3, "work", 2.0)]


class TestStalls:
    def test_queued_work_without_events_or_deadline_raises(self):
        engine = StubEngine(ripe_after_s=float("inf"), deadline_s=None)
        engine.queue.append("stuck")
        loop = EventLoop(SimulatedClock())
        with pytest.raises(ServeError, match="stalled"):
            loop.run(lambda: [(0, engine)], None, {})

    def test_deadline_that_does_not_ripen_raises(self):
        engine = StubEngine(ripe_after_s=float("inf"), deadline_s=0.0)
        engine.queue.append("stuck")
        loop = EventLoop(SimulatedClock())
        with pytest.raises(ServeError, match="refused to flush"):
            loop.run(lambda: [(0, engine)], None, {})

    def test_empty_loop_returns_without_moving_the_clock(self):
        clock = SimulatedClock()
        clock.advance(4.0)
        EventLoop(clock).run(lambda: [], None, {})
        assert clock.now() == 4.0
