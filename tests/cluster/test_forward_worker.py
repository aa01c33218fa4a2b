"""The forward worker: a run's predictions do not depend on where the
forward ran.

A serving run forks one forward worker when
:func:`repro.serve.server.use_forward_worker` says the run and the host
call for it, and runs every forward in-process otherwise.  These tests
force each side of that selection by patching the predicate, and hold
the two runs equal: the stats replay surface and every response (id,
batch, completion time, epoch, prediction bytes).  A worker run also
runs forwards in the parent whenever the worker falls behind
(:data:`repro.serve.server.WORKER_BACKLOG`); the executor counts them.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

import repro.cluster.cluster as cluster_module
import repro.serve.server as server
from repro.cluster import Cluster, ClusterConfig
from repro.errors import ShapeError
from repro.graph.graph import Graph
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import (
    ArrivalProcess,
    BatchingPolicy,
    InferenceRequest,
    ServerConfig,
    generate_requests,
)
from repro.serve.queueing import QueuedRequest
from repro.stream import GraphTable, StreamMix, StreamServer, generate_stream

RETRY = RetryPolicy(max_attempts=3)


def run_with(worker, serve):
    """``serve()`` with the worker selection forced to ``worker``.

    Returns the result, how many forwards ran in this process (a forward
    the worker runs counts in the worker's copy of the counter) and the
    run's forward executors.
    """
    in_parent = []
    executors = []
    real_forward = server.run_forward

    def counted(*args):
        in_parent.append(1)
        return real_forward(*args)

    class Recorded(server.ForwardExecutor):
        def __init__(self, *args):
            super().__init__(*args)
            executors.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "use_forward_worker", lambda _: worker)
        patch.setattr(server, "run_forward", counted)
        patch.setattr(cluster_module, "ForwardExecutor", Recorded)
        result = serve()
    assert multiprocessing.active_children() == []
    return result, len(in_parent), executors


def in_parent_expected(executors):
    """Forwards the executors ran here: kept at submit, plus the batches
    a dead worker held.  A forward the worker answered never counts."""
    return sum(e.kept + e.recomputed for e in executors)


def surface(result):
    """The stats replay surface and every response, as bytes."""
    return (json.dumps(result.stats.as_dict(), sort_keys=True),
            [(r.request_id, r.batch_id, r.completed_s, r.epoch,
              r.prediction.tobytes()) for r in result.responses])


def fleet_config(replicas, breaker_threshold=0):
    return ClusterConfig(
        num_replicas=replicas, policy="hash-affinity",
        breaker_threshold=breaker_threshold, breaker_cooldown_s=0.01,
        server=ServerConfig(queue_capacity=16,
                            policy=BatchingPolicy(max_batch_size=8)))


@st.composite
def fleets(draw):
    """A fleet size, its breaker and a fault plan over its replicas."""
    replicas = draw(st.integers(1, 3))
    ids = st.lists(st.integers(0, replicas - 1), max_size=replicas,
                   unique=True).map(tuple)
    plan = FaultPlan(
        seed=draw(st.integers(0, 2 ** 16)),
        crash_replicas=draw(ids),
        crash_after_batches=draw(st.integers(0, 4)),
        recover_after_s=draw(st.sampled_from([-1.0, 0.0, 0.005])),
        slow_replicas=draw(ids),
        slow_factor=draw(st.sampled_from([1.0, 2.0, 8.0])),
        slow_rate=draw(st.sampled_from([0.0, 0.3])))
    return replicas, draw(st.integers(0, 2)), plan


class TestWorkerMatchesInProcess:
    @given(fleet=fleets(), stream=st.booleans(),
           delta_fraction=st.sampled_from([0.0, 0.3, 0.6]),
           ops_per_delta=st.integers(1, 6),
           delete_fraction=st.sampled_from([0.0, 0.25, 0.5]),
           rate_rps=st.sampled_from([400.0, 5000.0, 20000.0]),
           seed=st.integers(0, 9))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_runs_are_byte_identical(self, model, pool, fleet, stream,
                                     delta_fraction, ops_per_delta,
                                     delete_fraction, rate_rps, seed):
        replicas, breaker_threshold, plan = fleet
        config = fleet_config(replicas, breaker_threshold)
        process = ArrivalProcess(kind="poisson", rate_rps=rate_rps,
                                 seed=seed)
        graphs = {f"g{i}": g for i, g in enumerate(pool[:4])}
        if stream:
            requests, deltas = generate_stream(
                GraphTable(graphs), 40, process,
                StreamMix(delta_fraction=delta_fraction,
                          ops_per_delta=ops_per_delta,
                          delete_fraction=delete_fraction, seed=seed))

            def serve():
                return StreamServer(model, graphs, config,
                                    fault_plan=plan).run(
                    requests, deltas, retry_policy=RETRY)
        else:
            requests = generate_requests(pool, 40, process)

            def serve():
                return Cluster(model, config, fault_plan=plan).run(
                    requests, retry_policy=RETRY)

        worker, worker_forwards, executors = run_with(True, serve)
        in_process, _, _ = run_with(False, serve)
        assert surface(worker) == surface(in_process)
        # Every forward of the worker run that the executor did not
        # keep in-process ran in the worker.
        assert worker_forwards == in_parent_expected(executors)
        assert all(e.recomputed == 0 for e in executors)

    def test_killed_worker_run_matches_unkilled_run(self, model,
                                                    make_requests):
        requests = make_requests(num=64, rate_rps=20000.0)
        mid_s = requests[len(requests) // 2].submitted_s
        killed = []

        def kill_worker(now_s):
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
                killed.append(child.pid)

        def serve(control_events=()):
            return lambda: Cluster(model, fleet_config(3)).run(
                requests, retry_policy=RETRY,
                control_events=list(control_events))

        unkilled, unkilled_forwards, unkilled_exec = run_with(True, serve())
        survived, survived_forwards, survived_exec = run_with(
            True, serve([(mid_s, kill_worker)]))
        assert len(killed) == 1
        assert unkilled_forwards == in_parent_expected(unkilled_exec)
        assert unkilled_exec[0].recomputed == 0
        # After the kill every forward, the lost batches first, runs in
        # the parent.
        assert survived_forwards > 0
        assert survived_forwards == in_parent_expected(survived_exec)
        assert surface(survived) == surface(unkilled)

    def test_parent_shares_the_work_of_a_slow_worker(self, model,
                                                     make_requests):
        requests = make_requests(num=64, rate_rps=20000.0)
        parent = os.getpid()
        real_forward = server.run_forward

        def slow_in_worker(*args):
            if os.getpid() != parent:
                time.sleep(0.05)
            return real_forward(*args)

        def serve():
            return Cluster(model, fleet_config(3)).run(
                requests, retry_policy=RETRY)

        with pytest.MonkeyPatch.context() as patch:
            # Patched before the fork, so the worker inherits it.
            patch.setattr(server, "run_forward", slow_in_worker)
            shared, shared_forwards, executors = run_with(True, serve)
        in_process, _, _ = run_with(False, serve)
        (executor,) = executors
        assert executor.kept >= 1
        assert executor.recomputed == 0
        assert shared_forwards == executor.kept
        assert surface(shared) == surface(in_process)

    @pytest.mark.parametrize("worker", [False, True])
    def test_forward_error_surfaces_from_run(self, model, pool, worker):
        bare = pool[2]
        featureless = Graph(bare.num_nodes, bare.src, bare.dst)
        requests = generate_requests(
            [pool[0], featureless, pool[1]], 12,
            ArrivalProcess(kind="poisson", rate_rps=400.0, seed=0))

        def serve():
            return Cluster(model, fleet_config(2)).run(requests)

        with pytest.raises(ShapeError) as raised:
            run_with(worker, serve)
        assert multiprocessing.active_children() == []
        assert type(raised.value) is ShapeError
        assert str(raised.value) == "batch has no node features"


class StubConn:
    """A forward worker's pipe end that replies only when told to."""

    def __init__(self):
        self.sent = []
        self.replies = []

    def send(self, item):
        self.sent.append(item)

    def poll(self):
        return bool(self.replies)

    def recv(self):
        if not self.replies:
            raise EOFError
        return self.replies.pop(0)


class TestBacklog:
    """The executor's sharing rule and its join queue, on a stub pipe."""

    @pytest.fixture
    def executor(self, monkeypatch):
        monkeypatch.setattr(server, "use_forward_worker", lambda _: False)
        monkeypatch.setattr(server, "run_forward",
                            lambda model, batch, runtime:
                            np.full((1, 1), float(batch)))
        executor = server.ForwardExecutor(None, 0)
        executor._conn = StubConn()
        return executor

    @staticmethod
    def launched(pending, request_id):
        request = InferenceRequest(request_id=request_id, graph=None)
        entry = QueuedRequest(request=request, admitted_s=0.0, path=None,
                              schedule_hit=True)
        return server.LaunchedBatch(batch_id=request_id, done_s=1.0,
                                    entries=(entry,), forward=pending)

    def test_ships_until_the_worker_holds_the_backlog(self, executor):
        conn = executor._conn
        pending = [executor.submit(b, None)
                   for b in range(server.WORKER_BACKLOG)]
        assert [p.ticket for p in pending] == list(
            range(server.WORKER_BACKLOG))
        assert len(conn.sent) == server.WORKER_BACKLOG
        assert executor.kept == 0
        kept = executor.submit(99, None)
        assert kept.ticket == -1 and kept.predictions[0, 0] == 99.0
        assert executor.kept == 1
        assert len(conn.sent) == server.WORKER_BACKLOG
        # A reply already waiting is taken before the choice.
        conn.replies.append(np.zeros((1, 1)))
        shipped = executor.submit(7, None)
        assert shipped.ticket == server.WORKER_BACKLOG
        assert executor.kept == 1
        assert conn.replies == []

    def test_joins_in_completion_order_once_ready(self, executor):
        conn = executor._conn
        first = executor.submit(1, None)
        second = executor.submit(2, None)
        # The batch launched second finishes first: it heads the queue
        # and waits for its reply, holding the other one behind it.
        executor.retire(self.launched(second, 20))
        executor.retire(self.launched(first, 10))
        conn.replies.append(np.full((1, 1), 1.0))
        executor.retire(self.launched(executor.submit(3, None), 30))
        assert executor.responses == []
        conn.replies.append(np.full((1, 1), 2.0))
        executor.submit(4, None)
        assert [r.request_id for r in executor.responses] == [20, 10]
        assert [float(r.prediction[0]) for r in executor.responses] == \
            [2.0, 1.0]
        assert len(executor._retired) == 1
        # The last batch's worker died without replying: recomputed here.
        responses = executor.drain()
        assert [r.request_id for r in responses] == [20, 10, 30]
        assert float(responses[-1].prediction[0]) == 3.0
        assert executor.recomputed == 1
        assert len(executor._retired) == 0


class TestSelection:
    """:func:`repro.serve.server.use_forward_worker` on a given host."""

    @pytest.fixture
    def host(self, monkeypatch):
        """Set the host's CPU count and numpy's effective BLAS pool."""
        def shape(cpus, blas):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
            monkeypatch.setattr(server, "blas_threads", lambda: blas)
        return shape

    def test_long_run_with_a_spare_cpu_forks(self, host):
        host(2, 1)
        assert server.use_forward_worker(server.WORKER_MIN_REQUESTS)

    def test_short_run_stays_in_process(self, host):
        host(2, 1)
        assert not server.use_forward_worker(
            server.WORKER_MIN_REQUESTS - 1)

    def test_one_cpu_stays_in_process(self, host):
        host(1, 1)
        assert not server.use_forward_worker(1000)

    @pytest.mark.parametrize("caps", [
        {"cpus": 4, "blas": 4}, {"cpus": 4, "blas": 8},
        {"cpus": 2, "blas": 2}, {"cpus": 8, "blas": 8}])
    def test_blas_on_every_cpu_stays_in_process(self, host, caps):
        host(caps["cpus"], caps["blas"])
        assert not server.use_forward_worker(1000)

    def test_unknown_blas_stays_in_process(self, host):
        host(4, None)
        assert not server.use_forward_worker(1000)

    def test_a_smaller_pool_forks(self, host):
        host(4, 2)
        assert server.use_forward_worker(1000)


class TestBlasPool:
    """numpy's BLAS pool, read and capped for the serving commands."""

    def test_cap_holds_inside_and_is_restored(self):
        before = server.blas_threads()
        if before is None:
            pytest.skip("numpy carries no scipy_openblas64_ library")
        with server.blas_pool(1):
            assert server.blas_threads() == 1
        assert server.blas_threads() == before

    def test_serving_command_runs_capped(self, monkeypatch):
        from repro import cli

        if server.blas_threads() is None:
            pytest.skip("numpy carries no scipy_openblas64_ library")
        seen = []

        def build_cluster(args):
            seen.append(server.blas_threads())
            raise ShapeError("stop before loading")

        monkeypatch.setattr(cli, "_build_cluster", build_cluster)
        assert cli.main(["loadtest", "--requests", "4"]) == 2
        assert seen == [1]
