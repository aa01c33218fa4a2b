"""The forward worker: a run's predictions do not depend on where the
forward ran.

A serving run forks one forward worker when
:func:`repro.serve.server.use_forward_worker` says the run and the host
call for it, and runs every forward in-process otherwise.  These tests
force each side of that selection by patching the predicate, and hold
the two runs equal: the stats replay surface and every response (id,
batch, completion time, epoch, prediction bytes).
"""

import json
import multiprocessing
import os
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serve.server as server
from repro.cluster import Cluster, ClusterConfig
from repro.errors import ShapeError
from repro.graph.graph import Graph
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import (
    ArrivalProcess,
    BatchingPolicy,
    ServerConfig,
    generate_requests,
)
from repro.stream import GraphTable, StreamMix, StreamServer, generate_stream

RETRY = RetryPolicy(max_attempts=3)


def run_with(worker, serve):
    """``serve()`` with the worker selection forced to ``worker``.

    Returns the result and how many forwards ran in this process; a
    forward the worker runs counts in the worker's copy of the counter.
    """
    in_parent = []
    real_forward = server.run_forward

    def counted(*args):
        in_parent.append(1)
        return real_forward(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "use_forward_worker", lambda _: worker)
        patch.setattr(server, "run_forward", counted)
        result = serve()
    assert multiprocessing.active_children() == []
    return result, len(in_parent)


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

        worker, worker_forwards = run_with(True, serve)
        in_process, _ = run_with(False, serve)
        assert surface(worker) == surface(in_process)
        # Every forward of the worker run ran in the worker.
        assert worker_forwards == 0

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

        unkilled, unkilled_forwards = run_with(True, serve())
        survived, survived_forwards = run_with(
            True, serve([(mid_s, kill_worker)]))
        assert len(killed) == 1
        assert unkilled_forwards == 0
        # After the kill every forward, the lost batches first, runs in
        # the parent.
        assert survived_forwards > 0
        assert surface(survived) == surface(unkilled)

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


class TestSelection:
    """:func:`repro.serve.server.use_forward_worker` on a given host."""

    @pytest.fixture
    def host(self, monkeypatch):
        """Set the host's CPU count and BLAS thread caps."""
        def shape(cpus, **caps):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
            for name in server.BLAS_THREAD_VARS:
                monkeypatch.delenv(name, raising=False)
            for name, value in caps.items():
                monkeypatch.setenv(name, value)
        return shape

    def test_long_run_with_a_spare_cpu_forks(self, host):
        host(2, OPENBLAS_NUM_THREADS="1")
        assert server.use_forward_worker(server.WORKER_MIN_REQUESTS)

    def test_short_run_stays_in_process(self, host):
        host(2, OPENBLAS_NUM_THREADS="1")
        assert not server.use_forward_worker(
            server.WORKER_MIN_REQUESTS - 1)

    def test_one_cpu_stays_in_process(self, host):
        host(1, OMP_NUM_THREADS="1")
        assert not server.use_forward_worker(1000)

    @pytest.mark.parametrize("caps", [
        {}, {"OMP_NUM_THREADS": "4"}, {"MKL_NUM_THREADS": "many"},
        {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}])
    def test_blas_on_every_cpu_stays_in_process(self, host, caps):
        host(4, **caps)
        assert not server.use_forward_worker(1000)

    def test_first_set_cap_counts(self, host):
        host(4, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="4")
        assert server.use_forward_worker(1000)
