"""Dynamic-graph serving: deltas, repairs and queries on one clock.

:class:`StreamServer` is the top of the stack: it owns a
:class:`~repro.cluster.cluster.Cluster` (all of sharded serving,
self-healing and tiered caching, unchanged), a
:class:`~repro.stream.deltas.GraphTable` of named graphs, and a
:class:`~repro.stream.repair.ScheduleRepairer`.  One run interleaves
two event kinds on the cluster's run of the one serving
:class:`~repro.serve.server.EventLoop`:

* **queries** — :class:`~repro.serve.queueing.InferenceRequest`s
  carrying a ``graph_name``.  The server's ``bind_request`` hook
  resolves the name to the *current* graph version and pins the
  current epoch at every dispatch instant (first arrival, retries,
  failovers, hedges).  Admission then resolves — and thereby freezes —
  the schedule, so a request in flight across a delta replays the
  pre-delta representation byte-identically while its response records
  the epoch it was pinned to.
* **deltas** — :class:`~repro.stream.deltas.DeltaBatch`es applied as
  control events, ordered before any same-instant arrival.  Each
  application runs the full repair protocol: analytic estimate, patch
  or full Algorithm 1 recompute, epoch advance, eviction of exactly
  the superseded content key from L1/L2/disk, and seeding of the new
  key — so the first post-delta admission is an L2 hit, and entries
  for untouched graphs are never disturbed.

Constraint: ``mega_config.edge_drop`` must be 0.  Edge dropping
re-derives a *different* working graph at materialisation, which would
break the equality between a repaired schedule's edge set and the
graph the delta produced — the invariant the whole protocol audits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Tuple

from repro.cluster.cluster import Cluster, ClusterConfig, ClusterResult
from repro.core.config import MegaConfig
from repro.errors import StreamError
from repro.graph.graph import Graph
from repro.models.base import GNNModel
from repro.pipeline.cache import ScheduleCache
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve.queueing import InferenceRequest, InferenceResponse
from repro.stream.deltas import DeltaBatch, GraphTable
from repro.stream.repair import RepairPolicy, RepairRecord, ScheduleRepairer
from repro.stream.stats import StreamStats
from repro.train.clock import SimulatedClock


@dataclass
class StreamResult:
    """Everything one :meth:`StreamServer.run` call produced."""

    responses: List[InferenceResponse]
    stats: StreamStats

    def response_for(self, request_id: int) -> InferenceResponse:
        """The response for ``request_id``; typed error if it failed."""
        return ClusterResult(
            responses=self.responses,
            stats=self.stats.cluster).response_for(request_id)


class StreamServer:
    """A serving cluster whose graphs change underneath it, safely."""

    def __init__(self, model: GNNModel, graphs: Mapping[str, Graph],
                 config: Optional[ClusterConfig] = None,
                 mega_config: Optional[MegaConfig] = None,
                 repair_policy: Optional[RepairPolicy] = None,
                 cache: Optional[ScheduleCache] = None,
                 clock: Optional[SimulatedClock] = None,
                 fault_plan: Optional[FaultPlan] = None):
        mega_config = mega_config or MegaConfig()
        if mega_config.edge_drop > 0.0:
            raise StreamError(
                "streaming requires edge_drop == 0: dropped edges "
                "decouple the working graph from the delta-applied one, "
                f"got edge_drop={mega_config.edge_drop}")
        self.cluster = Cluster(model, config, mega_config, cache=cache,
                               clock=clock, fault_plan=fault_plan)
        self.table = GraphTable(graphs, mega_config)
        self.repairer = ScheduleRepairer(self.table, self.cluster.tiered,
                                         repair_policy)

    # ------------------------------------------------------------------
    def _bind(self, request: InferenceRequest, now_s: float
              ) -> Tuple[InferenceRequest, Optional[str]]:
        """Resolve a named request to the current version and epoch.

        Returns the bound request and the version's content key, which
        the table computed when it installed the version, so dispatch
        does not hash the graph again.  Unnamed requests (static graphs
        riding the same cluster) pass through untouched, without a key.
        Runs at every dispatch, so a retried or failed-over request
        re-pins to whatever epoch is current at its *next* dispatch —
        an unadmitted request holds no resolved state to preserve.
        """
        if request.graph_name is None:
            return request, None
        name = request.graph_name
        return (replace(request, graph=self.table.graph(name),
                        epoch=self.table.epoch(name)),
                self.table.key(name))

    def run(self, requests: List[InferenceRequest],
            deltas: List[DeltaBatch],
            retry_policy: Optional[RetryPolicy] = None) -> StreamResult:
        """Serve the mixed workload to completion.

        ``deltas`` apply at their ``submitted_s`` instants (stable-
        ordered by ``(submitted_s, delta_id)``), each before any query
        arriving at the same instant.  Delta application cannot fail
        shy of a protocol violation (:class:`~repro.errors
        .StreamError`), so ``len(records) == len(deltas)`` afterwards;
        the serving half keeps the cluster's conservation law
        ``received == served + failed + shed``.
        """
        for batch in deltas:
            if batch.graph_name not in self.table.names():
                raise StreamError(
                    f"delta {batch.delta_id} targets unknown graph "
                    f"{batch.graph_name!r}; known: {self.table.names()}")
        records: List[RepairRecord] = []

        def apply_batch(batch: DeltaBatch, now_s: float) -> None:
            records.append(self.repairer.apply(batch, now_s))

        control = [
            (batch.submitted_s,
             (lambda now_s, b=batch: apply_batch(b, now_s)))
            for batch in sorted(deltas,
                                key=lambda b: (b.submitted_s, b.delta_id))]
        result = self.cluster.run(requests, retry_policy=retry_policy,
                                  control_events=control,
                                  bind_request=self._bind)
        stats = StreamStats(
            num_graphs=len(self.table.names()),
            num_deltas=len(deltas),
            records=records,
            epochs=self.table.epochs(),
            cluster=result.stats)
        return StreamResult(responses=result.responses, stats=stats)
