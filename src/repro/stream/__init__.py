"""Dynamic-graph serving: the streaming layer above :mod:`repro.cluster`.

The paper motivates MEGA with latency-constrained dynamic workloads —
graphs that change while they are being served.  This package makes
that concrete without giving up byte-identical replay:

- :mod:`repro.stream.deltas` — the edge-update protocol
  (:class:`EdgeDelta` / :class:`DeltaBatch`, idempotent by
  construction), :func:`apply_delta_ops` (pure COO rewrite, feature
  rows maintained) and the :class:`GraphTable` of named graphs with
  monotone epochs and content keys.
- :mod:`repro.stream.repair` — the :class:`ScheduleRepairer`: per
  delta batch, an analytic :class:`~repro.core.incremental
  .RepairCostEstimate` decides between patching the schedule in place
  (:class:`~repro.core.incremental.IncrementalPath`) and rerunning
  full Algorithm 1; either way the versioned-key protocol evicts
  exactly the superseded content key from every cache tier and seeds
  the new one.
- :mod:`repro.stream.loadgen` — seeded mixed query/delta workload
  generation (:class:`StreamMix`, :func:`generate_stream`).
- :mod:`repro.stream.server` — :class:`StreamServer`: deltas as
  control events and a dispatch-time name→version binder on the
  cluster's one event heap; admitted requests stay pinned to the
  epoch they resolved, new admissions see the repaired schedule.
- :mod:`repro.stream.stats` — :class:`StreamStats`: the repair
  records, final epochs and the wrapped
  :class:`~repro.cluster.stats.ClusterStats`; ``as_dict()`` is the
  byte-identical replay surface.

Two seeded mixed runs — deltas, repairs, crashes and all — produce
identical stats bytes; see ``docs/streaming.md`` for the protocol.
"""

from repro.stream.deltas import (
    DeltaBatch,
    EdgeDelta,
    GraphTable,
    NamedGraph,
    apply_delta_ops,
)
from repro.stream.loadgen import StreamMix, generate_stream
from repro.stream.repair import (
    RepairPolicy,
    RepairRecord,
    ScheduleRepairer,
)
from repro.stream.server import StreamResult, StreamServer
from repro.stream.stats import StreamStats

__all__ = [
    "EdgeDelta",
    "DeltaBatch",
    "NamedGraph",
    "GraphTable",
    "apply_delta_ops",
    "StreamMix",
    "generate_stream",
    "RepairPolicy",
    "RepairRecord",
    "ScheduleRepairer",
    "StreamResult",
    "StreamServer",
    "StreamStats",
]
