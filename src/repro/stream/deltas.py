"""The edge-update delta protocol and the named-graph epoch table.

Streaming clients do not ship whole graphs: they submit
:class:`DeltaBatch` objects — ordered insert/delete operations against
a *named* graph the server already holds.  Two rules make the protocol
safe to replay at-least-once:

* **Idempotent ops** — inserting a present edge and deleting an absent
  edge are counted no-ops, never errors (matching
  :class:`repro.core.incremental.IncrementalPath`).
* **Monotone epochs** — every applied batch bumps the named graph's
  epoch by exactly one in :class:`GraphTable`, and the pair
  ``(content key, epoch)`` is the versioned identity the invalidation
  protocol keys on: the *old* content key is evicted from every cache
  tier, the *new* key is seeded with the repaired schedule, and
  requests already admitted replay against the representation they
  pinned at admission.

:func:`apply_delta_ops` is the pure structural half: it rewrites the
COO edge arrays (original record order preserved, inserts appended in
first-insert order) and maintains the edge-feature matrix so the
updated graph stays a valid model input — inserted edges get a
zero/neutral feature row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MegaConfig
from repro.core.incremental import DELTA_OPS
from repro.errors import StreamError
from repro.graph.graph import Graph
from repro.pipeline.hashing import schedule_cache_key


@dataclass(frozen=True)
class EdgeDelta:
    """One edge operation: ``op`` in :data:`repro.core.incremental
    .DELTA_OPS`, endpoints ``u``/``v`` (order-insensitive)."""

    op: str
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.op not in DELTA_OPS:
            raise StreamError(
                f"unknown delta op {self.op!r}; one of {DELTA_OPS}")
        if self.u < 0 or self.v < 0:
            raise StreamError(
                f"delta endpoints must be >= 0, got ({self.u}, {self.v})")

    @property
    def key(self) -> Tuple[int, int]:
        """Canonical (min, max) undirected edge key."""
        return (min(self.u, self.v), max(self.u, self.v))

    def as_tuple(self) -> Tuple[str, int, int]:
        """The ``(op, u, v)`` form the core tracker consumes."""
        return (self.op, self.u, self.v)


@dataclass(frozen=True)
class DeltaBatch:
    """One client submission: ordered ops against one named graph.

    ``delta_id`` identifies the batch in records and logs;
    ``submitted_s`` is the simulated arrival time — batches apply
    atomically at that instant, between request arrivals, on the
    cluster's single event heap.
    """

    delta_id: int
    graph_name: str
    ops: Tuple[EdgeDelta, ...]
    submitted_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.graph_name:
            raise StreamError("delta batch needs a graph name")
        if not self.ops:
            raise StreamError(
                f"delta batch {self.delta_id} has no operations")
        if self.submitted_s < 0.0:
            raise StreamError(
                f"submitted_s must be >= 0, got {self.submitted_s}")

    def op_tuples(self) -> List[Tuple[str, int, int]]:
        """All ops as ``(op, u, v)`` tuples, in submission order."""
        return [d.as_tuple() for d in self.ops]


def apply_delta_ops(graph: Graph, ops: Sequence[EdgeDelta]) -> Graph:
    """The graph after ``ops``, as a new :class:`Graph`.

    Surviving original edge records keep their order, orientation and
    feature rows; inserted edges are appended in first-insert order
    with a zero feature row (features are model inputs the delta
    protocol does not carry — a neutral row keeps the graph loadable).
    Duplicate inserts and deletes of absent edges are no-ops, matching
    the tracker, so applying a batch twice is applying it once.
    """
    src = graph.src.tolist()
    dst = graph.dst.tolist()
    alive = {(min(s, d), max(s, d)) for s, d in zip(src, dst)}
    new_keys: List[Tuple[int, int]] = []
    new_pairs: List[Tuple[int, int]] = []
    new_set = set()
    for delta in ops:
        key = delta.key
        if delta.op == "insert":
            if key in alive or key in new_set:
                continue
            new_set.add(key)
            new_keys.append(key)
            new_pairs.append((delta.u, delta.v))
        else:
            if key in alive:
                alive.discard(key)
            elif key in new_set:
                new_set.discard(key)
                index = new_keys.index(key)
                new_keys.pop(index)
                new_pairs.pop(index)
    kept = [i for i, (s, d) in enumerate(zip(src, dst))
            if (min(s, d), max(s, d)) in alive]
    out_src = [src[i] for i in kept] + [u for u, _ in new_pairs]
    out_dst = [dst[i] for i in kept] + [v for _, v in new_pairs]
    edge_features = None
    if graph.edge_features is not None:
        features = np.asarray(graph.edge_features)
        rows = [features[i] for i in kept]
        blank = np.zeros_like(features[0]) if len(features) \
            else np.zeros((), dtype=features.dtype)
        rows.extend(blank for _ in new_pairs)
        edge_features = (np.stack(rows) if rows
                         else features[:0].copy())
    return Graph(graph.num_nodes,
                 np.asarray(out_src, np.int64),
                 np.asarray(out_dst, np.int64),
                 undirected=graph.undirected,
                 node_features=graph.node_features,
                 edge_features=edge_features,
                 label=graph.label)


@dataclass
class NamedGraph:
    """One named graph's current version: structure and epoch."""

    graph: Graph
    epoch: int


class GraphTable:
    """The server's named graphs, each with a monotone epoch.

    Epoch 0 is the registered graph; every applied delta batch installs
    a new :class:`Graph` and bumps the epoch by one.  A version's
    content key is its graph's
    (:func:`repro.pipeline.hashing.schedule_cache_key`), so epochs with
    different structure keep distinct keys.  The table is the single
    source of truth the request binder reads at dispatch time: bind =
    (current graph, current epoch), which is what "new admissions see
    the repaired schedule" means operationally.
    """

    def __init__(self, graphs: Mapping[str, Graph],
                 config: Optional[MegaConfig] = None):
        if not graphs:
            raise StreamError("graph table needs at least one named graph")
        self.config = config or MegaConfig()
        self._states: Dict[str, NamedGraph] = {}
        for name in sorted(graphs):
            if not name:
                raise StreamError("graph names must be non-empty")
            self._states[name] = NamedGraph(graph=graphs[name], epoch=0)

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._states)

    def _state(self, name: str) -> NamedGraph:
        state = self._states.get(name)
        if state is None:
            raise StreamError(
                f"unknown graph {name!r}; known: {self.names()}")
        return state

    def graph(self, name: str) -> Graph:
        """The current version of ``name``."""
        return self._state(name).graph

    def epoch(self, name: str) -> int:
        """The current epoch of ``name`` (0 until a delta applies)."""
        return self._state(name).epoch

    def key(self, name: str) -> str:
        """The current content key of ``name``."""
        return schedule_cache_key(self.graph(name), self.config)

    def epochs(self) -> Dict[str, int]:
        """``name -> epoch`` for every registered graph, sorted by name."""
        return {name: self._states[name].epoch for name in self.names()}

    def advance(self, name: str, graph: Graph) -> Tuple[str, str, int]:
        """Install ``graph`` as the next epoch of ``name``.

        Returns ``(old_key, new_key, new_epoch)``.  The keys may be
        equal when a batch was entirely no-ops — the caller skips
        invalidation in that case (nothing structural changed).
        """
        old_key = self.key(name)
        state = self._state(name)
        state.graph = graph
        state.epoch += 1
        return old_key, self.key(name), state.epoch
