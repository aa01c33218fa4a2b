"""Content-addressed cache keys for traversal schedules.

A schedule is a pure function of three inputs, so the cache key hashes
exactly those three and nothing else:

1. **Graph structure** — the CSR arrays (offsets, indices, edge ids)
   plus ``num_nodes`` and directedness.  CSR is canonical under edge
   reordering of the COO lists *per destination row*, and cheap to
   build; features and labels are deliberately excluded because
   Algorithm 1 never reads them.
2. **Config** — every :class:`~repro.core.config.MegaConfig` field (the
   seed participates: it changes tie-breaking and edge dropping).
3. **Schedule code version** — :data:`SCHEDULE_CODE_VERSION`, bumped
   whenever the traversal changes behaviour, so stale schedules from
   older code can never be served.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np

from repro.core.config import MegaConfig
from repro.graph.csr import build_csr
from repro.graph.graph import Graph

#: Bump when `repro.core.schedule.traverse` or
#: `PathRepresentation.from_graph` (edge dropping, window choice) change
#: the schedule they produce.  Plans are derived from the schedule on
#: every load, never cached, so they need no bump.
SCHEDULE_CODE_VERSION = 1

#: Layout version of the cached ``.npz`` payload (see ``cache.py``).
#: Version 2 stores the schedule only; a version-1 payload (schedule
#: plus attention plan) reads as a ``corrupt_payload`` miss.
CACHE_FORMAT_VERSION = 2


def graph_fingerprint(graph: Graph) -> bytes:
    """Canonical byte string of a graph's structure (CSR form)."""
    csr = build_csr(graph, by="dst")
    head = (f"graph:n={graph.num_nodes}:"
            f"undirected={int(graph.undirected)}:").encode()
    return b"".join([
        head,
        np.ascontiguousarray(csr.offsets, dtype=np.int64).tobytes(),
        np.ascontiguousarray(csr.indices, dtype=np.int64).tobytes(),
        np.ascontiguousarray(csr.edge_ids, dtype=np.int64).tobytes(),
    ])


def config_fingerprint(config: MegaConfig) -> bytes:
    """Canonical byte string of every config field, in field order."""
    parts = [f"{f.name}={getattr(config, f.name)!r}"
             for f in fields(config)]
    return ("config:" + ";".join(parts)).encode()


def schedule_cache_key(graph: Graph, config: MegaConfig) -> str:
    """Hex digest addressing the schedule of ``(graph, config)``.

    Two graphs with identical structure share a key even if their
    features differ — the traversal cannot tell them apart.
    """
    h = hashlib.sha256()
    h.update(f"mega-schedule:v{SCHEDULE_CODE_VERSION}:".encode())
    h.update(config_fingerprint(config))
    h.update(b"|")
    h.update(graph_fingerprint(graph))
    return h.hexdigest()


def file_checksum(data: bytes) -> str:
    """Checksum recorded in the index and verified on every read."""
    return hashlib.sha256(data).hexdigest()
