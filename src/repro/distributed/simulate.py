"""Simulated multi-device training rounds.

Extends the §IV-B6 communication *analysis* into a round-time *model*:
each of ``k`` simulated devices processes its partition's share of the
aggregation work, then the devices exchange boundary data.  Round time
is the slowest device's compute plus its communication — so imbalance
and message count both hurt, exactly the trade the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.path import PathRepresentation
from repro.distributed.path_partition import partition_path
from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.graph.partition import edge_cut_partition


@dataclass(frozen=True)
class ClusterSpec:
    """Interconnect parameters of the simulated cluster."""

    link_bandwidth_gbs: float = 10.0     # per-link, e.g. 10 GbE
    message_latency_us: float = 20.0     # per partition-pair handshake
    device_row_rate: float = 5e7         # aggregated feature rows/s/device

    @property
    def link_bandwidth(self) -> float:
        return self.link_bandwidth_gbs * 1e9 / 8.0  # bytes/s


@dataclass
class RoundReport:
    """One aggregation round under a layout."""

    method: str
    partitions: int
    compute_s: float          # slowest device's compute
    communication_s: float
    imbalance: float          # max/mean device load

    @property
    def total_s(self) -> float:
        return self.compute_s + self.communication_s


@dataclass(frozen=True)
class DeviceStats:
    """Per-device decomposition of one aggregation round.

    The round simulators reduce this to a :class:`RoundReport`
    (slowest device wins).
    """

    method: str
    partitions: int
    compute_s: "np.ndarray"        # per-device aggregation time
    comm_s: "np.ndarray"           # per-device exchange time
    exchange_rows: "np.ndarray"    # embedding rows each device ships/round
    peer_counts: "np.ndarray"      # distinct partners each device talks to

    def round_report(self) -> RoundReport:
        loads = self.compute_s
        mean = loads.mean() if loads.size else 0.0
        return RoundReport(
            method=self.method, partitions=self.partitions,
            compute_s=float(loads.max()) if loads.size else 0.0,
            communication_s=float(self.comm_s.max())
            if self.comm_s.size else 0.0,
            imbalance=float(loads.max() / mean) if mean else 1.0)


def edge_cut_device_stats(graph: Graph, k: int, feature_dim: int,
                          spec: Optional[ClusterSpec] = None,
                          seed: int = 0) -> DeviceStats:
    """Per-device load/communication of an edge-cut node partition."""
    spec = spec or ClusterSpec()
    if k <= 0:
        raise SimulationError("k must be positive")
    rng = np.random.default_rng(seed)
    assignment = edge_cut_partition(graph, k, rng)
    s, d = graph.directed_edges()
    # Per-device aggregation load: messages landing on its vertices.
    loads = np.bincount(assignment[d], minlength=k).astype(float)
    # Communication: every cut edge ships a row each way.  Each device
    # pays its own cross volume plus one message-latency handshake per
    # peer — the all-to-all degradation the paper cites.
    row_bytes = feature_dim * 4
    device_volume = np.zeros(k)
    device_peers = [set() for _ in range(k)]
    for a, b in zip(assignment[graph.src], assignment[graph.dst]):
        if a != b:
            device_volume[a] += 1
            device_volume[b] += 1
            device_peers[a].add(int(b))
            device_peers[b].add(int(a))
    peer_counts = np.asarray([len(p) for p in device_peers], dtype=float)
    comm = (device_volume * row_bytes / spec.link_bandwidth
            + peer_counts * spec.message_latency_us * 1e-6)
    return DeviceStats(method="edge_cut", partitions=k,
                       compute_s=loads / spec.device_row_rate,
                       comm_s=comm, exchange_rows=device_volume,
                       peer_counts=peer_counts)


def path_device_stats(path_rep: PathRepresentation, k: int,
                      feature_dim: int,
                      spec: Optional[ClusterSpec] = None) -> DeviceStats:
    """Per-device load/communication of MEGA's contiguous path partition."""
    spec = spec or ClusterSpec()
    part = partition_path(path_rep, k)
    sizes = part.sizes().astype(float)
    # Per-device load: band messages whose destination lies in the chunk
    # (proportional to chunk length for a uniform band).
    msg_per_pos = (2.0 * path_rep.band.num_edges
                   / max(path_rep.length, 1))
    loads = sizes * msg_per_pos
    row_bytes = feature_dim * 4
    halo_rows = 2.0 * path_rep.window
    # Each device exchanges halos with both neighbours, in parallel
    # across pairs: one halo transfer + latency per direction (the two
    # directions collapse onto one neighbour at k == 2).
    peer_counts = np.full(k, 2.0 if k > 1 else 0.0)
    comm = peer_counts * (halo_rows * row_bytes / spec.link_bandwidth
                          + spec.message_latency_us * 1e-6)
    return DeviceStats(method="path", partitions=k,
                       compute_s=loads / spec.device_row_rate,
                       comm_s=comm,
                       exchange_rows=peer_counts * halo_rows,
                       peer_counts=peer_counts)


def simulate_edge_cut_round(graph: Graph, k: int, feature_dim: int,
                            spec: Optional[ClusterSpec] = None,
                            seed: int = 0) -> RoundReport:
    """Round time for a balanced edge-cut node partition."""
    return edge_cut_device_stats(
        graph, k, feature_dim, spec, seed).round_report()


def simulate_path_round(path_rep: PathRepresentation, k: int,
                        feature_dim: int,
                        spec: Optional[ClusterSpec] = None) -> RoundReport:
    """Round time for MEGA's contiguous path partition."""
    return path_device_stats(path_rep, k, feature_dim, spec).round_report()


def scaling_sweep(graph: Graph, path_rep: PathRepresentation,
                  ks: List[int], feature_dim: int = 64,
                  spec: Optional[ClusterSpec] = None,
                  seed: int = 0) -> List[dict]:
    """Strong-scaling comparison across partition counts."""
    spec = spec or ClusterSpec()
    rows = []
    base_edge = simulate_edge_cut_round(graph, 1, feature_dim, spec, seed)
    base_path = simulate_path_round(path_rep, 1, feature_dim, spec)
    for k in ks:
        edge = simulate_edge_cut_round(graph, k, feature_dim, spec, seed)
        path = simulate_path_round(path_rep, k, feature_dim, spec)
        rows.append({
            "k": k,
            "edge_cut_round_s": edge.total_s,
            "path_round_s": path.total_s,
            "edge_cut_scaling": base_edge.total_s / edge.total_s,
            "path_scaling": base_path.total_s / path.total_s,
            "edge_cut_comm_share": (edge.communication_s / edge.total_s
                                    if edge.total_s else 0.0),
            "path_comm_share": (path.communication_s / path.total_s
                                if path.total_s else 0.0),
        })
    return rows
