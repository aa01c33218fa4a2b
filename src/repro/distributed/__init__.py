"""Distributed-training analysis: partitioners, communication models
and round simulators."""

from repro.distributed.comm import (
    CommReport,
    communication_sweep,
    edge_cut_communication,
    path_partition_communication,
)
from repro.distributed.path_partition import (
    PathPartition,
    partition_path,
    path_communication,
)
from repro.distributed.simulate import (
    ClusterSpec,
    DeviceStats,
    RoundReport,
    edge_cut_device_stats,
    path_device_stats,
    scaling_sweep,
    simulate_edge_cut_round,
    simulate_path_round,
)

__all__ = [
    "CommReport",
    "edge_cut_communication",
    "path_partition_communication",
    "communication_sweep",
    "PathPartition",
    "partition_path",
    "path_communication",
    "ClusterSpec",
    "DeviceStats",
    "RoundReport",
    "edge_cut_device_stats",
    "path_device_stats",
    "simulate_edge_cut_round",
    "simulate_path_round",
    "scaling_sweep",
]
