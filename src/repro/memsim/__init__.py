"""Analytical GPU model: device, cache, traces, kernels, profiler.

Substitutes for the paper's GTX 1080 + nvprof testbed.  Kernel timing is
a roofline (max of compute and memory time plus launch overhead); memory
time comes from DRAM transactions counted by an exact LRU model of the
L2 fed with the *actual* address traces of each kernel.
"""

from repro.memsim.access import (
    AccessTrace,
    MemoryLayout,
    row_gather_trace,
    sequential_trace,
)
from repro.memsim.cache import LRUCache
from repro.memsim.device import (
    A100_LIKE,
    DEVICE_PRESETS,
    GTX_1080,
    OLD_MOBILE,
    V100_LIKE,
    DeviceSpec,
    GPUDevice,
    KernelStats,
)
from repro.memsim.profiler import KernelAggregate, Profiler
from repro.memsim.report import compare_profiles, format_profile
from repro.memsim.trace_analysis import TraceStats, analyze_trace
from repro.memsim import kernels

__all__ = [
    "AccessTrace",
    "MemoryLayout",
    "row_gather_trace",
    "sequential_trace",
    "LRUCache",
    "DeviceSpec",
    "GPUDevice",
    "KernelStats",
    "GTX_1080",
    "V100_LIKE",
    "A100_LIKE",
    "OLD_MOBILE",
    "DEVICE_PRESETS",
    "Profiler",
    "format_profile",
    "compare_profiles",
    "TraceStats",
    "analyze_trace",
    "KernelAggregate",
    "kernels",
]
