"""Reference kernel pricing for differential tests: one kernel at a time.

:func:`run_kernels` times launches the way the device model did before
it priced a batch in one array pass: each trace walks the given L2 on
its own call, and each kernel is priced from Python scalars by
:func:`price_trace` and :func:`price_kernel`.  Tests demand that
:meth:`repro.memsim.device.GPUDevice.run_kernels` agrees with it field
for field.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.memsim.access import AccessTrace
from repro.memsim.cache import COUNTERS
from repro.memsim.device import DeviceSpec, KernelLaunch, KernelStats

#: Priced statistics of an empty (or absent) trace.
IDLE = {"tx": 0, "hits": 0, "misses": 0, "useful": 0.0, "dram": 0.0,
        "time": 0.0}


def trace_counts(spec: DeviceSpec, l2, trace: Optional[AccessTrace]
                 ) -> Optional[Tuple[int, ...]]:
    """Walk one trace through ``l2``; ``None`` if it is empty or absent.

    Returns ``(sectors, useful bytes, hits, misses, seq_misses,
    seq_all, repeat_all)`` as Python integers.
    """
    if trace is None or not trace.num_accesses:
        return None
    stats = l2.access_trace(trace.sector_addresses(spec.sector_bytes))
    return (int(trace.sector_counts(spec.sector_bytes).sum()),
            int(trace.lengths.sum()),
            *(int(stats[key][0]) for key in COUNTERS))


def price_trace(spec: DeviceSpec, counts: Optional[Tuple[int, ...]],
                is_store: bool) -> Dict[str, float]:
    """Price one trace's DRAM and interconnect traffic."""
    if counts is None:
        return IDLE
    sectors, useful_bytes, hits, misses, seq_misses, seq_all, \
        repeat_all = counts
    effective_tx = max(sectors - repeat_all, 0)
    tx_runs = max(effective_tx - seq_all, 1)
    tx_avg_run = effective_tx / tx_runs if effective_tx else 1.0
    if is_store:
        dram_bytes = sectors * spec.sector_bytes
        run_for_dram = tx_avg_run
    else:
        dram_bytes = misses * spec.sector_bytes
        miss_runs = max(misses - seq_misses, 1)
        run_for_dram = misses / miss_runs if misses else 1.0
    bw_scale = run_for_dram / (run_for_dram + spec.row_activation_lines)
    t_dram = dram_bytes / (spec.dram_bandwidth * max(bw_scale, 1e-3))
    t_latency = (misses / max(spec.memory_concurrency, 1)) \
        * spec.dram_latency_ns * 1e-9
    l2_eff = tx_avg_run / (tx_avg_run + spec.l2_gap_penalty)
    t_l2 = (effective_tx * spec.sector_bytes
            / (spec.l2_bandwidth * max(l2_eff, 1e-3)))
    t_gap = tx_runs * spec.scatter_gap_ns * 1e-9 / spec.scatter_parallelism
    return {"tx": sectors, "hits": hits, "misses": misses,
            "useful": float(useful_bytes),
            "dram": float(dram_bytes),
            "time": max(t_dram, t_latency, t_l2) + t_gap}


def price_kernel(spec: DeviceSpec, launch: KernelLaunch,
                 lstat: Dict[str, float],
                 sstat: Dict[str, float]) -> KernelStats:
    """Roofline timing of one kernel from its priced traces."""
    flops = launch.flops
    if launch.parallel_items is None:
        utilization = 1.0
    else:
        utilization = float(np.clip(
            launch.parallel_items / spec.saturation_items, 0.02, 1.0))
    eff = launch.efficiency if launch.efficiency is not None else 1.0
    t_compute_full = flops / (spec.peak_flops * eff) if flops > 0 else 0.0
    t_compute = t_compute_full / utilization
    t_memory = lstat["time"] + sstat["time"]
    if launch.atomic_stores:
        atomic_ops = sstat["useful"] / 4.0
        t_memory += atomic_ops / (spec.atomic_throughput_gops * 1e9)
        t_memory *= spec.atomic_penalty
    busy = max(t_compute, t_memory) * max(launch.imbalance, 1.0)
    launch_s = spec.kernel_launch_us * 1e-6
    time_s = busy + launch_s

    useful_bytes = lstat["useful"] + sstat["useful"]
    t_ideal = max(t_compute_full, useful_bytes / spec.dram_bandwidth)
    t_ideal = min(t_ideal, busy) if busy > 0 else 0.0
    t_ideal *= utilization
    if busy <= 0 or t_ideal <= 0:
        sm_eff = 0.0
        stall = 1.0 if t_memory > 0 else 0.0
    else:
        sm_eff = t_ideal / busy
        stall = max(0.0, busy - t_ideal) / busy
    return KernelStats(
        name=launch.name, time_s=time_s, flops=flops,
        load_transactions=int(lstat["tx"]), store_transactions=int(sstat["tx"]),
        l2_hits=int(lstat["hits"] + sstat["hits"]),
        l2_misses=int(lstat["misses"] + sstat["misses"]),
        dram_bytes=lstat["dram"] + sstat["dram"],
        sm_efficiency=float(np.clip(sm_eff, 0.0, 1.0)),
        memory_stall_pct=float(np.clip(stall, 0.0, 1.0)))


def run_kernels(spec: DeviceSpec, l2,
                launches: Sequence[KernelLaunch]) -> List[KernelStats]:
    """Time ``launches`` in order, each trace on its own ``l2`` call."""
    records = []
    for launch in launches:
        lstat = price_trace(spec, trace_counts(spec, l2, launch.loads),
                            is_store=False)
        sstat = price_trace(spec, trace_counts(spec, l2, launch.stores),
                            is_store=True)
        records.append(price_kernel(spec, launch, lstat, sstat))
    return records
