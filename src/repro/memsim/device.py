"""Analytical GPU device model.

The paper's measurements come from a GeForce GTX 1080 profiled with
nvprof.  :class:`DeviceSpec` captures the handful of device parameters
those measurements depend on — SM throughput, DRAM bandwidth, L2 size,
transaction (sector) granularity, and launch overhead — and
:class:`GPUDevice` turns kernel launches into nvprof-like statistics
using a roofline timing model plus a trace-driven L2 cache.

The goal is *relative* fidelity: sequential streams must beat scattered
row gathers by roughly the margin real hardware shows, dense GEMM must
look compute-bound, and kernel time must be max(compute, memory) plus a
fixed launch cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.memsim.cache import COUNTERS, LRUCache
from repro.memsim.access import AccessTrace


@dataclass(frozen=True)
class DeviceSpec:
    """Parameters of the simulated accelerator."""

    name: str = "GTX1080-sim"
    num_sms: int = 20
    sm_clock_ghz: float = 1.6
    flops_per_cycle_per_sm: float = 256.0   # 128 FMA units x 2 flops
    dram_bandwidth_gbs: float = 320.0
    l2_bytes: int = 2 * 1024 * 1024
    l2_associativity: int = 16
    sector_bytes: int = 128                 # transaction/line granularity
    dram_latency_ns: float = 400.0
    memory_concurrency: int = 2048          # in-flight lines device-wide
    kernel_launch_us: float = 4.0
    pcie_bandwidth_gbs: float = 12.0        # PCIe 3.0 x16 effective
    gemm_efficiency: float = 0.80           # achievable fraction of peak
    atomic_penalty: float = 1.5             # scatter-atomic slowdown factor
    row_activation_lines: float = 6.0       # DRAM activation cost, in line-times
    l2_bandwidth_gbs: float = 1000.0        # L2-to-SM throughput
    l2_gap_penalty: float = 3.0             # transaction overhead, in line-times
    scatter_gap_ns: float = 250.0           # stall per discontiguous run
    scatter_parallelism: float = 32.0       # runs overlapped by warp scheduling
    atomic_throughput_gops: float = 48.0    # device-wide atomic adds per second
    saturation_items: float = 32768.0       # parallel items to fill the device

    @property
    def l2_bandwidth(self) -> float:
        return self.l2_bandwidth_gbs * 1e9

    @property
    def peak_flops(self) -> float:
        return self.num_sms * self.sm_clock_ghz * 1e9 * self.flops_per_cycle_per_sm

    @property
    def dram_bandwidth(self) -> float:
        return self.dram_bandwidth_gbs * 1e9

    @property
    def pcie_bandwidth(self) -> float:
        return self.pcie_bandwidth_gbs * 1e9


GTX_1080 = DeviceSpec()

# Presets for sensitivity studies: the paper's argument is that MEGA's
# benefit comes from regularising memory access, so it should persist —
# but shrink — on devices with more cache and bandwidth headroom.
V100_LIKE = DeviceSpec(
    name="V100-sim", num_sms=80, sm_clock_ghz=1.4,
    dram_bandwidth_gbs=900.0, l2_bytes=6 * 1024 * 1024,
    l2_bandwidth_gbs=2500.0, pcie_bandwidth_gbs=14.0,
    atomic_throughput_gops=120.0, memory_concurrency=4096,
    saturation_items=163840.0)

A100_LIKE = DeviceSpec(
    name="A100-sim", num_sms=108, sm_clock_ghz=1.4,
    dram_bandwidth_gbs=1555.0, l2_bytes=40 * 1024 * 1024,
    l2_bandwidth_gbs=5000.0, pcie_bandwidth_gbs=25.0,
    atomic_throughput_gops=250.0, memory_concurrency=8192,
    saturation_items=221184.0)

OLD_MOBILE = DeviceSpec(
    name="mobile-sim", num_sms=8, sm_clock_ghz=1.0,
    dram_bandwidth_gbs=80.0, l2_bytes=512 * 1024,
    l2_bandwidth_gbs=250.0, pcie_bandwidth_gbs=4.0,
    atomic_throughput_gops=12.0, memory_concurrency=512,
    saturation_items=8192.0)

DEVICE_PRESETS = {
    "gtx1080": GTX_1080,
    "v100": V100_LIKE,
    "a100": A100_LIKE,
    "mobile": OLD_MOBILE,
}


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel launch, as :meth:`GPUDevice.run_kernels` times it.

    ``loads``/``stores`` are the kernel's memory traces; the other
    fields feed the roofline (see :meth:`GPUDevice.run_kernel`).
    """

    name: str
    flops: float
    loads: Optional[AccessTrace] = None
    stores: Optional[AccessTrace] = None
    atomic_stores: bool = False
    efficiency: Optional[float] = None
    imbalance: float = 1.0
    parallel_items: Optional[float] = None


#: Priced statistics of an empty (or absent) trace.
_IDLE = {"tx": 0, "hits": 0, "misses": 0, "useful": 0.0, "dram": 0.0,
         "time": 0.0}


@dataclass
class KernelStats:
    """nvprof-like statistics for one kernel invocation."""

    name: str
    time_s: float
    flops: float
    load_transactions: int
    store_transactions: int
    l2_hits: int
    l2_misses: int
    dram_bytes: float
    sm_efficiency: float
    memory_stall_pct: float

    @property
    def total_transactions(self) -> int:
        return self.load_transactions + self.store_transactions


class GPUDevice:
    """Executes :class:`~repro.memsim.access.AccessTrace`-bearing kernels.

    The L2 cache persists across kernel launches (as on hardware) and can
    be reset between experiments with :meth:`reset`.
    """

    def __init__(self, spec: DeviceSpec = GTX_1080):
        if spec.sector_bytes <= 0 or spec.l2_bytes <= 0:
            raise SimulationError("device spec must have positive cache sizes")
        self.spec = spec
        self.l2 = LRUCache(spec.l2_bytes, spec.sector_bytes, spec.l2_associativity)

    def reset(self) -> None:
        """Cold-start the L2 (between unrelated experiments)."""
        self.l2 = LRUCache(self.spec.l2_bytes, self.spec.sector_bytes,
                           self.spec.l2_associativity)

    # ------------------------------------------------------------------
    def _l2_pass(self, traces: Sequence[Optional[AccessTrace]]
                 ) -> List[Optional[Tuple[int, ...]]]:
        """Run ``traces`` through the L2, in order, as one sector stream.

        Each non-empty trace is one segment of the stream, so the L2 is
        called once however many traces there are.  Returns per trace
        ``(sectors, useful bytes, hits, misses, seq_misses, seq_all,
        repeat_all)``, or ``None`` for an empty or absent trace, which
        skips the L2.
        """
        out: List[Optional[Tuple[int, ...]]] = [None] * len(traces)
        live = [i for i, t in enumerate(traces)
                if t is not None and t.num_accesses]
        if not live:
            return out
        sector_bytes = self.spec.sector_bytes
        whole = AccessTrace.concatenate([traces[i] for i in live])
        rows = np.cumsum([0] + [traces[i].num_accesses for i in live[:-1]])
        sectors = np.add.reduceat(whole.sector_counts(sector_bytes), rows)
        useful = np.add.reduceat(whole.lengths, rows)
        stats = self.l2.access_trace(whole.sector_addresses(sector_bytes),
                                     sectors)
        counts = zip(sectors.tolist(), useful.tolist(),
                     *(stats[key].tolist() for key in COUNTERS))
        for i, row in zip(live, counts):
            out[i] = row
        return out

    def _price_trace(self, counts: Optional[Tuple[int, ...]],
                     is_store: bool) -> Dict[str, float]:
        """Price one trace's DRAM and interconnect traffic.

        ``counts`` is the trace's row of :meth:`_l2_pass`.  Effective
        DRAM bandwidth follows a row-buffer model: a maximal run of
        consecutive missed lines pays one activation (worth
        ``row_activation_lines`` line-transfer times), so long streams
        approach peak bandwidth and isolated misses get a small fraction
        of it.
        """
        if counts is None:
            return _IDLE
        sectors, useful_bytes, hits, misses, seq_misses, seq_all, \
            repeat_all = counts
        spec = self.spec
        effective_tx = max(sectors - repeat_all, 0)
        tx_runs = max(effective_tx - seq_all, 1)
        tx_avg_run = effective_tx / tx_runs if effective_tx else 1.0
        if is_store:
            # Every stored byte eventually reaches DRAM as writeback;
            # contiguous dirty lines stream out at row-buffer speed, so
            # the store stream's own contiguity sets the DRAM efficiency.
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
        # Every transaction (hit or miss) crosses the L2 interconnect;
        # scattered streams pay a per-transaction gap, streams do not.
        l2_eff = tx_avg_run / (tx_avg_run + spec.l2_gap_penalty)
        t_l2 = (effective_tx * spec.sector_bytes
                / (spec.l2_bandwidth * max(l2_eff, 1e-3)))
        # Divergence stalls: each discontiguous run exposes latency the
        # warp scheduler can only partially overlap.  Streams have ~one
        # run and pay nothing; scattered row fetches pay per row.
        t_gap = tx_runs * spec.scatter_gap_ns * 1e-9 / spec.scatter_parallelism
        return {"tx": sectors, "hits": hits, "misses": misses,
                "useful": float(useful_bytes),
                "dram": float(dram_bytes),
                "time": max(t_dram, t_latency, t_l2) + t_gap}

    def run_kernel(self, name: str, flops: float,
                   loads: Optional[AccessTrace] = None,
                   stores: Optional[AccessTrace] = None,
                   atomic_stores: bool = False,
                   efficiency: Optional[float] = None,
                   imbalance: float = 1.0,
                   parallel_items: Optional[float] = None) -> KernelStats:
        """Time one kernel: the one-launch case of :meth:`run_kernels`."""
        return self.run_kernels([KernelLaunch(
            name, flops, loads=loads, stores=stores,
            atomic_stores=atomic_stores, efficiency=efficiency,
            imbalance=imbalance, parallel_items=parallel_items)])[0]

    def run_kernels(self, launches: Sequence[KernelLaunch]
                    ) -> List[KernelStats]:
        """Time kernels launched back to back, in launch order.

        Each launch's loads then stores reach the L2 in that order, as
        one stream resolved in a single pass (see :mod:`repro.memsim
        .cache`); the counters come out per trace, so each kernel is
        priced exactly as if it ran alone on the warmed cache.
        """
        traces = [t for launch in launches
                  for t in (launch.loads, launch.stores)]
        counts = self._l2_pass(traces)
        return [self._price_kernel(
                    launch, self._price_trace(counts[2 * k], is_store=False),
                    self._price_trace(counts[2 * k + 1], is_store=True))
                for k, launch in enumerate(launches)]

    def _price_kernel(self, launch: KernelLaunch, lstat: Dict[str, float],
                      sstat: Dict[str, float]) -> KernelStats:
        """Roofline timing of one kernel from its priced traces.

        Refinements profiled GNN kernels need:

        * a DRAM row-buffer model scales effective bandwidth with the
          run length of missed lines, so scattered gathers pay for every
          activation while streams run at peak;
        * ``imbalance`` (>= 1) stretches the busy time of kernels whose
          per-warp work is skewed (neighbour aggregation over power-law
          degrees — the paper's "significant workload imbalance");
        * SM efficiency is the *ideal* kernel time (same useful bytes,
          perfectly coalesced, balanced) over the achieved time, which
          reproduces how sgemm/cub/dgl separate in nvprof.
        """
        spec = self.spec
        flops = launch.flops

        # Occupancy: a kernel with too little parallel work cannot fill
        # the device, stretching its compute phase (small cub sorts, tiny
        # readout GEMMs).  ``parallel_items=None`` assumes saturation.
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
            # Atomic read-modify-writes are throughput-limited per element
            # and serialise further under destination conflicts.
            atomic_ops = sstat["useful"] / 4.0
            t_memory += atomic_ops / (spec.atomic_throughput_gops * 1e9)
            t_memory *= spec.atomic_penalty
        busy = max(t_compute, t_memory) * max(launch.imbalance, 1.0)
        launch_s = spec.kernel_launch_us * 1e-6
        time_s = busy + launch_s

        useful_bytes = lstat["useful"] + sstat["useful"]
        # Ideal execution: saturated SMs, perfectly coalesced memory.
        t_ideal = max(t_compute_full, useful_bytes / spec.dram_bandwidth)
        t_ideal = min(t_ideal, busy) if busy > 0 else 0.0
        t_ideal *= utilization  # unfillable SMs count as inactive cycles
        # nvprof's sm_efficiency measures cycles *during* kernel
        # execution, so launch overhead dilutes wall time but not the
        # efficiency metric.
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

    def memcpy(self, nbytes: float, name: str = "Memcpy") -> KernelStats:
        """Host<->device copy over PCIe."""
        time_s = nbytes / self.spec.pcie_bandwidth + self.spec.kernel_launch_us * 1e-6
        return KernelStats(
            name=name, time_s=time_s, flops=0.0,
            load_transactions=0, store_transactions=0,
            l2_hits=0, l2_misses=0, dram_bytes=float(nbytes),
            sm_efficiency=0.0, memory_stall_pct=1.0)
