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

:meth:`GPUDevice.replay` simulates a batch as its distinct launches
plus the order that replays them (:meth:`GPUDevice.run_kernels` finds
both in a plain launch list).  Their traces, grouped by their parts, are
expanded to sectors in one vectorised step and go to the L2 in one call
that replays each distinct trace wherever it recurs; every kernel is
then priced in one numpy pass, reading each distinct launch's own
columns once.  Specs, launches and host copies are validated on
construction, so a zero bandwidth, a non-positive efficiency or a
negative copy fails here with :class:`~repro.errors.SimulationError`
rather than as an ``inf`` or ``nan`` timing; malformed traces fail in
:mod:`repro.memsim.access`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.memsim.cache import LRUCache
from repro.memsim.access import AccessTrace, sector_lines


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
    kernel_launch_us: float = 4.0
    pcie_bandwidth_gbs: float = 12.0        # PCIe 3.0 x16 effective
    gemm_efficiency: float = 0.80           # achievable fraction of peak
    atomic_penalty: float = 1.5             # scatter-atomic slowdown factor
    row_activation_lines: float = 6.0       # DRAM activation cost, in line-times
    l2_bandwidth_gbs: float = 1000.0        # L2-to-SM throughput
    l2_gap_penalty: float = 3.0             # transaction overhead, in line-times
    scatter_run_ns: float = 7.8125          # exposed stall per scattered run
    atomic_throughput_gops: float = 48.0    # device-wide atomic adds per second
    saturation_items: float = 32768.0       # parallel items to fill the device

    def __post_init__(self) -> None:
        # Pricing divides by these; a zero would surface deep inside
        # numpy as inf/nan timings instead of here.
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SimulationError(
                    f"device spec {name} must be positive, got {value!r}")
        for name in _NON_NEGATIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise SimulationError(
                    f"device spec {name} must be non-negative, got {value!r}")

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


_POSITIVE_FIELDS = (
    "num_sms", "sm_clock_ghz", "flops_per_cycle_per_sm",
    "dram_bandwidth_gbs", "l2_bytes", "l2_associativity", "sector_bytes",
    "pcie_bandwidth_gbs", "gemm_efficiency", "atomic_penalty",
    "l2_bandwidth_gbs", "atomic_throughput_gops", "saturation_items")
_NON_NEGATIVE_FIELDS = (
    "kernel_launch_us", "row_activation_lines", "l2_gap_penalty",
    "scatter_run_ns")

GTX_1080 = DeviceSpec()

# Presets for sensitivity studies: the paper's argument is that MEGA's
# benefit comes from regularising memory access, so it should persist —
# but shrink — on devices with more cache and bandwidth headroom.
V100_LIKE = DeviceSpec(
    name="V100-sim", num_sms=80, sm_clock_ghz=1.4,
    dram_bandwidth_gbs=900.0, l2_bytes=6 * 1024 * 1024,
    l2_bandwidth_gbs=2500.0, pcie_bandwidth_gbs=14.0,
    atomic_throughput_gops=120.0, saturation_items=163840.0)

A100_LIKE = DeviceSpec(
    name="A100-sim", num_sms=108, sm_clock_ghz=1.4,
    dram_bandwidth_gbs=1555.0, l2_bytes=40 * 1024 * 1024,
    l2_bandwidth_gbs=5000.0, pcie_bandwidth_gbs=25.0,
    atomic_throughput_gops=250.0, saturation_items=221184.0)

OLD_MOBILE = DeviceSpec(
    name="mobile-sim", num_sms=8, sm_clock_ghz=1.0,
    dram_bandwidth_gbs=80.0, l2_bytes=512 * 1024,
    l2_bandwidth_gbs=250.0, pcie_bandwidth_gbs=4.0,
    atomic_throughput_gops=12.0, saturation_items=8192.0)

DEVICE_PRESETS = {
    "gtx1080": GTX_1080,
    "v100": V100_LIKE,
    "a100": A100_LIKE,
    "mobile": OLD_MOBILE,
}


#: What an absent trace reads as: no accesses.
_NO_TRACE = AccessTrace.of(())


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel launch, as :meth:`GPUDevice.run_kernels` times it.

    ``loads``/``stores`` are the kernel's memory traces; the other
    fields feed the roofline (see :meth:`GPUDevice.run_kernels`).
    """

    name: str
    flops: float
    loads: Optional[AccessTrace] = None
    stores: Optional[AccessTrace] = None
    atomic_stores: bool = False
    efficiency: Optional[float] = None
    imbalance: float = 1.0
    parallel_items: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.flops >= 0:
            raise SimulationError(
                f"kernel {self.name!r}: flops must be non-negative, "
                f"got {self.flops!r}")
        if self.efficiency is not None and not self.efficiency > 0:
            raise SimulationError(
                f"kernel {self.name!r}: efficiency must be positive, "
                f"got {self.efficiency!r}")
        if self.parallel_items is not None and not self.parallel_items >= 0:
            raise SimulationError(
                f"kernel {self.name!r}: parallel_items must be "
                f"non-negative, got {self.parallel_items!r}")
        # The launch's own pricing columns, read once per batch by
        # :meth:`GPUDevice.replay` however often it is replayed.
        object.__setattr__(self, "columns", (
            float(self.flops), float(self.parallel_items is None),
            0.0 if self.parallel_items is None
            else float(self.parallel_items),
            1.0 if self.efficiency is None else float(self.efficiency),
            float(self.atomic_stores), float(self.imbalance)))


@dataclass(slots=True)
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


class GPUDevice:
    """Executes :class:`~repro.memsim.access.AccessTrace`-bearing kernels.

    The L2 cache persists across kernel launches (as on hardware) and can
    be reset between experiments with :meth:`reset`.
    """

    def __init__(self, spec: DeviceSpec = GTX_1080):
        self.spec = spec
        self.l2 = LRUCache(spec.l2_bytes, spec.sector_bytes, spec.l2_associativity)

    def reset(self) -> None:
        """Cold-start the L2 (between unrelated experiments)."""
        self.l2 = LRUCache(self.spec.l2_bytes, self.spec.sector_bytes,
                           self.spec.l2_associativity)

    # ------------------------------------------------------------------
    def _l2_pass(self, launches: Sequence[KernelLaunch],
                 order: np.ndarray) -> Dict[str, np.ndarray]:
        """Run the replayed launches' traces through the L2 as one stream.

        ``launches`` are distinct and ``order`` replays them; each
        launch contributes its loads then its stores.  Traces are
        grouped by their parts (sweeps by value, explicit rows by
        identity): every distinct trace is expanded to sectors once,
        all of them in one step (:func:`sector_lines`), and the L2
        replays each at every position it recurs (see
        :meth:`LRUCache.access_trace`).  Returns, per replayed trace
        (loads at even positions, stores at odd ones), an int64 array
        of each cache counter and of its ``useful`` bytes.  Empty and
        absent traces play one empty piece: zero everywhere.
        """
        piece_of: Dict[tuple, int] = {}
        pieces: List[AccessTrace] = []
        slots: List[int] = []
        for launch in launches:
            for trace in (launch.loads, launch.stores):
                trace = trace or _NO_TRACE
                piece = piece_of.setdefault(trace.parts, len(pieces))
                if piece == len(pieces):
                    pieces.append(trace)
                slots.append(piece)
        sector_bytes = self.spec.sector_bytes
        lines, sectors, useful = sector_lines(pieces, sector_bytes)
        plays = np.array(slots, dtype=np.int64).reshape(-1, 2)[order].ravel()
        counts = self.l2.access_trace(lines * sector_bytes, sectors, plays)
        counts["useful"] = useful[plays]
        return counts

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

        The launches are grouped by identity into their distinct objects
        and the order that replays them, and timed by :meth:`replay`.
        """
        index: Dict[int, int] = {}
        order = [index.setdefault(id(launch), len(index))
                 for launch in launches]
        return self.replay(
            list({id(launch): launch for launch in launches}.values()),
            order)

    def replay(self, launches: Sequence[KernelLaunch],
               order: Sequence[int]) -> List[KernelStats]:
        """Time the kernels ``order`` launches back to back, one record each.

        ``launches`` are a batch's distinct launches and ``order`` the
        indices that replay them, as a model's layers repeat one plan.
        Each launch's loads then stores reach the L2 in that order, as one
        stream resolved in a single pass (see :mod:`repro.memsim
        .cache`); the counters come out per trace, so each kernel is
        priced exactly as if it ran alone on the warmed cache.  All
        kernels are priced together, one array operation per step of
        the timing model below; each distinct launch's own columns
        (flops, efficiency, occupancy, imbalance) are read once.

        Per trace, effective DRAM bandwidth follows a row-buffer model:
        a maximal run of consecutive missed lines pays one activation
        (worth ``row_activation_lines`` line-transfer times), so long
        streams approach peak bandwidth and isolated misses get a small
        fraction of it.  Per kernel, the roofline adds:

        * occupancy — a kernel with too few ``parallel_items`` cannot
          fill the device, stretching its compute phase;
        * ``imbalance`` (>= 1) stretches the busy time of kernels whose
          per-warp work is skewed (neighbour aggregation over power-law
          degrees — the paper's "significant workload imbalance");
        * SM efficiency is the *ideal* kernel time (same useful bytes,
          perfectly coalesced, balanced) over the achieved time, which
          reproduces how sgemm/cub/dgl separate in nvprof.
        """
        order = np.asarray(order, dtype=np.int64)
        plan = [launches[i] for i in order.tolist()]
        spec = self.spec
        counts = self._l2_pass(launches, order)

        # Per trace: loads at even rows, stores at odd ones.
        hits, misses = counts["hits"], counts["misses"]
        sectors = hits + misses
        is_store = np.zeros(len(hits), dtype=bool)
        is_store[1::2] = True
        effective_tx = np.maximum(sectors - counts["repeat_all"], 0)
        tx_runs = np.maximum(effective_tx - counts["seq_all"], 1)
        tx_avg_run = np.where(effective_tx > 0, effective_tx / tx_runs, 1.0)
        miss_avg_run = np.where(
            misses > 0,
            misses / np.maximum(misses - counts["seq_misses"], 1), 1.0)
        # Every stored byte eventually reaches DRAM as writeback;
        # contiguous dirty lines stream out at row-buffer speed, so the
        # store stream's own contiguity sets the DRAM efficiency.
        dram_bytes = np.where(is_store, sectors, misses) * spec.sector_bytes
        run_for_dram = np.where(is_store, tx_avg_run, miss_avg_run)
        bw_scale = run_for_dram / (run_for_dram + spec.row_activation_lines)
        t_dram = dram_bytes / (spec.dram_bandwidth
                               * np.maximum(bw_scale, 1e-3))
        # Every transaction (hit or miss) crosses the L2 interconnect;
        # scattered streams pay a per-transaction gap, streams do not.
        l2_eff = tx_avg_run / (tx_avg_run + spec.l2_gap_penalty)
        t_l2 = (effective_tx * spec.sector_bytes
                / (spec.l2_bandwidth * np.maximum(l2_eff, 1e-3)))
        # Divergence stalls: each discontiguous run exposes latency the
        # warp scheduler can only partially overlap (``scatter_run_ns``
        # is what stays exposed).  Streams have ~one run and pay
        # nothing; scattered row fetches pay per row.
        t_gap = tx_runs * spec.scatter_run_ns * 1e-9
        trace_time = np.where(
            sectors > 0, np.maximum(t_dram, t_l2) + t_gap, 0.0)
        useful = counts["useful"].astype(np.float64)

        # Per kernel: each distinct launch's columns, replayed.
        flops, saturated, items, eff, atomic, imbalance = np.array(
            [launch.columns for launch in launches], dtype=np.float64
        ).reshape(-1, 6)[order].T
        utilization = np.where(
            saturated > 0, 1.0,
            np.clip(items / spec.saturation_items, 0.02, 1.0))
        t_compute_full = np.where(
            flops > 0, flops / (spec.peak_flops * eff), 0.0)
        t_compute = t_compute_full / utilization
        t_memory = trace_time[0::2] + trace_time[1::2]
        # Atomic read-modify-writes are throughput-limited per element
        # and serialise further under destination conflicts.
        t_memory = np.where(
            atomic > 0,
            (t_memory + useful[1::2] / 4.0
             / (spec.atomic_throughput_gops * 1e9)) * spec.atomic_penalty,
            t_memory)
        busy = np.maximum(t_compute, t_memory) * np.maximum(imbalance, 1.0)
        time_s = busy + spec.kernel_launch_us * 1e-6
        # Ideal execution: saturated SMs, perfectly coalesced memory;
        # unfillable SMs count as inactive cycles.
        t_ideal = np.maximum(t_compute_full,
                             (useful[0::2] + useful[1::2])
                             / spec.dram_bandwidth)
        t_ideal = np.where(busy > 0, np.minimum(t_ideal, busy), 0.0) \
            * utilization
        # nvprof's sm_efficiency measures cycles *during* kernel
        # execution, so launch overhead dilutes wall time but not the
        # efficiency metric.
        active = (busy > 0) & (t_ideal > 0)
        sm_eff = np.divide(t_ideal, busy, out=np.zeros(len(busy)),
                           where=active)
        stall = np.divide(np.maximum(0.0, busy - t_ideal), busy,
                          out=np.where(t_memory > 0, 1.0, 0.0), where=active)
        return list(map(
            KernelStats,
            [launch.name for launch in plan],
            time_s.tolist(),
            [launch.flops for launch in plan],
            sectors[0::2].tolist(), sectors[1::2].tolist(),
            (hits[0::2] + hits[1::2]).tolist(),
            (misses[0::2] + misses[1::2]).tolist(),
            (dram_bytes[0::2].astype(np.float64)
             + dram_bytes[1::2]).tolist(),
            np.clip(sm_eff, 0.0, 1.0).tolist(),
            np.clip(stall, 0.0, 1.0).tolist()))

    def memcpy(self, nbytes: float, name: str = "Memcpy") -> KernelStats:
        """Host<->device copy over PCIe."""
        if not (math.isfinite(nbytes) and nbytes >= 0):
            raise SimulationError(
                f"memcpy size must be finite and non-negative, "
                f"got {nbytes!r}")
        time_s = nbytes / self.spec.pcie_bandwidth + self.spec.kernel_launch_us * 1e-6
        return KernelStats(
            name=name, time_s=time_s, flops=0.0,
            load_transactions=0, store_transactions=0,
            l2_hits=0, l2_misses=0, dram_bytes=float(nbytes),
            sm_efficiency=0.0, memory_stall_pct=1.0)
