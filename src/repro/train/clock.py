"""Simulated wall clock: converting kernel plans into per-epoch seconds.

Training loops do their numerics on the numpy engine (whose host speed
is irrelevant to the paper's claims) and charge *simulated* GPU time
from the kernel plans.  An :class:`EpochCostModel` simulates a few
representative batches once and reuses the mean batch time — valid
because the kernel mix of an epoch is composition-stationary.

:class:`SimulatedClock` is the injectable time source those simulated
seconds flow through; the serving event loop reuses it so load tests
replay in deterministic simulated time instead of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.errors import SimulationError
from repro.graph.batch import GraphBatch
from repro.graph.graph import Graph
from repro.memsim.device import GPUDevice, GTX_1080
from repro.memsim.profiler import Profiler
from repro.models.kernel_plans import BACKWARD_FACTOR, simulate_batch
from repro.models.runtime import BaselineRuntime, MegaRuntime


#: Representative batches an :class:`EpochCostModel` simulates per
#: measurement; more would average out batch-composition noise at
#: simulation cost.
SAMPLE_BATCHES = 2


class SimulatedClock:
    """Injectable monotone clock for deterministic event loops.

    Training charges simulated seconds per epoch; the serving event
    loop (:mod:`repro.serve.server`) needs the same simulated-time
    discipline at sub-batch granularity.  The clock only ever moves
    forward: ``advance_to`` with a timestamp in the past is a no-op, so
    callers can re-announce deadlines without rewinding history.

    Every clock starts at 0.  Tests inject their own instance (or a
    subclass) to start at an offset, by advancing it first, or to record
    every advance.
    """

    def __init__(self) -> None:
        self._now_s = 0.0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now_s

    def advance(self, dt_s: float) -> float:
        """Move forward by ``dt_s`` seconds; returns the new time."""
        if not np.isfinite(dt_s) or dt_s < 0.0:
            raise SimulationError(
                f"clock can only advance by a finite dt >= 0, got {dt_s}")
        self._now_s += float(dt_s)
        return self._now_s

    def advance_to(self, t_s: float) -> float:
        """Move forward to ``t_s`` (no-op when already past it)."""
        if not np.isfinite(t_s):
            raise SimulationError(f"clock target must be finite, got {t_s}")
        self._now_s = max(self._now_s, float(t_s))
        return self._now_s


@dataclass
class EpochCost:
    """Simulated cost summary for one training epoch."""

    batch_seconds: float
    num_batches: int
    profiler: Profiler

    @property
    def epoch_seconds(self) -> float:
        return self.batch_seconds * self.num_batches


class EpochCostModel:
    """Estimates simulated epoch time for a (dataset, model, method) trio.

    ``method`` is ``"baseline"`` or ``"mega"``.  Each :meth:`measure`
    simulates :data:`SAMPLE_BATCHES` representative batches.
    """

    def __init__(self, model_name: str, method: str,
                 hidden_dim: int, num_layers: int,
                 batch_size: int,
                 mega_config: Optional[MegaConfig] = None,
                 seed: int = 0):
        if method not in ("baseline", "mega"):
            raise SimulationError(f"unknown method {method!r}")
        self.model_name = model_name
        self.method = method
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.batch_size = batch_size
        self.mega_config = mega_config or MegaConfig()
        self.seed = seed
        self._cache: Dict[str, EpochCost] = {}

    def _runtime_for(self, graphs: Sequence[Graph],
                     paths: Optional[Sequence[PathRepresentation]]):
        batch = GraphBatch(list(graphs))
        if self.method == "baseline":
            return BaselineRuntime(batch)
        if paths is None:
            paths = [PathRepresentation.from_graph(g, self.mega_config)
                     for g in graphs]
        return MegaRuntime(batch, list(paths))

    def measure(self, graphs: Sequence[Graph],
                paths: Optional[Sequence[PathRepresentation]] = None,
                cache_key: Optional[str] = None) -> EpochCost:
        """Simulate representative batches and return the epoch cost.

        ``paths`` (aligned with ``graphs``) avoids re-running the
        preprocessing when the caller already has them.
        """
        if cache_key is not None and cache_key in self._cache:
            return self._cache[cache_key]
        graphs = list(graphs)
        if not graphs:
            raise SimulationError("cannot cost an empty dataset")
        num_batches = int(np.ceil(len(graphs) / self.batch_size))
        rng = np.random.default_rng(self.seed)
        profiler = Profiler()
        device = GPUDevice(GTX_1080)
        times: List[float] = []
        for _ in range(SAMPLE_BATCHES):
            idx = rng.choice(len(graphs),
                             size=min(self.batch_size, len(graphs)),
                             replace=False)
            chosen = [graphs[i] for i in idx]
            chosen_paths = ([paths[i] for i in idx]
                            if paths is not None else None)
            runtime = self._runtime_for(chosen, chosen_paths)
            before = profiler.total_time
            simulate_batch(self.model_name, runtime, device,
                           self.hidden_dim, self.num_layers,
                           profiler=profiler)
            times.append(profiler.total_time - before)
        batch_seconds = float(np.mean(times)) * BACKWARD_FACTOR
        cost = EpochCost(batch_seconds=batch_seconds,
                         num_batches=num_batches, profiler=profiler)
        if cache_key is not None:
            self._cache[cache_key] = cost
        return cost
