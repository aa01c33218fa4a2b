"""Training loop: numpy-engine numerics + simulated GPU clock.

The trainer runs real gradient descent (so loss curves and accuracy are
genuine) while *time* is charged from the kernel-plan simulator: each
training epoch costs ``mean simulated batch time × batches`` on the
modelled GTX 1080, and validation costs a forward-only pass.  MEGA's
one-time CPU preprocessing (path construction) is measured in real wall
seconds and recorded separately, mirroring the paper's decoupled
preprocessing stage.

Long runs fail; :meth:`Trainer.fit` therefore speaks the repo's
resilience dialect (``docs/resilience.md``): with a ``checkpoint_dir``
it writes atomic checkpoints (model, optimiser, RNG, scheduler, clock,
history) every ``checkpoint_every`` epochs, ``resume=True`` continues
the exact trajectory after a crash, and a non-finite loss rolls back to
the last checkpoint with learning-rate backoff instead of emitting
garbage metrics.  A :class:`~repro.resilience.FaultPlan` can inject NaN
losses and preprocessing faults to drill every one of those paths
deterministically.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.core.atomic_io import sweep_stale_tmp
from repro.core.config import MegaConfig
from repro.datasets.base import GraphDataset
from repro.errors import ConfigError, DivergenceError
from repro.graph.batch import GraphBatch
from repro.models.base import GNNModel, ModelConfig
from repro.models.gat import GAT
from repro.models.gated_gcn import GatedGCN
from repro.models.graph_transformer import GraphTransformer
from repro.models.kernel_plans import BACKWARD_FACTOR
from repro.models.runtime import BaselineRuntime, MegaRuntime
from repro.resilience import FaultPlan, RetryPolicy
from repro.tensor import no_grad
from repro.tensor.optim import Adam, ReduceLROnPlateau
from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.clock import EpochCostModel
from repro.train.metrics import EpochRecord, History

MODEL_CLASSES = {"GCN": GatedGCN, "GT": GraphTransformer, "GAT": GAT}

#: File name of the rolling checkpoint inside ``checkpoint_dir``.
CHECKPOINT_NAME = "checkpoint.npz"

#: Global gradient-norm bound applied before every optimiser step.
GRAD_CLIP = 5.0


def build_model(model_name: str, dataset: GraphDataset,
                hidden_dim: int = 64, num_layers: int = 4,
                num_heads: int = 4, seed: int = 0) -> GNNModel:
    """Instantiate one of the paper's two models for a dataset."""
    if model_name not in MODEL_CLASSES:
        raise ConfigError(
            f"unknown model {model_name!r}; choose from {sorted(MODEL_CLASSES)}")
    config = ModelConfig.for_dataset(
        dataset, hidden_dim=hidden_dim, num_layers=num_layers,
        num_heads=num_heads, seed=seed)
    return MODEL_CLASSES[model_name](config)


class Trainer:
    """End-to-end training of one model under one aggregation method."""

    def __init__(self, model: GNNModel, dataset: GraphDataset,
                 method: str = "baseline", batch_size: int = 64,
                 lr: float = 1e-3,
                 mega_config: Optional[MegaConfig] = None,
                 seed: int = 0,
                 workers: int = 1,
                 cache_dir=None,
                 max_retries: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 sleep=None):
        if method not in ("baseline", "mega"):
            raise ConfigError(f"unknown method {method!r}")
        self.model = model
        self.dataset = dataset
        self.method = method
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.mega_config = mega_config or MegaConfig()
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.scheduler = ReduceLROnPlateau(self.optimizer)
        self.fault_plan = fault_plan
        self.rollbacks = 0
        self._injected_nans: set = set()

        self.preprocess_s = 0.0
        self.pipeline_stats = None
        self._paths: dict = {}
        if method == "mega":
            # Batch preprocessing through the pipeline: parallel across
            # `workers` processes, persistent when `cache_dir` is set.
            from repro.pipeline import precompute_paths

            retry = (RetryPolicy(max_attempts=max_retries)
                     if max_retries is not None else None)
            start = time.perf_counter()
            graphs = dataset.all_graphs()
            pre = precompute_paths(graphs, self.mega_config,
                                   workers=workers, cache_dir=cache_dir,
                                   retry=retry, fault_plan=fault_plan,
                                   sleep=sleep)
            self._paths = {id(g): rep
                           for g, rep in zip(graphs, pre.paths)}
            self.pipeline_stats = pre.stats
            self.preprocess_s = time.perf_counter() - start

        self.cost_model = EpochCostModel(
            model_name=model.model_name, method=method,
            hidden_dim=model.config.hidden_dim,
            num_layers=model.config.num_layers,
            batch_size=batch_size, mega_config=self.mega_config,
            seed=seed)

    # ------------------------------------------------------------------
    def _runtime(self, graphs: Sequence):
        batch = GraphBatch(list(graphs))
        if self.method == "baseline":
            return batch, BaselineRuntime(batch)
        paths = [self._paths[id(g)] for g in graphs]
        return batch, MegaRuntime(batch, paths)

    def _epoch_cost_seconds(self, split: str) -> float:
        graphs = self.dataset.splits[split]
        paths = ([self._paths[id(g)] for g in graphs]
                 if self.method == "mega" else None)
        cost = self.cost_model.measure(graphs, paths=paths, cache_key=split)
        if split == "train":
            return cost.epoch_seconds
        # Validation/test: forward only.
        return cost.epoch_seconds / BACKWARD_FACTOR

    # ------------------------------------------------------------------
    def train_epoch(self) -> float:
        """One optimisation pass over the training split; returns mean loss."""
        self.model.train()
        graphs = self.dataset.train
        order = self.rng.permutation(len(graphs))
        losses: List[float] = []
        for start in range(0, len(graphs), self.batch_size):
            chosen = [graphs[i] for i in order[start:start + self.batch_size]]
            batch, runtime = self._runtime(chosen)
            predictions = self.model(batch, runtime)
            loss = self.model.loss(predictions, batch.labels)
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.clip_grad_norm(GRAD_CLIP)
            self.optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses))

    def evaluate(self, split: str = "validation") -> float:
        """Validation metric (MAE or accuracy) over one split."""
        self.model.eval()
        graphs = self.dataset.splits[split]
        metrics: List[float] = []
        weights: List[int] = []
        for start in range(0, len(graphs), self.batch_size):
            chosen = graphs[start:start + self.batch_size]
            batch, runtime = self._runtime(chosen)
            with no_grad():
                predictions = self.model(batch, runtime)
            metrics.append(self.model.metric(predictions, batch.labels))
            weights.append(len(chosen))
        return float(np.average(metrics, weights=weights))

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _checkpoint_extra(self, clock: float, history: History) -> dict:
        rng_json = json.dumps(self.rng.bit_generator.state).encode()
        best = self.scheduler._best
        records = np.asarray(
            [[r.epoch, r.sim_time_s, r.train_loss, r.val_metric,
              r.learning_rate, r.preprocess_s] for r in history.records],
            dtype=np.float64).reshape(-1, 6)
        return {
            "rng_state": np.frombuffer(rng_json, dtype=np.uint8),
            "scheduler": np.asarray(
                [np.nan if best is None else best,
                 self.scheduler._bad_epochs], dtype=np.float64),
            "clock": np.asarray([clock], dtype=np.float64),
            "history": records,
        }

    def _restore_checkpoint(self, ckpt_path: Path,
                            history: History) -> "tuple[int, float]":
        """Load a checkpoint into the live trainer; returns (epoch, clock)."""
        meta = load_checkpoint(ckpt_path, self.model,
                               optimizer=self.optimizer)
        extra = meta["extra"]
        if "rng_state" in extra:
            self.rng.bit_generator.state = json.loads(
                extra["rng_state"].tobytes().decode())
        if "scheduler" in extra:
            best, bad = (float(x) for x in extra["scheduler"])
            self.scheduler._best = None if np.isnan(best) else best
            self.scheduler._bad_epochs = int(bad)
        clock = float(extra["clock"][0]) if "clock" in extra else 0.0
        records = [EpochRecord(
            epoch=int(row[0]), sim_time_s=float(row[1]),
            train_loss=float(row[2]), val_metric=float(row[3]),
            learning_rate=float(row[4]), preprocess_s=float(row[5]))
            for row in extra.get("history", np.empty((0, 6)))]
        history.records[:] = records
        return int(meta["epoch"]), clock

    # ------------------------------------------------------------------
    def fit(self, num_epochs: int,
            target_metric: Optional[float] = None, *,
            checkpoint_dir=None, checkpoint_every: int = 1,
            resume: bool = False, max_rollbacks: int = 3,
            lr_backoff: float = 0.5) -> History:
        """Train for ``num_epochs`` (or until ``target_metric``).

        Returns the :class:`History` with per-epoch records stamped with
        cumulative simulated seconds.

        Fault tolerance (all optional, see ``docs/resilience.md``):

        - ``checkpoint_dir`` — write an atomic rolling checkpoint
          (:data:`CHECKPOINT_NAME`) every ``checkpoint_every`` epochs
          holding model, optimiser, RNG, scheduler, clock, and history.
        - ``resume=True`` — restore that checkpoint (when present) and
          continue the exact trajectory; requires ``checkpoint_dir``.
        - Non-finite loss — roll back to the last checkpoint, scale the
          learning rate by ``lr_backoff``, and retrain; after
          ``max_rollbacks`` rollbacks (or with no checkpoint to roll
          back to) raise :class:`~repro.errors.DivergenceError`.
        """
        if checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        ckpt_path: Optional[Path] = None
        if checkpoint_dir is not None:
            ckpt_dir = Path(checkpoint_dir)
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            # A save killed between mkstemp and os.replace leaves tmp
            # litter next to the (intact) previous checkpoint.
            sweep_stale_tmp(ckpt_dir)
            ckpt_path = ckpt_dir / CHECKPOINT_NAME
        if resume and ckpt_path is None:
            raise ConfigError("resume=True requires checkpoint_dir")

        history = History(
            method=self.method, model_name=self.model.model_name,
            dataset_name=self.dataset.name, task=self.dataset.task)
        train_cost = self._epoch_cost_seconds("train")
        val_cost = self._epoch_cost_seconds("validation")
        clock = 0.0
        start_epoch = 0
        if resume and ckpt_path is not None and ckpt_path.exists():
            start_epoch, clock = self._restore_checkpoint(ckpt_path, history)

        rollbacks_left = max_rollbacks
        epoch = start_epoch + 1
        while epoch <= num_epochs:
            loss = self.train_epoch()
            if (self.fault_plan is not None
                    and self.fault_plan.nan_loss_at(epoch)
                    and epoch not in self._injected_nans):
                self._injected_nans.add(epoch)
                loss = float("nan")
            if not np.isfinite(loss):
                if ckpt_path is None or not ckpt_path.exists():
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch} and no "
                        "checkpoint to roll back to")
                if rollbacks_left <= 0:
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch} persisted "
                        f"after {max_rollbacks} rollback(s)")
                rollbacks_left -= 1
                self.rollbacks += 1
                saved_epoch, clock = self._restore_checkpoint(
                    ckpt_path, history)
                # Backoff applies *after* restore: the checkpoint holds
                # the LR that diverged.
                self.optimizer.lr *= lr_backoff
                epoch = saved_epoch + 1
                continue
            metric = self.evaluate("validation")
            clock += train_cost + val_cost
            self.scheduler.step(
                -metric if self.dataset.task == "classification" else metric)
            history.add(EpochRecord(
                epoch=epoch, sim_time_s=clock, train_loss=loss,
                val_metric=metric, learning_rate=self.optimizer.lr,
                preprocess_s=self.preprocess_s))
            if ckpt_path is not None and (
                    epoch % checkpoint_every == 0 or epoch == num_epochs):
                save_checkpoint(
                    ckpt_path, self.model, optimizer=self.optimizer,
                    epoch=epoch, metric=metric,
                    extra=self._checkpoint_extra(clock, history))
            if target_metric is not None:
                reached = (metric >= target_metric
                           if self.dataset.task == "classification"
                           else metric <= target_metric)
                if reached:
                    break
            epoch += 1
        return history
