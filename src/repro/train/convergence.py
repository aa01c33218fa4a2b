"""End-to-end convergence experiments (Figs. 11-15).

At full coverage MEGA computes exactly the baseline function, so one
numeric training run serves both methods; only the *clock* differs.
:func:`run_convergence` exploits that: it trains once, then stamps the
same loss/metric trajectory with each method's simulated epoch cost.
When the methods genuinely diverge numerically (coverage < 1), use two
:class:`~repro.train.trainer.Trainer` instances instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import MegaConfig
from repro.datasets.base import GraphDataset
from repro.train.metrics import History, speedup_to_target
from repro.train.trainer import Trainer, build_model


@dataclass
class ConvergenceResult:
    """Both trajectories plus the paper-style convergence speedup."""

    baseline: History
    mega: History
    speedup: float
    final_metric_baseline: float
    final_metric_mega: float
    pipeline_stats: Optional[object] = None


def run_convergence(dataset: GraphDataset, model_name: str,
                    hidden_dim: int = 64, num_layers: int = 4,
                    batch_size: int = 64, num_epochs: int = 20,
                    lr: float = 1e-3,
                    mega_config: Optional[MegaConfig] = None,
                    seed: int = 0,
                    shared_numerics: bool = True,
                    workers: int = 1,
                    cache_dir=None,
                    max_retries: Optional[int] = None) -> ConvergenceResult:
    """Fig. 11-14 style experiment for one dataset/model pair.

    With ``shared_numerics`` (valid at full coverage) the model trains
    once and both methods reuse the trajectory; otherwise each method
    trains its own copy of the model from the same initial seed.
    ``workers``/``cache_dir``/``max_retries`` feed the MEGA trainer's
    preprocessing pipeline (see :mod:`repro.pipeline`).
    """
    mega_config = mega_config or MegaConfig()
    model = build_model(model_name, dataset, hidden_dim=hidden_dim,
                        num_layers=num_layers, seed=seed)
    base_trainer = Trainer(model, dataset, method="baseline",
                           batch_size=batch_size, lr=lr, seed=seed)
    base_history = base_trainer.fit(num_epochs)

    if shared_numerics:
        mega_trainer = Trainer(
            build_model(model_name, dataset, hidden_dim=hidden_dim,
                        num_layers=num_layers, seed=seed),
            dataset, method="mega", batch_size=batch_size, lr=lr,
            mega_config=mega_config, seed=seed, workers=workers,
            cache_dir=cache_dir, max_retries=max_retries)
        train_cost = mega_trainer._epoch_cost_seconds("train")
        val_cost = mega_trainer._epoch_cost_seconds("validation")
        mega_history = History(method="mega", model_name=model_name,
                               dataset_name=dataset.name, task=dataset.task)
        clock = 0.0
        for record in base_history.records:
            clock += train_cost + val_cost
            stamped = type(record)(
                epoch=record.epoch, sim_time_s=clock,
                train_loss=record.train_loss, val_metric=record.val_metric,
                learning_rate=record.learning_rate,
                preprocess_s=mega_trainer.preprocess_s)
            mega_history.add(stamped)
    else:
        mega_model = build_model(model_name, dataset, hidden_dim=hidden_dim,
                                 num_layers=num_layers, seed=seed)
        mega_trainer = Trainer(mega_model, dataset, method="mega",
                               batch_size=batch_size, lr=lr,
                               mega_config=mega_config, seed=seed,
                               workers=workers, cache_dir=cache_dir,
                               max_retries=max_retries)
        mega_history = mega_trainer.fit(num_epochs)

    speedup = speedup_to_target(mega_history, base_history)
    return ConvergenceResult(
        baseline=base_history, mega=mega_history, speedup=speedup,
        final_metric_baseline=base_history.records[-1].val_metric,
        final_metric_mega=mega_history.records[-1].val_metric,
        pipeline_stats=mega_trainer.pipeline_stats)
