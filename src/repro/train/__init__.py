"""Training harness: numerics on the numpy engine, time on the GPU model."""

from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.clock import EpochCost, EpochCostModel, SimulatedClock
from repro.train.convergence import ConvergenceResult, run_convergence
from repro.train.metrics import (
    EpochRecord,
    History,
    speedup_to_loss_target,
    speedup_to_target,
)
from repro.train.trainer import MODEL_CLASSES, Trainer, build_model

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "EpochCost",
    "EpochCostModel",
    "SimulatedClock",
    "EpochRecord",
    "History",
    "speedup_to_target",
    "speedup_to_loss_target",
    "Trainer",
    "build_model",
    "MODEL_CLASSES",
    "ConvergenceResult",
    "run_convergence",
]
