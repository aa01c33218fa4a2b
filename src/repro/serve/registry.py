"""Model registry: from a named spec to a ready-to-serve model.

Serving starts where training ended: a PR-4 checkpoint
(:mod:`repro.train.checkpoint`, atomic ``.npz`` archives).  A
:class:`ModelSpec` records everything needed to rebuild the model that
wrote the checkpoint — architecture, dataset (for encoder vocabulary
sizes), dimensions — and :class:`ModelRegistry` resolves a name to a
:class:`LoadedModel` with weights restored.  A spec without a
checkpoint path serves freshly initialised weights, which keeps smoke
tests and cold-start demos checkpoint-free.

Checkpoint mismatches surface as
:class:`~repro.errors.CheckpointError` naming the offending key (the
PR-4 contract), never as a shape error mid-request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.datasets import check_scale, load_dataset
from repro.datasets.base import GraphDataset
from repro.errors import ConfigError, ServeError
from repro.models.base import GNNModel
from repro.train.checkpoint import load_checkpoint
from repro.train.trainer import MODEL_CLASSES, build_model


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to rebuild one servable model."""

    model: str = "GT"
    dataset: str = "ZINC"
    scale: float = 0.02
    hidden_dim: int = 64
    num_layers: int = 4
    seed: int = 0
    checkpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.model not in MODEL_CLASSES:
            raise ConfigError(
                f"unknown model {self.model!r}; "
                f"choose from {sorted(MODEL_CLASSES)}")
        check_scale(self.scale)


@dataclass(frozen=True)
class LoadedModel:
    """A resolved spec: model with weights, plus its dataset context.

    ``epoch``/``metric`` are the checkpoint's training metadata
    (0 / 0.0 when serving fresh weights).
    """

    name: str
    spec: ModelSpec
    model: GNNModel
    dataset: GraphDataset
    epoch: int = 0
    metric: float = 0.0


class ModelRegistry:
    """Name -> :class:`ModelSpec` mapping with checkpoint-backed loads."""

    def __init__(self) -> None:
        self._specs: Dict[str, ModelSpec] = {}

    def register(self, name: str, spec: ModelSpec) -> None:
        """Add one spec; re-registering a name is an error (no shadowing)."""
        if name in self._specs:
            raise ServeError(f"model {name!r} is already registered")
        self._specs[name] = spec

    def names(self) -> List[str]:
        return sorted(self._specs)

    def spec(self, name: str) -> ModelSpec:
        if name not in self._specs:
            raise ServeError(
                f"unknown model {name!r}; registered: {self.names()}")
        return self._specs[name]

    def with_checkpoint(self, name: str, checkpoint: str) -> ModelSpec:
        """The registered spec re-pointed at another checkpoint file."""
        return replace(self.spec(name), checkpoint=checkpoint)

    def load(self, name: str) -> LoadedModel:
        """Build the model for ``name`` and restore its checkpoint."""
        spec = self.spec(name)
        dataset = load_dataset(spec.dataset, scale=spec.scale)
        model = build_model(spec.model, dataset,
                            hidden_dim=spec.hidden_dim,
                            num_layers=spec.num_layers, seed=spec.seed)
        epoch, metric = 0, 0.0
        if spec.checkpoint is not None:
            meta = load_checkpoint(spec.checkpoint, model)
            epoch, metric = meta["epoch"], meta["metric"]
        model.eval()
        return LoadedModel(name=name, spec=spec, model=model,
                           dataset=dataset, epoch=epoch, metric=metric)
