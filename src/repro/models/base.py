"""Model shell shared by the two evaluated GNNs: encoders, trunk, readout."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.datasets.base import GraphDataset
from repro.errors import ConfigError, ShapeError
from repro.graph.batch import GraphBatch
from repro.models.runtime import AggregationRuntime
from repro.tensor import Embedding, Linear, MLP, Module, Tensor
from repro.tensor import functional as F


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters shared by GatedGCN and GT."""

    hidden_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    task: str = "regression"
    num_node_types: int = 0      # 0 => continuous node features
    node_feature_dim: int = 0    # used when num_node_types == 0
    num_edge_types: int = 1
    num_classes: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise ConfigError("hidden_dim and num_layers must be positive")
        if self.task not in ("regression", "classification"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.num_node_types == 0 and self.node_feature_dim == 0:
            raise ConfigError(
                "need categorical node types or a continuous feature dim")

    @classmethod
    def for_dataset(cls, dataset: GraphDataset, hidden_dim: int = 64,
                    num_layers: int = 4, num_heads: int = 4,
                    seed: int = 0) -> "ModelConfig":
        """Derive encoder/head sizes from a dataset."""
        sample = dataset.train[0]
        node_feats = np.asarray(sample.node_features)
        continuous = node_feats.ndim == 2
        return cls(
            hidden_dim=hidden_dim, num_layers=num_layers,
            num_heads=num_heads, task=dataset.task,
            num_node_types=0 if continuous else max(dataset.num_node_types, 1),
            node_feature_dim=node_feats.shape[1] if continuous else 0,
            num_edge_types=max(dataset.num_edge_types, 1),
            num_classes=dataset.num_classes if dataset.task == "classification"
            else 1,
            seed=seed)


class GNNModel(Module):
    """Encoders + a stack of message-passing layers + mean readout.

    Subclasses populate ``self.layers`` with backend-agnostic layers;
    everything else (embedding lookups, readout, loss) is shared so the
    baseline-vs-MEGA comparison changes nothing but the runtime.
    """

    model_name = "gnn"

    def __init__(self, config: ModelConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._rng = rng
        d = config.hidden_dim
        if config.num_node_types > 0:
            self.node_encoder = Embedding(config.num_node_types, d, rng=rng)
            self._continuous_nodes = False
        else:
            self.node_encoder = Linear(config.node_feature_dim, d, rng=rng)
            self._continuous_nodes = True
        # One extra slot reserved for the virtual edge type used by the
        # global-attention comparator runtime.
        self.edge_encoder = Embedding(config.num_edge_types + 1, d, rng=rng)
        self.layers: List[Module] = []
        self._build_layers(rng)
        out_dim = config.num_classes if config.task == "classification" else 1
        self.head = MLP(d, d // 2 if d >= 2 else d, out_dim,
                        num_layers=2, rng=rng)

    def _build_layers(self, rng: np.random.Generator) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    def encode(self, batch: GraphBatch, runtime: AggregationRuntime):
        feats = batch.graph.node_features
        if feats is None:
            raise ShapeError("batch has no node features")
        feats = np.asarray(feats)
        if self._continuous_nodes:
            h = self.node_encoder(Tensor(feats))
        else:
            h = self.node_encoder(feats.astype(np.int64))
        edge_types = np.asarray(batch.graph.edge_features).astype(np.int64)
        # Per-message edge state (DGL's bidirected convention); virtual
        # pairs (global attention) map to the reserved encoder slot.
        message_types = runtime.message_edge_types(
            edge_types, virtual_type=self.config.num_edge_types)
        e = self.edge_encoder(message_types)
        return h, e

    def forward(self, batch: GraphBatch,
                runtime: AggregationRuntime) -> Tensor:
        h, e = self.encode(batch, runtime)
        for layer in self.layers:
            h, e = layer(h, e, runtime)
        pooled = runtime.readout_mean(h)
        out = self.head(pooled)
        if self.config.task == "regression":
            return out.reshape(len(pooled))
        return out

    def loss(self, predictions: Tensor, labels: np.ndarray) -> Tensor:
        if self.config.task == "regression":
            return F.l1_loss(predictions, Tensor(np.asarray(labels, float)))
        return F.cross_entropy(predictions, labels)

    def metric(self, predictions: Tensor, labels: np.ndarray) -> float:
        """MAE for regression (lower better); accuracy for classification."""
        if self.config.task == "regression":
            return float(np.abs(predictions.data
                                - np.asarray(labels, float)).mean())
        return F.accuracy(predictions, labels)
