"""Model-configuration statistics — the contents of Table I.

Parameter volume is reported in units of d² per layer (the paper's
``5d²`` / ``14d²``); scatter/gather call counts come from running one
forward pass with the runtime's instrumentation counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.batch import GraphBatch
from repro.graph.generators import molecular_like
from repro.graph.graph import Graph
from repro.models.base import GNNModel, ModelConfig
from repro.models.gated_gcn import GatedGCN
from repro.models.graph_transformer import GraphTransformer
from repro.models.runtime import BaselineRuntime
from repro.tensor import no_grad


@dataclass(frozen=True)
class ModelStats:
    """One column of Table I."""

    name: str
    parameter_volume_d2: float    # trainable matrix params / (L · d²)
    scatter_calls_per_layer: float
    gather_calls_per_layer: float
    total_parameters: int


def _probe_batch(config: ModelConfig) -> GraphBatch:
    rng = np.random.default_rng(0)
    g = molecular_like(rng, 16)
    node_feats = (rng.integers(0, max(config.num_node_types, 1), size=16)
                  if config.num_node_types > 0
                  else rng.normal(size=(16, config.node_feature_dim)))
    graph = Graph(g.num_nodes, g.src, g.dst, undirected=True,
                  node_features=node_feats,
                  edge_features=np.zeros(g.num_edges, dtype=np.int64),
                  label=0.0)
    return GraphBatch([graph])


def layer_matrix_parameters(model: GNNModel) -> int:
    """Trainable 2-D parameters inside the message-passing trunk."""
    total = 0
    for layer in model.layers:
        for _, param in layer.named_parameters():
            if param.data.ndim == 2:
                total += param.size
    return total


def compute_model_stats(model_cls, hidden_dim: int = 64,
                        num_layers: int = 4) -> ModelStats:
    """Instantiate a model and measure its Table I quantities."""
    config = ModelConfig(
        hidden_dim=hidden_dim, num_layers=num_layers, task="regression",
        num_node_types=8, num_edge_types=2, num_classes=1)
    model = model_cls(config)
    batch = _probe_batch(config)
    runtime = BaselineRuntime(batch)
    runtime.reset_counters()
    model.eval()
    with no_grad():
        model(batch, runtime)
    d2 = hidden_dim * hidden_dim
    return ModelStats(
        name=model.model_name,
        parameter_volume_d2=layer_matrix_parameters(model) / (num_layers * d2),
        scatter_calls_per_layer=runtime.counters["scatter"] / num_layers,
        gather_calls_per_layer=runtime.counters["gather"] / num_layers,
        total_parameters=model.num_parameters())


def table_one(hidden_dim: int = 64, num_layers: int = 4) -> dict:
    """Both columns of Table I."""
    return {
        "GCN": compute_model_stats(GatedGCN, hidden_dim, num_layers),
        "GT": compute_model_stats(GraphTransformer, hidden_dim, num_layers),
    }
