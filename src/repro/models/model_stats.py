"""Model-configuration statistics — the contents of Table I.

Parameter volume is reported in units of d² per layer (the paper's
``5d²`` / ``14d²``), measured on the instantiated model; scatter/gather
call counts are reads of each layer's declared ops (``OPS``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.base import GNNModel, ModelConfig
from repro.models.gated_gcn import GatedGCN
from repro.models.graph_transformer import GraphTransformer
from repro.models.runtime import Gather, Scatter


@dataclass(frozen=True)
class ModelStats:
    """One column of Table I."""

    name: str
    parameter_volume_d2: float    # trainable matrix params / (L · d²)
    scatter_calls_per_layer: float
    gather_calls_per_layer: float
    total_parameters: int


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
    """Instantiate a model and read its Table I quantities."""
    config = ModelConfig(
        hidden_dim=hidden_dim, num_layers=num_layers, task="regression",
        num_node_types=8, num_edge_types=2, num_classes=1)
    model = model_cls(config)

    def per_layer(kind: type) -> float:
        return sum(layer.OPS.count(kind) for layer in model.layers) \
            / num_layers

    d2 = hidden_dim * hidden_dim
    return ModelStats(
        name=model.model_name,
        parameter_volume_d2=layer_matrix_parameters(model) / (num_layers * d2),
        scatter_calls_per_layer=per_layer(Scatter),
        gather_calls_per_layer=per_layer(Gather),
        total_parameters=model.num_parameters())


def table_one(hidden_dim: int = 64, num_layers: int = 4) -> dict:
    """Both columns of Table I."""
    return {
        "GCN": compute_model_stats(GatedGCN, hidden_dim, num_layers),
        "GT": compute_model_stats(GraphTransformer, hidden_dim, num_layers),
    }
