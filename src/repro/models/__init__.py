"""GNN models (GatedGCN, Graph Transformer) over pluggable runtimes."""

from repro.models.base import GNNModel, ModelConfig
from repro.models.gat import GAT, GATLayer
from repro.models.gated_gcn import GatedGCN
from repro.models.graph_transformer import GraphTransformer
from repro.models.layers import GatedGCNLayer, GraphTransformerLayer
from repro.models.model_stats import ModelStats, compute_model_stats, table_one
from repro.models.kernel_plans import BACKWARD_FACTOR, simulate_batch
from repro.models.runtime import (
    AggregationRuntime,
    BaselineRuntime,
    GlobalAttentionRuntime,
    MegaRuntime,
)

__all__ = [
    "GNNModel",
    "ModelConfig",
    "GatedGCN",
    "GAT",
    "GATLayer",
    "GraphTransformer",
    "GatedGCNLayer",
    "GraphTransformerLayer",
    "AggregationRuntime",
    "BaselineRuntime",
    "GlobalAttentionRuntime",
    "MegaRuntime",
    "ModelStats",
    "compute_model_stats",
    "table_one",
    "simulate_batch",
    "BACKWARD_FACTOR",
]
