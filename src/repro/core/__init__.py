"""MEGA core: the paper's primary contribution.

- :mod:`repro.core.schedule` — Algorithm 1 traversal
- :mod:`repro.core.path` — path representation + band plan
- :mod:`repro.core.diagonal` — adaptive diagonal attention plans
- :mod:`repro.core.window` — adaptive window selection and revisit bound
- :mod:`repro.core.isomorphism` — WL refinement and similarity (Fig. 8)
- :mod:`repro.core.edge_drop` — DropEdge augmentation (Fig. 15)
"""

from repro.core.atomic_io import atomic_write_bytes, sweep_stale_tmp
from repro.core.config import MegaConfig
from repro.core.schedule import TraversalResult, resolve_start, traverse
from repro.core.path import BandPlan, PathRepresentation
from repro.core.diagonal import (
    AttentionPlan,
    DenseBandPlan,
    band_layout_matrix,
    make_attention_plan,
    make_dense_band_plan,
    workload_summary,
)
from repro.core.window import adaptive_window, theoretical_revisit_bound
from repro.core.edge_drop import (
    drop_edges,
    drop_edges_by_importance,
    edge_importance,
)
from repro.core.incremental import (DELTA_OPS, IncrementalPath,
                                    RepairCostEstimate)
from repro.core.batching import padding_waste
from repro.core import viz
from repro.core.analysis import format_schedule_report, schedule_report
from repro.core.serialize import (
    load_schedules_npz,
    save_schedules_npz,
    traversal_to_dict,
)
from repro.core.isomorphism import (
    global_similarity_profile,
    multiset_similarity,
    path_similarity_profile,
    wl_distinguishes,
    wl_joint_labels,
    wl_similarity,
)

__all__ = [
    "atomic_write_bytes",
    "sweep_stale_tmp",
    "MegaConfig",
    "traverse",
    "resolve_start",
    "TraversalResult",
    "PathRepresentation",
    "BandPlan",
    "AttentionPlan",
    "DenseBandPlan",
    "make_attention_plan",
    "make_dense_band_plan",
    "band_layout_matrix",
    "workload_summary",
    "adaptive_window",
    "theoretical_revisit_bound",
    "drop_edges",
    "drop_edges_by_importance",
    "edge_importance",
    "DELTA_OPS",
    "IncrementalPath",
    "RepairCostEstimate",
    "padding_waste",
    "viz",
    "schedule_report",
    "format_schedule_report",
    "traversal_to_dict",
    "save_schedules_npz",
    "wl_similarity",
    "wl_joint_labels",
    "multiset_similarity",
    "path_similarity_profile",
    "global_similarity_profile",
]
