"""Dataset container, split handling, and the batch-preprocessing hook."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import GraphError
from repro.graph.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import MegaConfig
    from repro.core.diagonal import AttentionPlan
    from repro.core.path import PathRepresentation
    from repro.core.schedule import TraversalResult
    from repro.pipeline.stats import PipelineStats


@dataclass
class DatasetSchedules:
    """Per-split preprocessing artifacts from :meth:`GraphDataset.precompute`.

    ``paths[split][i]`` / ``plans[split][i]`` align with the dataset's
    split lists; ``stats`` carries the pipeline's cache counters, and
    ``symmetric_reuse`` is the run's config value ``plans`` honours.
    """

    paths: Dict[str, List["PathRepresentation"]]
    stats: "PipelineStats"
    symmetric_reuse: bool = True

    @property
    def plans(self) -> Dict[str, List["AttentionPlan"]]:
        """Attention plans, derived from ``paths`` on each access."""
        from repro.core.diagonal import make_attention_plan
        return {split: [make_attention_plan(rep, self.symmetric_reuse)
                        for rep in reps]
                for split, reps in self.paths.items()}

    def flat_schedules(self) -> Dict[str, "TraversalResult"]:
        """``{"split/i": TraversalResult}`` — the CLI's archive layout."""
        return {f"{split}/{i}": rep.schedule
                for split, reps in self.paths.items()
                for i, rep in enumerate(reps)}


@dataclass
class GraphDataset:
    """A graph-prediction dataset with train/validation/test splits.

    Attributes
    ----------
    name:
        Dataset identifier ("ZINC", "AQSOL", "CSL", "CYCLES").
    task:
        ``"regression"`` (scalar target per graph) or
        ``"classification"`` (integer class per graph).
    num_node_types / num_edge_types:
        Vocabulary sizes when features are categorical ids.
    num_classes:
        Number of classes for classification tasks (0 for regression).
    """

    name: str
    task: str
    train: List[Graph]
    validation: List[Graph]
    test: List[Graph]
    num_node_types: int = 0
    num_edge_types: int = 0
    num_classes: int = 0

    def __post_init__(self) -> None:
        if self.task not in ("regression", "classification"):
            raise GraphError(f"unknown task {self.task!r}")
        for split_name, split in self.splits.items():
            for g in split:
                if g.label is None:
                    raise GraphError(
                        f"{self.name}/{split_name}: graph without label")

    @property
    def splits(self) -> Dict[str, List[Graph]]:
        return {"train": self.train, "validation": self.validation,
                "test": self.test}

    @property
    def num_graphs(self) -> int:
        return len(self.train) + len(self.validation) + len(self.test)

    def all_graphs(self) -> List[Graph]:
        return self.train + self.validation + self.test

    def precompute(self, config: Optional["MegaConfig"] = None, *,
                   workers: int = 1, cache=None, cache_dir=None,
                   max_bytes: Optional[int] = None,
                   max_retries: Optional[int] = None,
                   fault_plan=None, sleep=None) -> DatasetSchedules:
        """Run MEGA preprocessing for every graph in every split.

        Delegates to :func:`repro.pipeline.precompute_paths`: misses fan
        out across ``workers`` processes and, when ``cache`` or
        ``cache_dir`` is given, schedules persist on disk so later
        processes skip the traversal entirely.  ``max_retries``,
        ``fault_plan``, and ``sleep`` feed the pipeline's fault-tolerance
        layer (see ``docs/resilience.md``).
        """
        from repro.pipeline import precompute_paths
        from repro.resilience import RetryPolicy

        retry = (RetryPolicy(max_attempts=max_retries)
                 if max_retries is not None else None)
        result = precompute_paths(
            self.all_graphs(), config, workers=workers,
            cache=cache, cache_dir=cache_dir, max_bytes=max_bytes,
            retry=retry, fault_plan=fault_plan, sleep=sleep)
        paths: Dict[str, List] = {}
        cursor = 0
        for split, graphs in self.splits.items():
            paths[split] = result.paths[cursor:cursor + len(graphs)]
            cursor += len(graphs)
        return DatasetSchedules(paths=paths, stats=result.stats,
                                symmetric_reuse=result.symmetric_reuse)

    def __repr__(self) -> str:
        return (f"GraphDataset({self.name}, task={self.task}, "
                f"train={len(self.train)}, val={len(self.validation)}, "
                f"test={len(self.test)})")
