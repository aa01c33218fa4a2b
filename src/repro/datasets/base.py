"""Dataset container and split handling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import GraphError
from repro.graph.graph import Graph


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

    def __repr__(self) -> str:
        return (f"GraphDataset({self.name}, task={self.task}, "
                f"train={len(self.train)}, val={len(self.validation)}, "
                f"test={len(self.test)})")
