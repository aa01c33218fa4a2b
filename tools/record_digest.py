"""One sha256 over every ``simulate_batch`` record of a fixed grid.

The check behind any claim that a change leaves every
:class:`~repro.memsim.device.KernelStats` field bit-identical: run it on
both trees and compare the two digests.  It hashes
``repr(dataclasses.astuple(record))`` of each record, in order, over

* GCN, GT and GAT (hidden 64, 4 layers),
* the baseline and the MEGA runtime,
* the first 1, 7, 64 and 128 ZINC training graphs (``scale=0.02``),
* a fresh device per batch, then one device reused across the four
  batches (its L2 stays warm and evicts),
* each of the four :data:`~repro.memsim.device.DEVICE_PRESETS`,

which is 9,760 records.  Usage, from the repository root::

    PYTHONPATH=src python -m tools.record_digest

It prints the record count and the hex digest.  Only public names are
used, so the same command run with ``PYTHONPATH`` pointing at another
checkout's ``src`` digests that tree.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterator

from repro.core.config import MegaConfig
from repro.core.path import PathRepresentation
from repro.datasets import load_dataset
from repro.graph.batch import GraphBatch
from repro.memsim.device import DEVICE_PRESETS, GPUDevice, KernelStats
from repro.models.kernel_plans import simulate_batch
from repro.models.runtime import BaselineRuntime, MegaRuntime

MODELS = ("GCN", "GT", "GAT")
BATCH_SIZES = (1, 7, 64, 128)
HIDDEN, LAYERS = 64, 4


def records() -> Iterator[KernelStats]:
    """Every record of the grid, in a fixed order."""
    graphs = load_dataset("ZINC", scale=0.02).train[:max(BATCH_SIZES)]
    paths = [PathRepresentation.from_graph(g, MegaConfig()) for g in graphs]
    runtimes = []
    for size in BATCH_SIZES:
        batch = GraphBatch(graphs[:size])
        runtimes.append((BaselineRuntime(batch),
                         MegaRuntime(batch, paths[:size])))
    for preset in sorted(DEVICE_PRESETS):
        spec = DEVICE_PRESETS[preset]
        for model in MODELS:
            for mega in (False, True):
                for reused in (False, True):
                    device = GPUDevice(spec)
                    for pair in runtimes:
                        if not reused:
                            device = GPUDevice(spec)
                        yield from simulate_batch(model, pair[mega], device,
                                                  HIDDEN, LAYERS).records


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for record in records():
        digest.update(repr(dataclasses.astuple(record)).encode())
        count += 1
    print(f"records {count} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
