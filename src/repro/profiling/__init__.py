"""Profiling harness reproducing the Section III-A / IV-B measurements."""

from repro.profiling.workload import (
    MAX_CACHE_ENTRIES,
    cache_sizes,
    cached_dataset,
    cached_paths,
    clear_caches,
    profile_configuration,
    attention_time_ratio,
)

__all__ = [
    "MAX_CACHE_ENTRIES",
    "cached_dataset",
    "cached_paths",
    "clear_caches",
    "profile_configuration",
    "attention_time_ratio",
]
