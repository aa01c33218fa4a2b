"""The megalint rule set.

Importing this package registers every rule with
:mod:`tools.megalint.registry`.  One module per concern keeps each rule
reviewable next to its rationale; see ``docs/static_analysis.md`` for
the user-facing catalogue.
"""

from tools.megalint.rules import (  # noqa: F401
    layering,
    determinism,
    hot_loops,
    error_handling,
    mutable_defaults,
    docstrings,
    public_api,
    io_hygiene,
    retry_bounds,
    taint_replay,
    dead_exports,
    duck_types,
)
