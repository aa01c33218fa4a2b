"""Wall-clock and simulated end-to-end benchmark with an outside-in trace.

See ``benchmarks/perf/README.md`` for the workloads, the metrics and
how to run the timed and traced passes.
"""
