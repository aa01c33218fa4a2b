"""``python -m benchmarks.perf {run,compare,one}`` (with ``PYTHONPATH=src``)."""

import sys

from benchmarks.perf.cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
