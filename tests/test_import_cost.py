"""Serving processes do not load scipy.

scipy's one use is the KS statistic in
``repro.datasets.statistics.table_three_row``, which imports it itself:
loaded at import time it cost every serving and benchmark process about
a second and 65 MB of resident memory.
"""

import subprocess
import sys


def test_serving_imports_leave_scipy_unloaded():
    code = ("import sys, repro.serve, repro.cluster, repro.stream; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
