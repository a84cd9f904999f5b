"""Tests of the benchmark itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

import os
import sys

E2E_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
for path in (E2E_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
