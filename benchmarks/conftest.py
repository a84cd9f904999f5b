"""Shared state for the benches: the five ablations and the plane benches.

The paper's own numbers (Tables 1-4 and 6, Fig. 3-7, §4.2, §4.3 and §5)
are ``tools/check_paper.py``'s, and Table 5's codec layout is pinned by
``tests/quic/test_cid.py``.  Simulation is done once per session in these
fixtures; the ``benchmark`` fixture then times the *analysis kernel* of an
ablation, and each bench writes its reproduced rows to
``benchmarks/out/<name>.txt`` with ``_harness.report`` (also printed; run
pytest with ``-s`` to see them inline).
"""

from __future__ import annotations

import os

import pytest

from repro.workloads.scenario import ScenarioConfig, build_scenario

#: Set REPRO_BENCH_SCALE below 1.0 for a quicker, coarser pass.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def scenario_2022():
    """The full January-2022 telescope month (DESIGN.md §5 scale)."""
    scenario = build_scenario(ScenarioConfig().scaled(SCALE))
    scenario.run()
    return scenario
