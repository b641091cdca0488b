"""The tier-1 rows of the oracle table, oracles.RUNS, one test each."""

import pytest

from oracles import RUNS, TIER1


@pytest.mark.parametrize("run", [run for run in RUNS if run.tier == TIER1], ids=str)
def test_run(run):
    assert run.result() == run.expected
