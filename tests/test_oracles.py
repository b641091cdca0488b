"""The tier-1 rows of the oracle table, oracles.RUNS, one test each, and the
workflow steps that run its CI rows."""

import re
from pathlib import Path

import pytest

from oracles import CI, RUNS, TIER1

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("run", [run for run in RUNS if run.tier == TIER1], ids=str)
def test_run(run):
    assert run.result() == run.expected


def test_every_ci_row_has_one_workflow_step():
    # oracles.main runs a CI row only when a step names its oracle, so each
    # oracle with CI rows has exactly one step "- name: X" that runs
    # "python tests/oracles.py X", and each such step names such an oracle
    text = WORKFLOW.read_text(encoding="utf-8")
    steps = re.findall(r"^ *- name: (.*)\n *run: .*python tests/oracles\.py (.*)$", text, re.M)
    assert len(steps) == text.count("python tests/oracles.py")
    assert [(name, args) for name, args in steps if args != name] == []
    assert sorted(name for name, _ in steps) == sorted({run.name for run in RUNS if run.tier == CI})
