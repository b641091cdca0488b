"""README.md against the code: its size, its table cells, its quick start,
the checks it names as oracles and the counts it quotes.  A count that a
test elsewhere already pins, such as a refusal message, is checked there."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from restchroma import (
    CapError, check_conjecture, common_neighbor_overlap, cycle_graph, engine, graphs, is_proper, parse_restraint,
    restrained_poly, restraints,
)
from restchroma.restraints import FORMS_BUDGET, _normal_form_count

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BUDGETS = ("FORMS_BUDGET", "AUTOMORPHISM_BUDGET", "ORACLE_WORK_BUDGET")


def section(heading: str) -> str:
    """The text under a '## ' heading, up to the next one, on one line."""
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return " ".join(README[start:end if end >= 0 else None].split())


def test_under_1500_words():
    # the count wc -w gives
    assert len(README.split()) < 1500


def test_no_table_cell_over_300_characters():
    rows = [line for line in README.splitlines() if line.startswith("|")]
    assert rows
    cells = [cell.strip() for row in rows for cell in re.split(r"(?<!\\)\|", row)]
    assert [cell[:40] for cell in cells if len(cell) > 300] == []


def test_budgets_match_the_code():
    quoted = re.findall(r"`([A-Z][A-Z_]*)`\s*=\s*([0-9][0-9,]*)", README)
    assert sorted(name for name, _ in quoted) == sorted(BUDGETS)
    for name, value in quoted:
        (constant,) = {getattr(m, name) for m in (engine, graphs, restraints) if hasattr(m, name)}
        assert int(value.replace(",", "")) == constant, name


def test_quick_start_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 6
    for value, comment in zip(printed, comments):
        # a comment is the printed value, or that value then a remark
        assert comment == value or comment.startswith((f"{value}, ", f"{value} ")), (value, comment)


def test_named_checks_exist():
    # the tier-1 classes and CI steps that README names as oracles
    text = " ".join(README.split())
    steps = re.findall(r'CI "([^"]+)"', text)
    classes = re.findall(r"tier-1 `(Test\w+)`", text)
    assert len(steps) == len(classes) == 3
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert [s for s in steps if f"- name: {s}\n" not in workflow] == []
    tests = "".join(f.read_text(encoding="utf-8") for f in (ROOT / "tests").glob("*.py"))
    assert [c for c in classes if f"class {c}:" not in tests] == []


def test_forms_budget_admits_what_readme_says():
    text = section("Caps and budgets")
    by_n = re.findall(r"`k = (\d+)` up to `n = (\d+)` \(([\d,]+)", text)
    by_k = re.findall(r"`n = (\d+)` up to `k = (\d+)`", text)
    assert len(by_n) == 4 and len(by_k) == 2
    for k, n, forms in by_n:
        k, n = int(k), int(n)
        assert _normal_form_count(n, k) == int(forms.replace(",", "")) <= FORMS_BUDGET
        with pytest.raises(CapError):
            _normal_form_count(n + 1, k)
    for n, k in by_k:
        n, k = int(n), int(k)
        assert _normal_form_count(n, k) <= FORMS_BUDGET
        with pytest.raises(CapError):
            _normal_form_count(n, k + 1)
    assert "one vertex at every `k`" in text
    assert _normal_form_count(1, 10**6) == 1


def test_odd_cycle_record_at_eleven():
    text = section("The odd-cycle pattern at n = 11")
    winner, pattern = re.findall(r"`(\[\{.*?\])`", text)
    record = check_conjecture(11)
    assert f"all {record['class_count']:,} classes" in text
    assert (record["winners"], record["conjectured_class"], record["matches"]) == ([winner], pattern, False)
    assert "`matches: false`" in text
    c11 = cycle_graph(11)
    best, built = parse_restraint(winner), parse_restraint(pattern)
    assert is_proper(c11, best) and is_proper(c11, built)
    assert "`A7''` = -8" in text
    assert common_neighbor_overlap(c11, best) == common_neighbor_overlap(c11, built) == -8
    assert "degree 7 and leading coefficient +1" in text
    difference = restrained_poly(c11, best) - restrained_poly(c11, built)
    assert difference.degree == 7 and difference.coeffs[7] == 1
