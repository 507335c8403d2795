"""The tier-1 analysis gate: the tree must carry zero actionable findings.

This is the machine-checked contract the analyzer exists for -- every
unsuppressed, unbaselined finding over ``src/repro`` fails the suite.
The gate also writes ``BENCH_analysis.json`` (rule/module/finding
counts) so the artifact diff surfaces suppression creep between PRs,
plus the ``src/repro`` line count (what ``wc -l`` over its ``.py``
files reports), so code size is tracked as a metric next to speed.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, all_rules, load_project
from repro.analysis.cli import summarize
from repro.analysis.runner import run_rules

pytestmark = [pytest.mark.lint, pytest.mark.smoke]

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def gate_findings():
    baseline = Baseline.load(REPO / "analysis_baseline.json")
    project = load_project([REPO / "src" / "repro"], tests_root=REPO / "tests")
    findings = run_rules(project, baseline=baseline)
    return project, baseline, findings


def test_tree_has_zero_actionable_findings(gate_findings):
    _, _, findings = gate_findings
    actionable = [f for f in findings if f.actionable]
    assert not actionable, "unsuppressed findings:\n" + "\n".join(
        f.format() for f in actionable
    )


def test_every_suppression_carries_a_justification(gate_findings):
    _, _, findings = gate_findings
    for finding in findings:
        if finding.suppressed:
            assert finding.justification, finding.format()


def test_all_five_rules_are_registered(gate_findings):
    assert [rule.id for rule in all_rules()] == ["R1", "R2", "R3", "R4", "R5"]


def test_gate_writes_bench_artifact(gate_findings):
    project, baseline, findings = gate_findings
    summary = summarize(findings, rule_count=len(all_rules()), module_count=len(project.modules))
    payload = {
        "bench": "analysis",
        "summary": summary,
        "baseline_entries": baseline.count,
        "suppressions": summary["suppressed"],
        "src_lines": sum(
            path.read_bytes().count(b"\n")
            for path in (REPO / "src" / "repro").rglob("*.py")
        ),
    }
    (REPO / "BENCH_analysis.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    assert summary["actionable"] == 0
    assert summary["modules"] > 80
