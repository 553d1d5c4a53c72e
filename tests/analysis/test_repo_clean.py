"""The repo's own sources must satisfy the repro lint rules.

This is the dogfood gate: ``src/`` must be clean modulo the checked-in
baseline (mirroring the CI lint job), every baseline entry must still
match a real finding, and the RNG discipline audited for ``tests/`` and
``scripts/`` stays a regression test rather than a one-off sweep.
"""

from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.engine import LintEngine
from repro.analysis.reporters import LintReport, render_text
from repro.analysis.rules.rng import RngDisciplineRule

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_is_clean_modulo_checked_in_baseline():
    engine = LintEngine(root=REPO_ROOT)
    result = engine.run([REPO_ROOT / "src"])
    baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
    new, baselined, stale = baseline.apply(result.findings)
    report = LintReport(
        new=new, baselined=baselined, stale=stale,
        files_checked=result.files_checked, suppressed=result.suppressed,
    )
    assert report.exit_code == 0, "\n" + render_text(report)
    assert new == [], [f.as_dict() for f in new]
    assert stale == [], "baseline entries no longer match — delete them"


def test_checked_in_baseline_entries_are_justified():
    # The baseline may be empty (src/ is clean); any entry it does carry
    # must explain why the finding is grandfathered.
    baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
    for entry in baseline.entries:
        assert len(entry.description) > 20, entry


def test_no_legacy_rng_in_tests_or_scripts():
    engine = LintEngine(rules=[RngDisciplineRule()], root=REPO_ROOT)
    result = engine.run([REPO_ROOT / "tests", REPO_ROOT / "scripts"])
    assert result.findings == [], [f.as_dict() for f in result.findings]
