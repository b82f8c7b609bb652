"""The reprolint gate: the shipped source tree must be violation-free.

This is the test that makes the analyzer an enforced invariant rather
than an optional linter: any PR that introduces a float ``==`` in the
model, an unstable ``(1-p)**N``, an unseeded RNG, an unregistered
experiment, or a stale ``__all__`` fails the tier-1 suite here with
the exact ``file:line:col RLxxx message`` locations.

The whole-tree scan runs once per module; both tests read its result.
"""

from __future__ import annotations

import pytest

from repro.analysis import load_config, run_analysis
from repro.analysis.baseline import apply_baseline, load_baseline

from .conftest import REPO_ROOT


@pytest.fixture(scope="module")
def scan():
    """``(violations, n_files, baseline)`` for the configured src tree."""
    config = load_config(REPO_ROOT / "pyproject.toml")
    paths = [REPO_ROOT / p for p in config.paths]
    violations, n_files = run_analysis(paths, config, root=REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
    return violations, n_files, baseline


def test_src_tree_has_no_new_reprolint_violations(scan):
    """All twelve rules, modulo the committed accepted baseline."""
    violations, n_files, baseline = scan
    new, _matched = apply_baseline(violations, baseline)
    report = "\n".join(v.format() for v in new)
    assert not new, f"new reprolint violations in the source tree:\n{report}"
    assert n_files >= 55, "the analyzer should be scanning the whole src tree"


def test_baseline_has_no_stale_entries(scan):
    """Every accepted entry still matches a real finding.

    A fixed finding must leave the baseline too — otherwise the file
    silently grows a free pass for reintroducing the same bug.
    """
    violations, _, baseline = scan
    _, matched = apply_baseline(violations, baseline)
    total = sum(baseline.values())
    assert matched == total, (
        f"baseline accepts {total} finding(s) but only {matched} still "
        "exist; regenerate with --write-baseline"
    )
