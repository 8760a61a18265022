"""Acceptance gate: every criterion of the verification suite at its stated
tolerance, one pass/fail line per criterion, with runtime budgets enforced.

Criterion 4 carries a documented defect in its source: the claimed genus (4)
of the degree-24 cover contradicts the equally-claimed ramification profile
{0: 8x3, 1: 8x3, inf: 4x6} under Riemann-Hurwitz, which forces genus 3.  The
profile and the cross-computation checks are asserted to pass; the genus
value as stated is kept as a strict expected failure so the defect stays
visible without silently weakening anything.
"""

import time

import pytest

from reflbench import monodromy
from reflbench.suite import CRITERIA

TIME_BUDGETS = {
    1: 5,
    2: 5,
    3: 5,
    4: 1,
    5: 2,
    6: 10,
    7: 10,
    8: 5,
    9: 2,
    10: 1,
    11: 10,
    12: 5,
}

# sub-checks allowed to fail because the value they encode is provably
# inconsistent with its own context (see module docstring and the criterion's
# defect notes)
DOCUMENTED_DEFECT_CHECKS = {
    4: {"genus_equals_4_as_stated"},
}


@pytest.mark.parametrize("cid,title,fn", CRITERIA, ids=[f"criterion-{c[0]}" for c in CRITERIA])
def test_criterion(cid, title, fn):
    start = time.time()
    result = fn()
    elapsed = time.time() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {cid}: {title} ({elapsed:.2f}s)")
    assert elapsed < TIME_BUDGETS[cid], f"criterion {cid} exceeded its {TIME_BUDGETS[cid]}s budget"
    failing = set(result.failing)
    allowed = DOCUMENTED_DEFECT_CHECKS.get(cid, set())
    unexpected = failing - allowed
    assert not unexpected, f"criterion {cid} has unexpected failures: {sorted(unexpected)}"
    if failing:
        assert result.defects, "a failing sub-check must carry a defect note"
        pytest.xfail(
            f"criterion {cid}: only documented-defect sub-checks failed: {sorted(failing)}"
        )
    assert result.passed


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the source asserts genus 4 for the degree-24 cover, but its own "
        "profile {0: 8x3, 1: 8x3, inf: 4x6} gives 2 - 2g = 48 - 52 = -4 "
        "under Riemann-Hurwitz, i.e. genus 3; independently, the open curve "
        "has chi = 24 * (-1) and compactifying adds 8+8+4 = 20 points, so "
        "chi = -4 again"
    ),
)
def test_criterion4_genus_as_stated_in_source():
    spec = monodromy.braid_loop_images("G4_paper")
    prof = monodromy.monodromy_profile(spec)
    assert monodromy.riemann_hurwitz_genus(prof) == 4


def test_criterion4_genus_faithful_formula():
    spec = monodromy.braid_loop_images("G4_paper")
    prof = monodromy.monodromy_profile(spec)
    assert monodromy.riemann_hurwitz_genus(prof) == 3
