"""Every verify suite runs under the tier-1 tests, at 20 seeds each."""

import pytest

from advice_csp.verify import SUITES, run_suite


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(suite):
    results = run_suite(suite, seeds=20)
    assert results
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, failed
