"""Acceptance suite: runs every fixed-seed criterion and prints a verdict line.

Each criterion encapsulates its own tolerance; this file only asserts the
boolean and surfaces the one-line detail (visible with pytest -s, and in
the failure message otherwise).  `conebessel check` drives the same list.
The suite's numpy KS statistic is pinned to scipy's, the test-only oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conebessel.acceptance import CRITERIA, _ks_statistic, run_criterion

NAMES = [name for name, _ in CRITERIA]


def test_criteria_list_is_complete_and_unique():
    assert len(NAMES) == 12
    assert len(set(NAMES)) == 12


@pytest.mark.parametrize("name", NAMES)
def test_criterion(name):
    result = run_criterion(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {name} [{result.seconds:.1f}s] {result.detail}")
    assert result.passed, f"{name}: {result.detail}"


# few distinct integers force ties within and across the samples
_samples = st.one_of(
    st.lists(st.integers(0, 4).map(float), min_size=1, max_size=60),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
)


# scipy's asymptotic p-value, which the statistic does not use, divides by
# zero at tiny sizes
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_samples, b=_samples)
def test_ks_statistic_equals_scipy_bit_for_bit(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert _ks_statistic(a, b) == float(stats.ks_2samp(a, b, method="asymp").statistic)
