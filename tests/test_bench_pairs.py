"""The verdict tests/bench_pairs.py gives one metric of one workload."""

import pytest

from bench_pairs import verdict

PARENT = [2.0 + i / 10 for i in range(10)]  # IQR 0.65 by statistics.quantiles


@pytest.mark.parametrize("change,bound,expected", [
    ([v + 0.3 for v in PARENT], 0.25, "worse than bound"),
    ([v + 0.2 for v in PARENT], 0.25, "unresolved"),
    ([v + 0.2 for v in PARENT], 0.7, "within bound"),
    # Every run of the change below every run of the parent, by less than the IQR.
    ([1.99] * 10, 0.25, "within bound"),
    ([v - 1 for v in PARENT], 0.25, "gain"),
    # 9 pairs lower and one tie is a gain; 8 lower is not.
    ([v - 1 for v in PARENT[:9]] + PARENT[9:], 0.25, "gain"),
    ([v - 1 for v in PARENT[:8]] + PARENT[8:], 0.7, "within bound"),
])
def test_verdicts(change, bound, expected):
    assert verdict(PARENT, change, bound, "lower") == expected
    # A metric where higher is better reads the same runs negated alike.
    assert verdict([-v for v in PARENT], [-v for v in change], bound, "higher") == expected

