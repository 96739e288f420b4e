"""_pairwise_total against np.sum of one array, bit for bit.

The pair quadrature sums weights and integrand products over its field a
leaf at a time, as np.sum sums one array, so its estimates keep every bit
they had when the field was one array of values. The values span many
orders of magnitude, so any other summation order shows.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from horolab.measures import _LEAF, _pairwise_total  # noqa: E402

SIZES = st.one_of(st.just(0), st.integers(1, 127), st.integers(128, _LEAF), st.integers(_LEAF + 1, 6 * _LEAF))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=SIZES, seed=st.integers(0, 2**32 - 1))
def test_pairwise_total_is_np_sum_of_one_range(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * np.exp(8.0 * rng.standard_normal(n))
    pieces = []

    def f(lo, hi):
        pieces.append((lo, hi))
        return values[lo:hi]

    assert _pairwise_total(n, f).hex() == float(np.sum(values)).hex()
    # the range once, in order, in contiguous pieces of at most one leaf
    bounds = [0] + [hi for _, hi in pieces]
    assert [lo for lo, _ in pieces] == bounds[:-1] and bounds[-1] == n
    assert all(hi - lo <= _LEAF for lo, hi in pieces)
    assert all(lo < hi for lo, hi in pieces) or pieces == [(0, 0)]
