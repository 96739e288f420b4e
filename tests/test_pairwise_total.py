"""_pairwise_total against np.sum of the joined blocks, bit for bit.

The pair quadrature keeps its field in blocks and sums weights and
integrand products over them as np.sum sums one array, so its estimates
keep every bit they had when the field was one joined array. The values
span many orders of magnitude, so any other summation order shows.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from horolab.measures import _LEAF, _pairwise_total  # noqa: E402

SIZES = st.lists(
    st.one_of(st.just(0), st.integers(1, 127), st.integers(128, 3 * _LEAF)), max_size=8
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sizes=SIZES, seed=st.integers(0, 2**32 - 1))
def test_pairwise_total_is_np_sum_of_the_joined_blocks(sizes, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(sum(sizes)) * np.exp(8.0 * rng.standard_normal(sum(sizes)))
    blocks = np.split(values, np.cumsum(sizes)[:-1]) if sizes else []
    pieces = []

    def f(block, lo, hi):
        assert 0 <= lo < hi <= len(block)
        pieces.append((block, lo, hi))
        return block[lo:hi]

    assert _pairwise_total(blocks, f).hex() == float(np.sum(values)).hex()
    # each block's cells once, in order, in pieces of at most one leaf
    for k, block in enumerate(blocks):
        got = [(lo, hi) for b, lo, hi in pieces if b is block]
        bounds = [0] + [hi for _, hi in got]
        assert [lo for lo, _ in got] == bounds[:-1] and bounds[-1] == len(block), k
    assert all(hi - lo <= _LEAF for _, lo, hi in pieces)
