"""Property tests for the erasure search, drawn by hypothesis."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from erasurekit import optimize_erasure, preset
from erasurekit.optimizer import RESTART_TIE_ATOL


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    kk=st.integers(2, 6),
    channel_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**16),
)
def test_mm_ascent_is_monotone(d, kk, channel_seed, seed):
    ch = preset("random", dim=d, kraus=kk, seed=channel_seed)
    result = optimize_erasure(ch, restarts=3, max_iters=100, seed=seed)
    last = {}
    for restart, _, value in result.trace:
        if restart in last:
            assert value >= last[restart] - RESTART_TIE_ATOL
        last[restart] = value
