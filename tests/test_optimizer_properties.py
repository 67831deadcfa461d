"""Property tests for the erasure search, drawn by hypothesis."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from erasurekit import optimize_erasure, preset, random_density
from erasurekit.optimizer import RESTART_TIE_ATOL


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    kk=st.integers(2, 6),
    extra_outcomes=st.integers(0, 2),
    mixed=st.booleans(),
    channel_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**16),
)
def test_mm_ascent_is_monotone(d, kk, extra_outcomes, mixed, channel_seed, seed):
    # 100 evaluations run well past the plain warm-up, so the guarded
    # extrapolation steps are exercised
    max_iters = 100
    ch = preset("random", dim=d, kraus=kk, seed=channel_seed)
    rho = None if mixed else random_density(d, [channel_seed, 1])
    result = optimize_erasure(
        ch, rho, kk + extra_outcomes, restarts=3, max_iters=max_iters, seed=seed
    )
    last = {}
    for restart, iteration, value in result.trace:
        if restart in last:
            last_iteration, last_value = last[restart]
            assert value >= last_value - RESTART_TIE_ATOL
            assert last_iteration < iteration <= max_iters
        else:
            assert iteration == 0
        last[restart] = iteration, value
    assert sorted(last) == [0, 1, 2]
