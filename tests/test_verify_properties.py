"""Property test of both inequality chains at d up to 6, drawn by hypothesis."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from erasurekit import (
    preset,
    random_density,
    random_ensemble,
    random_measurement,
    verify_converse,
    verify_direct,
)


@st.composite
def configurations(draw):
    d = draw(st.integers(2, 6))
    return {
        "d": d,
        "kraus": draw(st.integers(2, d * d)),
        "members": draw(st.integers(2, 6)),
        "ic_members": d * d + draw(st.integers(0, 4)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=25, deadline=None)
@given(cfg=configurations())
def test_every_chain_slack_clears_the_floor(cfg):
    d, kk, seed = cfg["d"], cfg["kraus"], cfg["seed"]
    channel = preset("random", dim=d, kraus=kk, seed=[seed, 0])
    rho = random_density(d, [seed, 1])
    ens = random_ensemble(rho, cfg["members"], [seed, 2])
    meas = random_measurement(kk, kk, [seed, 3])
    verify_direct(channel, rho, ens, meas).assert_ok()
    verify_converse(channel, rho, meas, cfg["ic_members"], [seed, 4]).assert_ok()
