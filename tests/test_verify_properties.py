"""Property tests of both inequality chains at d up to 6, drawn by hypothesis,
and on states whose small eigenvalues sit around the package's cutoffs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from erasurekit import (
    haar_isometry,
    numerics,
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


def _rotated(spectrum, seed) -> np.ndarray:
    """The state with this spectrum in a seeded Haar-random basis."""
    u = haar_isometry(len(spectrum), len(spectrum), seed)
    return numerics.hermitize((u * spectrum) @ u.conj().T)


@st.composite
def cutoff_configurations(draw):
    # 1 to d - 1 eigenvalues log-uniform in [1e-12, 1e-8], around RANK_CUTOFF
    # (1e-10) and OUTCOME_FLOOR (1e-12); the rest share what is left
    d = draw(st.integers(2, 6))
    small = 10.0 ** np.array(draw(st.lists(st.floats(-12, -8), min_size=1, max_size=d - 1)))
    count = d - small.size
    large = np.array(draw(st.lists(st.floats(0.1, 1), min_size=count, max_size=count)))
    return {
        "spectrum": np.concatenate([large / large.sum() * (1 - small.sum()), small]),
        "kraus": draw(st.integers(2, d * d)),
        "members": draw(st.integers(2, 6)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=25, deadline=None)
@given(cfg=cutoff_configurations())
def test_spectra_around_the_cutoffs_keep_every_slack_above_the_floor(cfg):
    spectrum, kk, seed = cfg["spectrum"], cfg["kraus"], cfg["seed"]
    rho = _rotated(spectrum, [seed, 0])
    channel = preset("random", dim=len(spectrum), kraus=kk, seed=[seed, 1])
    meas = random_measurement(kk, kk, [seed, 3])
    ens = random_ensemble(rho, cfg["members"], [seed, 2])
    verify_direct(channel, rho, ens, meas).assert_ok()
    verify_converse(channel, rho, meas, seed=[seed, 4]).assert_ok()


# spectrum (1 - eps, eps) in a Haar-rotated basis: at eps <= 1e-10 the
# conditional states drop eps at RANK_CUTOFF while f_ea keeps it, and the
# converse slack reads down to about -1.7 eps over seeds 0-4, inside the floor
@pytest.mark.parametrize("eps", [1e-9, 1e-10, 5e-11, 1e-11])
@pytest.mark.parametrize("name", ["amplitude_damping", "eraser_cnot", "depolarizing"])
def test_a_second_eigenvalue_at_the_rank_cutoff_keeps_both_chains(name, eps):
    channel = preset(name)
    for seed in range(5):
        rho = _rotated(np.array([1 - eps, eps]), [seed, 0])
        verify_direct(channel, rho, random_ensemble(rho, 3, [seed, 1])).assert_ok()
        verify_converse(channel, rho, seed=[seed, 2]).assert_ok()


@st.composite
def accepted_off_cone_configurations(draw):
    # 1 to d - 1 eigenvalue dips in [-PSD_VIOLATION, 0), kept 1e-6 relative
    # inside the refusal so that eigh's rounding cannot push one past it, and
    # a trace off one by up to half of TRACE_ATOL: a state ensure_density
    # accepts only by its tolerances
    d = draw(st.integers(2, 6))
    limit = numerics.PSD_VIOLATION * (1 - 1e-6)
    dip = st.floats(0, limit, exclude_min=True)
    dips = -np.array(draw(st.lists(dip, min_size=1, max_size=d - 1)))
    count = d - dips.size
    large = np.array(draw(st.lists(st.floats(0.1, 1), min_size=count, max_size=count)))
    trace = 1 + draw(st.floats(-0.5, 0.5)) * numerics.TRACE_ATOL
    return {
        "spectrum": np.concatenate([large / large.sum() * (trace - dips.sum()), dips]),
        "kraus": draw(st.integers(2, d * d)),
        "members": draw(st.integers(2, 6)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=25, deadline=None)
@given(cfg=accepted_off_cone_configurations())
def test_a_state_accepted_off_the_cone_keeps_every_slack_above_the_floor(cfg):
    spectrum, kk, seed = cfg["spectrum"], cfg["kraus"], cfg["seed"]
    rho = _rotated(spectrum, [seed, 0])
    channel = preset("random", dim=len(spectrum), kraus=kk, seed=[seed, 1])
    meas = random_measurement(kk, kk, [seed, 3])
    ens = random_ensemble(rho, cfg["members"], [seed, 2])
    verify_direct(channel, rho, ens, meas).assert_ok()
    verify_converse(channel, rho, meas, seed=[seed, 4]).assert_ok()
