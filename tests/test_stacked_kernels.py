"""The stacked verify kernels against per-matrix loop references.

The ``_ref_*`` functions below are loop implementations of the same
formulas, one matrix at a time, kept here as the reference the stacked
kernels in ``probes`` and ``erasure`` are compared against. Summation order
differs between the two, so values are compared within fixed tolerances:
1e-12 absolute for probabilities, states and chain quantities (every slack
included), and 1e-9 relative to gamma for the dual frame and gamma itself,
whose solve is ill-conditioned (gamma reaches several thousand).
"""

import numpy as np
import pytest

from erasurekit import (
    ensemble,
    ic_ensemble,
    joint_distribution,
    numerics,
    preset,
    random_density,
    random_ensemble,
    random_measurement,
    refine,
    verify_converse,
    verify_direct,
)
from erasurekit.errors import NotPSD
from erasurekit.probes import OUTCOME_FLOOR, mutual_information

ATOL = 1e-12
GAMMA_RTOL = 1e-9


def _ref_weights(members):
    return np.array([np.trace(m).real for m in members])


def _ref_average(members):
    return numerics.hermitize(sum(members))


def _ref_random_ensemble(rho, members, seed, floor=0.01):
    rng = np.random.default_rng(seed)
    pieces = []
    for _ in range(members):
        g = numerics.ginibre(rho.shape[0], rho.shape[0], rng)
        pieces.append(g @ numerics.dagger(g))
    s_inv_half = numerics.psd_power(sum(pieces), -0.5)
    sq = numerics.psd_power(rho, 0.5)
    mats = [sq @ (s_inv_half @ g @ s_inv_half) @ sq for g in pieces]
    return [numerics.hermitize((1 - floor) * m + floor * rho / members) for m in mats]


def _ref_ic_ensemble(rho, members, seed, cutoff=numerics.RANK_CUTOFF):
    rng = np.random.default_rng(seed)
    w, v = numerics.psd_eigh(rho)
    keep = w > cutoff
    r = int(keep.sum())
    basis = v[:, keep]
    vecs = []
    for _ in range(members):
        g = rng.normal(size=r) + 1j * rng.normal(size=r)
        vecs.append(g / np.linalg.norm(g))
    gram = sum(np.outer(u, u.conj()) for u in vecs)
    gw, gv = np.linalg.eigh(numerics.hermitize(gram))
    keep = gw > cutoff * gw.max()
    g_inv_half = (gv[:, keep] * gw[keep] ** -0.5) @ numerics.dagger(gv[:, keep])
    effects_s = [g_inv_half @ np.outer(u, u.conj()) @ g_inv_half for u in vecs]
    frame = np.stack([e.reshape(-1) for e in effects_s], axis=1)
    duals_flat = np.linalg.solve(frame @ numerics.dagger(frame), frame)
    duals_s = [numerics.hermitize(duals_flat[:, i].reshape(r, r)) for i in range(members)]
    sq = numerics.psd_power(rho, 0.5)
    effects = [numerics.hermitize(basis @ e @ numerics.dagger(basis)) for e in effects_s]
    duals = [basis @ dsup @ numerics.dagger(basis) for dsup in duals_s]
    base = [numerics.hermitize(sq @ e @ sq) for e in effects]
    gamma = max(numerics.trace_norm(dd) for dd in duals)
    return base, effects, duals, gamma


def _ref_joint(channel, members, meas):
    effects = [numerics.dagger(e) @ e for e in refine(channel, meas)]
    p = np.array([[np.trace(m @ f).real for f in effects] for m in members])
    return np.clip(p, 0.0, None)


def _ref_chain(channel, rho, members, meas):
    """Per-outcome loop version of erasure._chain_quantities."""
    refined = list(refine(channel, meas))
    probs = [max(np.trace(e @ rho @ numerics.dagger(e)).real, 0.0) for e in refined]
    joint = _ref_joint(channel, members, meas)
    weights = _ref_weights(members)
    p_out = joint.sum(axis=0)
    sq = numerics.psd_power(rho, 0.5)
    kept = [j for j in range(len(refined)) if probs[j] >= OUTCOME_FLOOR]
    trace_dists, classical_l1 = {}, {}
    for j in kept:
        cond = numerics.hermitize(sq @ (numerics.dagger(refined[j]) @ refined[j]) @ sq) / probs[j]
        trace_dists[j] = numerics.trace_norm(rho - cond)
        classical_l1[j] = float(np.abs(weights - joint[:, j] / p_out[j]).sum())
    f_e = float(sum(abs(np.trace(rho @ e)) ** 2 for e in channel.operators))
    f_ea = float(sum(numerics.trace_norm(e @ rho) ** 2 for e in refined))
    info = mutual_information(joint)
    return probs, kept, trace_dists, classical_l1, f_e, f_ea, info, min(weights)


def _ref_direct(channel, rho, members, meas):
    probs, kept, td, l1, f_e, f_ea, info, beta = _ref_chain(channel, rho, members, meas)
    a1 = 1 - sum(probs[j] * td[j] ** 2 for j in kept) / 4
    a2 = 1 - sum(probs[j] * l1[j] ** 2 for j in kept) / 4
    a3 = 1 - beta * info / 4
    return {
        "f_e": f_e,
        "f_ea": f_ea,
        "mutual_info": info,
        "beta": beta,
        "slack_fidelity_trace": a1 - f_ea,
        "slack_measurement_l1": a2 - a1,
        "slack_pinsker": a3 - a2,
        "slack_total": 1 - a3,
    }


def _ref_converse(channel, rho, meas, members, seed):
    base, _, _, gamma = _ref_ic_ensemble(rho, members, seed)
    report = _ref_direct(channel, rho, base, meas)
    probs, kept, td, l1, _, f_ea, info, _ = _ref_chain(channel, rho, base, meas)
    b1 = 1 - sum(probs[j] * td[j] for j in kept)
    b2 = 1 - gamma * sum(probs[j] * l1[j] for j in kept)
    b3 = 1 - np.sqrt(2) * gamma * np.sqrt(info)
    report["gamma"] = gamma
    report["slack_converse"] = min(f_ea - b1, b1 - b2, b2 - b3)
    return report


def _configurations():
    """Three seeded configurations per dimension, d = 2..6."""
    rng = np.random.default_rng(2024)
    out = []
    for d in range(2, 7):
        for _ in range(3):
            kk = int(rng.integers(2, d * d + 1))
            out.append(
                {
                    "d": d,
                    "channel": preset("random", dim=d, kraus=kk, seed=int(rng.integers(2**31))),
                    "rho": random_density(d, int(rng.integers(2**31))),
                    "meas": random_measurement(
                        kk + int(rng.integers(0, 3)), kk, int(rng.integers(2**31))
                    ),
                    "members": int(rng.integers(2, 7)),
                    "ic_members": d * d + int(rng.integers(0, 5)),
                    "seed": int(rng.integers(2**31)),
                }
            )
    return out


CONFIGS = _configurations()
IDS = [f"d{c['d']}-{i}" for i, c in enumerate(CONFIGS)]


def _close(a, b, atol):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) <= atol


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_random_ensemble_weights_average_and_joint(cfg):
    ens = random_ensemble(cfg["rho"], cfg["members"], cfg["seed"])
    ref = _ref_random_ensemble(cfg["rho"], cfg["members"], cfg["seed"])
    assert _close(ens.stack, np.stack(ref), ATOL)
    # the stacked trace and sum keep the loop's order: equal to the last bit
    assert np.array_equal(ens.weights, _ref_weights(ens.members))
    assert np.array_equal(ens.average, _ref_average(ens.members))
    joint = joint_distribution(cfg["channel"], ens, cfg["meas"])
    assert joint.shape == (cfg["members"], cfg["meas"].outcomes)
    assert _close(joint, _ref_joint(cfg["channel"], ens.members, cfg["meas"]), ATOL)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_ic_ensemble_matches_the_loop(cfg):
    ic = ic_ensemble(cfg["rho"], cfg["ic_members"], cfg["seed"])
    base, effects, duals, gamma = _ref_ic_ensemble(cfg["rho"], cfg["ic_members"], cfg["seed"])
    assert abs(ic.gamma - gamma) <= GAMMA_RTOL * gamma
    assert _close(ic.base.stack, np.stack(base), ATOL)
    assert _close(np.stack(ic.frame_effects), np.stack(effects), ATOL)
    assert _close(np.stack(ic.dual_frame), np.stack(duals), GAMMA_RTOL * gamma)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_verify_reports_match_the_loop(cfg):
    channel, rho, meas = cfg["channel"], cfg["rho"], cfg["meas"]
    ens = random_ensemble(rho, cfg["members"], cfg["seed"])
    direct = verify_direct(channel, rho, ens, meas).to_dict()
    ref = _ref_direct(channel, rho, ens.members, meas)
    for key, value in ref.items():
        assert abs(direct[key] - value) <= ATOL, key

    converse = verify_converse(channel, rho, meas, cfg["ic_members"], cfg["seed"]).to_dict()
    ref = _ref_converse(channel, rho, meas, cfg["ic_members"], cfg["seed"])
    gamma = ref.pop("gamma")
    assert abs(converse["gamma"] - gamma) <= GAMMA_RTOL * gamma
    for key, value in ref.items():
        assert abs(converse[key] - value) <= ATOL, key


@pytest.mark.parametrize(
    "first, second, figure",
    [
        # min eigenvalue -1e-6, then a worse -1e-3
        (np.diag([0.25 + 1e-6, -1e-6]), np.diag([0.25 + 1e-3, -1e-3]), "min eigenvalue -1.000e-06"),
        # hermiticity 1e-8, then a worse 1e-3
        (
            np.array([[0.25, 1e-8], [0, 0.25]]),
            np.array([[0.25, 1e-3], [0, 0.25]]),
            "hermiticity 1.000e-08",
        ),
    ],
)
def test_ensemble_names_the_first_failing_member(first, second, figure):
    good = np.diag([0.5, 0.0])
    with pytest.raises(NotPSD) as info:
        ensemble([good, first, second])
    message = str(info.value)
    assert "member 1 " in message and figure in message


def test_cached_arrays_are_read_only():
    ens = random_ensemble(random_density(3, 5), 4, 6)
    weights, average = ens.weights.copy(), ens.average.copy()
    for array in (ens.weights, ens.average, ens.stack, ens.members[0]):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert ens.weights is ens.weights and ens.average is ens.average
    assert np.array_equal(ens.weights, weights) and np.array_equal(ens.average, average)
