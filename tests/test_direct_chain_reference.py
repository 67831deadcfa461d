"""The direct chain against a 50-digit reference: at d = 2 and 3, and where it is tight.

From the float64 inputs that ``verify_direct`` reads (the Kraus operators,
the state, the ensemble members and the mixing), mpmath at 50 significant
digits recomputes F_e, F_ea, the mutual information and the four direct
slacks, link by link as the chain defines them: every trace norm from
``mp.svd_c``, and the square root of rho from ``mp.eighe``. The
configurations are the kind ``verify`` draws, at fixed seeds, with every
state's smallest eigenvalue far above ``RANK_CUTOFF``, so the reference
measures the rounding of the float64 path and nothing else. The
near-perfect-erasure fixtures read a channel within ``eps`` of a mixture of
unitaries at its best mixing, where every slack shrinks toward zero with
``eps``, and check each slack to a relative tolerance as well.
"""

import functools

import numpy as np
import pytest
from mpmath import mp

from erasurekit import (
    kraus_channel,
    optimize_erasure,
    preset,
    random_density,
    random_ensemble,
    random_measurement,
    verify_direct,
)
from erasurekit.numerics import RANK_CUTOFF, ginibre
from erasurekit.probes import OUTCOME_FLOOR

TRIALS = 40
QUANTITIES = (
    "f_e",
    "f_ea",
    "mutual_info",
    "slack_fidelity_trace",
    "slack_measurement_l1",
    "slack_pinsker",
    "slack_total",
)

# Absolute tolerance on every quantity: 16 ulps of 1.0, 3.6e-15. Over these 40
# configurations the worst float64 error is 8.2e-16, in the mutual information
# (4.6e-16 in F_ea, 4.1e-16 in the first slack), so the tolerance leaves 4.3x
# headroom for other BLAS builds and summation orders; over 400 configurations
# of this kind the worst error was 1.3e-15.
TOLERANCE = 16 * np.finfo(float).eps


def _configuration(trial):
    d = (2, 3)[trial % 2]
    kraus = 2 + trial % (d * d - 1)
    channel = preset("random", dim=d, kraus=kraus, seed=[2006, trial, 0])
    rho = random_density(d, [2006, trial, 1])
    ens = random_ensemble(rho, 2 + trial % 5, [2006, trial, 2])
    meas = random_measurement(kraus, kraus, [2006, trial, 3])
    return channel, rho, ens, meas


def _mp(a):
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])


def _trace(a):
    return mp.fsum(a[i, i] for i in range(a.rows))


def _trace_norm(a):
    s = mp.svd_c(a, compute_uv=False)
    return mp.fsum(s[i] for i in range(len(s)))


def _entropy(p):
    return -mp.fsum(x * mp.log(x) for x in p if x > 0)


def _reference(channel, rho, ens, meas):
    """The reported quantities of ``verify_direct``, from its float64 inputs at 50 digits."""
    ops = [_mp(e) for e in channel.stack]
    w = _mp(meas.mixing)
    r = _mp(rho)
    members = [_mp(x) for x in ens.stack]
    d = rho.shape[0]
    refined = []
    for j in range(w.rows):
        branch = mp.zeros(d, d)
        for k, e in enumerate(ops):
            branch += e * w[j, k]
        refined.append(branch)
    values, vectors = mp.eighe(r)
    sq = vectors * mp.diag([mp.sqrt(mp.re(x)) for x in values]) * vectors.H

    f_e = mp.fsum(abs(_trace(r * e)) ** 2 for e in ops)
    f_ea = mp.fsum(_trace_norm(b * r) ** 2 for b in refined)
    effects = [b.H * b for b in refined]
    probs = [mp.re(_trace(b * r * b.H)) for b in refined]
    joint = [[mp.re(_trace(x * effect)) for effect in effects] for x in members]
    weights = [mp.re(_trace(x)) for x in members]
    rows = [mp.fsum(row) for row in joint]
    columns = [mp.fsum(row[j] for row in joint) for j in range(len(effects))]
    info = _entropy(rows) + _entropy(columns) - _entropy([p for row in joint for p in row])

    sum_trace_sq = sum_l1_sq = mp.zero
    for j, p in enumerate(probs):
        if p < OUTCOME_FLOOR:
            continue
        state = sq * effects[j] * sq / p
        sum_trace_sq += p * _trace_norm(r - state) ** 2
        l1 = mp.fsum(abs(q - row[j] / columns[j]) for q, row in zip(weights, joint))
        sum_l1_sq += p * l1**2
    a1 = 1 - sum_trace_sq / 4
    a2 = 1 - sum_l1_sq / 4
    a3 = 1 - min(weights) * info / 4
    return {
        "f_e": f_e,
        "f_ea": f_ea,
        "mutual_info": info,
        "slack_fidelity_trace": a1 - f_ea,
        "slack_measurement_l1": a2 - a1,
        "slack_pinsker": a3 - a2,
        "slack_total": 1 - a3,
    }


@pytest.mark.parametrize("trial", range(TRIALS))
def test_direct_chain_is_within_rounding_of_the_reference(trial):
    channel, rho, ens, meas = _configuration(trial)
    assert np.linalg.eigvalsh(rho).min() > 1e6 * RANK_CUTOFF
    report = verify_direct(channel, rho, ens, meas)
    with mp.workdps(50):
        reference = _reference(channel, rho, ens, meas)
        errors = {q: float(abs(mp.mpf(getattr(report, q)) - reference[q])) for q in QUANTITIES}
    assert max(errors.values()) <= TOLERANCE, errors


# Near-perfect erasure: the Schur channel d = 4, K = 3, seed 1 (Kraus
# operators diag(a_k), with a a K x d complex normal matrix whose columns have
# unit norm) reaches F_ea = 1 at 9 outcomes. It is scaled by sqrt(1 - eps),
# with sqrt(eps) times a random 2-operator channel appended; at eps = 0 those
# two operators are zero, and the channel keeps them. At eps = 0 the
# mutual information is about 1e-14, an entropy difference of terms near 1,
# so it rounds to a multiple of their ulps: it reads 1.066e-14 where the
# reference gives 1.090e-14 (3-member ensemble), and slack_total = beta I / 4,
# computed from it directly, reads 6.71e-16 against 6.86e-16, 2.2% off.
ROUNDED_TO_ULPS = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a mutual information near 1e-15 rounds on the scale of its O(1) entropies",
)
EPSILONS = (
    *(10.0**-n for n in range(2, 11)),
    pytest.param(0.0, marks=ROUNDED_TO_ULPS),
)
SLACKS = QUANTITIES[3:]

# Relative tolerance on every slack, next to TOLERANCE. Over the fixtures from
# eps = 1e-2 to 1e-10, 5 ensembles each, the worst relative error is 6.6e-4,
# on slack_total at eps = 1e-10, which inherits it from the mutual
# information; it is below 7e-5 for eps >= 1e-9. So the tolerance leaves 15x
# headroom at the tightest fixture that passes.
SLACK_RTOL = 1e-2


# both tests below read the same fixtures and references, so each is built once
@functools.cache
def _near_perfect(eps):
    """The channel at ``eps``, the state I/4, and its K^2-outcome best mixing."""
    a = ginibre(3, 4, 1)
    a /= np.linalg.norm(a, axis=0)
    noise = preset("random", dim=4, kraus=2, seed=9).stack
    channel = kraus_channel([*(np.sqrt(1 - eps) * np.diag(x) for x in a), *np.sqrt(eps) * noise])
    rho = np.eye(4, dtype=complex) / 4
    best = optimize_erasure(channel, rho, channel.kraus_count**2, restarts=8, seed=0)
    return channel, rho, best.best_mixing


@functools.cache
def _near_perfect_reference(eps, k):
    """Ensemble k of the fixture at ``eps`` and its 50-digit reference."""
    channel, rho, meas = _near_perfect(eps)
    ens = random_ensemble(rho, 2 + k, [2006, 26, k])
    with mp.workdps(50):
        return ens, _reference(channel, rho, ens, meas)


@pytest.mark.parametrize("eps", EPSILONS)
def test_tight_direct_chain_is_within_rounding_of_the_reference(eps):
    channel, rho, meas = _near_perfect(eps)
    for k in range(5):
        ens, reference = _near_perfect_reference(eps, k)
        report = verify_direct(channel, rho, ens, meas)
        with mp.workdps(50):
            errors = {q: abs(mp.mpf(getattr(report, q)) - reference[q]) for q in QUANTITIES}
            relative = {q: float(errors[q] / abs(reference[q])) for q in SLACKS}
        assert max(map(float, errors.values())) <= TOLERANCE, (k, errors)
        assert max(relative.values()) <= SLACK_RTOL, (k, relative)
        assert min(float(reference[q]) for q in SLACKS) > 0, k


# slack_measurement_l1 = (sum_trace_sq - sum_l1_sq) / 4 involves no term near 1
# and no entropy, so it stays accurate where the chain is tight: its worst
# relative error over these fixtures is 2.3e-11, at eps = 0. A difference of
# 1 - sum_l1_sq / 4 and 1 - sum_trace_sq / 4 reads it to 8.4e-5 there, and
# misses 1e-9 at every eps <= 1e-7.
MEASUREMENT_L1_RTOL = 1e-9


@pytest.mark.parametrize("eps", (*(10.0**-n for n in range(2, 11)), 0.0))
def test_tight_measurement_l1_slack_keeps_its_relative_accuracy(eps):
    channel, rho, meas = _near_perfect(eps)
    for k in range(5):
        ens, reference = _near_perfect_reference(eps, k)
        slack = verify_direct(channel, rho, ens, meas).slack_measurement_l1
        exact = reference["slack_measurement_l1"]
        with mp.workdps(50):
            relative = float(abs(mp.mpf(slack) - exact) / abs(exact))
        assert relative <= MEASUREMENT_L1_RTOL, (k, relative)
