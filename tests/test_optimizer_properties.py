"""Property tests for the erasure search, drawn by hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from erasurekit import (
    choi_distance,
    detect_random_unitary,
    haar_isometry,
    joint_distribution,
    kraus_channel,
    mutual_information,
    optimize_erasure,
    preset,
    probe_measurement,
    random_density,
    random_ensemble,
    witness_channel,
)
from erasurekit.channels import COMPLETENESS_ATOL, PAULIS
from erasurekit.optimizer import RESTART_TIE_ATOL
from erasurekit.probes import OUTCOME_FLOOR
from reference import branch_residual, certificate_bound, unitality_gap


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


@settings(max_examples=20, deadline=None)
@given(
    paulis=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_unital_qubit_channels_are_random_unitary(paulis, weights, seed):
    # every unital qubit channel is U Lambda(V . V^dag) U^dag with a
    # Pauli-diagonal Lambda (King & Ruskai 2001), a mixture of U sigma_i V;
    # a Haar unitary scrambles its Kraus operators, so none is a scaled unitary
    rng = np.random.default_rng(seed)
    u, v = haar_isometry(2, 2, rng), haar_isometry(2, 2, rng)
    q = np.array(weights[: len(paulis)])
    q /= q.sum()
    unitaries = np.array([u @ PAULIS[i] @ v for i in paulis])
    scramble = haar_isometry(len(paulis), len(paulis), rng)
    ch = kraus_channel(np.einsum("jk,k,kab->jab", scramble, np.sqrt(q), unitaries))
    assert unitality_gap(ch) < certificate_bound(ch.dim, ch.kraus_count)
    verdict = detect_random_unitary(ch, seed=0)
    assert verdict.is_random_unitary
    assert choi_distance(witness_channel(verdict), ch) < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 4),
    kk=st.integers(1, 6),
    extra_outcomes=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_branch_residual_bounds_the_unitality_gap(d, kk, extra_outcomes, seed):
    # the inequality behind the certificate, at an arbitrary mixing:
    # gap <= d residual (1 + COMPLETENESS_ATOL) + (d + 1) m OUTCOME_FLOOR + COMPLETENESS_ATOL
    ch = preset("random", dim=d, kraus=kk, seed=[seed, 0])
    m = kk + extra_outcomes
    w = haar_isometry(m, kk, [seed, 1])
    bound = (
        d * branch_residual(ch, w) * (1 + COMPLETENESS_ATOL)
        + (d + 1) * m * OUTCOME_FLOOR
        + COMPLETENESS_ATOL
    )
    assert unitality_gap(ch) <= bound


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 4),
    kk=st.integers(1, 5),
    extra_outcomes=st.integers(0, 2),
    log_eps=st.floats(np.log(1e-7), np.log(0.3)),
    members=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_branch_residual_bounds_the_information_of_every_ensemble(
    d, kk, extra_outcomes, log_eps, members, seed
):
    # the inequality behind the erasure certificate: for every ensemble of I/d,
    # MI <= chi^2 <= d^2 residual^2 + (d - 1)^2 m OUTCOME_FLOOR, here at mixings
    # a rotation exp(i eps H) away from the one that unscrambles a mixture of unitaries
    rng = np.random.default_rng(seed)
    unitaries = np.array([haar_isometry(d, d, rng) for _ in range(kk)])
    scramble = haar_isometry(kk, kk, rng)
    weights = np.sqrt(rng.dirichlet(np.ones(kk)))
    ch = kraus_channel(np.einsum("jk,k,kab->jab", scramble, weights, unitaries))
    m = kk + extra_outcomes
    h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    values, vectors = np.linalg.eigh((h + h.conj().T) / 2)
    rotation = vectors @ np.diag(np.exp(1j * np.exp(log_eps) * values)) @ vectors.conj().T
    w = rotation @ np.vstack([scramble.conj().T, np.zeros((extra_outcomes, kk))])
    bound = d**2 * branch_residual(ch, w) ** 2 + (d - 1) ** 2 * m * OUTCOME_FLOOR + 1e-12
    meas = probe_measurement(w)
    for check in range(3):
        ens = random_ensemble(np.eye(d) / d, members, [seed, check])
        assert mutual_information(joint_distribution(ch, ens, meas)) <= bound
