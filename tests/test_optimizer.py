import sys
from types import SimpleNamespace

import numpy as np
import pytest

from erasurekit import (
    assisted_fidelity,
    choi_distance,
    detect_random_unitary,
    haar_isometry,
    kraus_channel,
    numerics,
    optimize_erasure,
    optimizer,
    preset,
    probe_measurement,
    random_measurement,
    sample_oracle,
    witness_channel,
)
from erasurekit.channels import PAULI_Z
from erasurekit.errors import BadOutcomeCount, DimensionMismatch, ParamOutOfRange
from erasurekit.optimizer import (
    DEFAULT_MAX_ITERS,
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    POLISH_ITERS,
    RANDOM_UNITARY_TOL,
    RESTART_TIE_ATOL,
    WARMUP,
    _ascend,
    _begin,
    _evaluate,
    _round,
    _start,
)
from reference import branch_residual, certificate_bound, unitality_gap

MIXED = np.eye(2, dtype=complex) / 2


def projector_channel():
    return preset("eraser_cnot")


def werner_holevo_channel():
    # the d = 3 Werner-Holevo channel, (|i><j| - |j><i|)/sqrt2 over i < j,
    # is unital but not a mixture of unitaries
    ops = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        e = np.zeros((3, 3), dtype=complex)
        e[i, j], e[j, i] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        ops.append(e)
    return kraus_channel(ops)


def assert_below_the_certificate(ch):
    assert unitality_gap(ch) < certificate_bound(ch.dim, ch.kraus_count)


@pytest.fixture
def polish_calls(monkeypatch):
    """Records each witness polish, the ascent ``detect_random_unitary`` runs
    itself rather than through a search, and lets it run."""
    calls = []

    def spy(*args):
        if sys._getframe(1).f_code.co_name == "detect_random_unitary":
            calls.append(args)
        return _ascend(*args)

    monkeypatch.setattr(optimizer, "_ascend", spy)
    return calls


@pytest.fixture
def search_calls(monkeypatch):
    """Records each search ``detect_random_unitary`` starts, and lets it run."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return optimize_erasure(*args, **kwargs)

    monkeypatch.setattr(optimizer, "optimize_erasure", spy)
    return calls


def rows_match_up_to_phase(w, reference, tol=1e-6):
    # outcome order is a relabeling gauge on top of the per-row phase gauge
    used = set()
    for row in w:
        hit = None
        for i, ref in enumerate(reference):
            if i in used:
                continue
            inner = complex(np.vdot(row, ref))
            if abs(inner) < 1e-12:
                continue
            if np.abs(row * (inner / abs(inner)) - ref).max() < tol:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


class TestOptimizeErasure:
    def test_projector_channel_finds_hadamard(self):
        result = optimize_erasure(projector_channel(), MIXED, seed=0)
        assert result.best_value >= 1 - 1e-9
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        assert rows_match_up_to_phase(result.best_mixing.mixing, hadamard)

    def test_full_damping_objective_is_constant(self):
        ch = preset("amplitude_damping", gamma=1.0)
        result = optimize_erasure(ch, MIXED, seed=1)
        assert result.best_value == pytest.approx(0.5, abs=1e-9)
        rng = np.random.default_rng(5)
        for _ in range(100):
            meas = random_measurement(2, 2, rng)
            assert assisted_fidelity(ch, MIXED, meas) == pytest.approx(0.5, abs=1e-10)

    def test_identity_channel_immediate(self):
        result = optimize_erasure(preset("identity"), seed=2)
        assert result.best_value == pytest.approx(1.0, abs=1e-12)
        assert result.trace[0][:2] == (0, 0)
        assert result.trace[0][2] == pytest.approx(1.0, abs=1e-12)
        assert result.converged

    def test_monotone_ascent(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            result = optimize_erasure(ch, restarts=4, seed=trial)
            by_restart = {}
            for restart, _, value in result.trace:
                if restart in by_restart:
                    assert value >= by_restart[restart] - 1e-12
                by_restart[restart] = value

    def test_default_state_and_canonical_floor(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            ch = preset("random", dim=2, kraus=3, seed=rng)
            result = optimize_erasure(ch, restarts=4, seed=trial)
            assert result.best_value >= assisted_fidelity(ch, MIXED) - 1e-12

    def test_outcome_count_monotone(self):
        rng = np.random.default_rng(8)
        for trial in range(6):
            ch = preset("random", dim=2, kraus=2, seed=rng)
            small = optimize_erasure(ch, MIXED, 2, seed=trial).best_value
            large = optimize_erasure(ch, MIXED, 3, seed=trial).best_value
            assert large >= small - 1e-9

    def test_too_few_outcomes(self):
        with pytest.raises(BadOutcomeCount):
            optimize_erasure(projector_channel(), MIXED, 1)

    @pytest.mark.parametrize(
        "budget",
        [{"restarts": 0}, {"restarts": -3}, {"max_iters": -1}, {"tol": -1.0}, {"tol": np.nan}],
    )
    def test_budget_out_of_range(self, budget):
        with pytest.raises(ParamOutOfRange):
            optimize_erasure(projector_channel(), **budget)

    def test_records_a_read_only_copy_of_its_state(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        result = optimize_erasure(projector_channel(), rho, restarts=1)
        assert np.array_equal(result.state, rho) and result.state is not rho
        assert not result.state.flags.writeable and rho.flags.writeable
        assert np.array_equal(optimize_erasure(projector_channel(), restarts=1).state, MIXED)

    @pytest.mark.parametrize("search", [optimize_erasure, sample_oracle])
    def test_state_of_the_wrong_dimension(self, search):
        with pytest.raises(DimensionMismatch, match="channel acts on dimension 2"):
            search(projector_channel(), np.eye(3, dtype=complex) / 3)

    def test_deterministic(self):
        a = optimize_erasure(projector_channel(), seed=3)
        b = optimize_erasure(projector_channel(), seed=3)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_mixing.mixing, b.best_mixing.mixing)
        assert a.trace == b.trace


def _inline_oracle(channel, samples, seed):
    # the oracle as it was written before it shared numerics._haar and
    # numerics._trace_norms; returns its value, its draws and their Ginibre
    # matrices and R factors
    kk, dim = channel.kraus_count, channel.dim
    ops_rho = np.stack(channel.operators) @ (np.eye(dim, dtype=complex) / dim)
    rng = np.random.default_rng(seed)
    best, done, draws = -np.inf, 0, []
    while done < samples:
        n = min(4096, samples - done)
        g = (rng.normal(size=(n, kk, kk)) + 1j * rng.normal(size=(n, kk, kk))) / np.sqrt(2)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        w = q * (d / np.abs(d))[:, None, :]
        draws.append((w, g, r))
        t = np.linalg.svd(np.einsum("njk,kab->njab", w, ops_rho), compute_uv=False).sum(axis=-1)
        best = max(best, float((t**2).sum(axis=-1).max()))
        done += n
    return best, draws


def assert_near_the_qr_draw(q, reference, g, r):
    # a 2 x 2 draw writes out the QR that LAPACK computes, so the two agree
    # matrix by matrix to rounding, scaled by the conditioning of G
    bound = 8 * np.finfo(float).eps * np.linalg.norm(g, axis=(-2, -1)) / np.abs(r[..., 1, 1])
    assert np.all(np.abs(q - reference).max(axis=(-2, -1)) <= bound)


class TestSampleOracle:
    @pytest.mark.parametrize("kk", [2, 3, 4, 16])
    def test_bit_identical_to_the_inline_draw(self, kk, monkeypatch):
        draws, haar_draw = [], numerics._haar

        def recording_haar(shape, rng):
            draws.append(haar_draw(shape, rng))
            return draws[-1]

        monkeypatch.setattr(numerics, "_haar", recording_haar)
        for dim in (2, 3):
            ch = preset("random", dim=dim, kraus=kk, seed=kk)
            for samples in (1, 4096, 4097, 9000):
                draws.clear()
                value = sample_oracle(ch, samples=samples, seed=kk)
                reference, reference_draws = _inline_oracle(ch, samples, kk)
                assert len(draws) == len(reference_draws)
                if kk == 2:
                    for q, (w, g, r) in zip(draws, reference_draws):
                        assert_near_the_qr_draw(q, w, g, r)
                else:
                    assert all(np.array_equal(a, w) for a, (w, _, _) in zip(draws, reference_draws))
                if dim == 2 or kk == 2:
                    # closed-form 2 x 2 trace norms, or 2 x 2 draws, agree
                    # with the SVD and QR forms to a few ulps
                    assert abs(value - reference) <= 8 * np.finfo(float).eps * reference
                else:
                    assert value == reference

    def test_identity_channel(self):
        assert sample_oracle(preset("identity"), samples=3, seed=0) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples(self, samples):
        with pytest.raises(ParamOutOfRange, match="at least one sample"):
            sample_oracle(preset("identity"), samples=samples)

    def test_projector_channel_approaches_optimum(self):
        value = sample_oracle(projector_channel(), MIXED, samples=10_000, seed=1)
        assert value >= 1 - 1e-3

    def test_full_damping_exact(self):
        value = sample_oracle(preset("amplitude_damping", gamma=1.0), MIXED, 200, seed=2)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_deterministic(self):
        a = sample_oracle(projector_channel(), samples=500, seed=9)
        b = sample_oracle(projector_channel(), samples=500, seed=9)
        assert a == b

    def test_optimizer_dominates_oracle(self):
        # seeded suite of 20 random channels (d = 2, K <= 4)
        rng = np.random.default_rng(10)
        for trial in range(20):
            kk = int(rng.integers(2, 5))
            ch = preset("random", dim=2, kraus=kk, seed=rng)
            best = optimize_erasure(ch, MIXED, seed=trial).best_value
            oracle = sample_oracle(ch, MIXED, samples=20_000, seed=trial)
            assert best >= oracle - 1e-3


class TestDetectRandomUnitary:
    def test_a_false_verdict_has_no_witness_channel(self):
        verdict = detect_random_unitary(preset("amplitude_damping", gamma=0.5), seed=0)
        assert not verdict.is_random_unitary and verdict.witness is None
        with pytest.raises(ValueError, match="no witness"):
            witness_channel(verdict)

    def test_projector_channel_witness(self):
        verdict = detect_random_unitary(projector_channel(), seed=0)
        assert verdict.is_random_unitary
        assert verdict.residual < 1e-6
        weights = sorted(w for w, _ in verdict.witness)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-9)
        targets = [np.eye(2, dtype=complex), PAULI_Z]
        matched = set()
        for _, u in verdict.witness:
            for i, t in enumerate(targets):
                inner = complex(np.trace(t.conj().T @ u)) / 2
                if abs(inner) > 1e-6 and np.abs(u - inner / abs(inner) * t).max() < 1e-6:
                    matched.add(i)
        assert matched == {0, 1}
        assert choi_distance(witness_channel(verdict), projector_channel()) < 1e-6
        assert_below_the_certificate(projector_channel())

    def test_unitary_channel(self):
        u = haar_isometry(2, 2, 77)
        ch = kraus_channel([u])
        verdict = detect_random_unitary(ch, seed=1)
        assert verdict.is_random_unitary
        assert len(verdict.witness) == 1
        weight, witness_u = verdict.witness[0]
        assert weight == pytest.approx(1.0, abs=1e-12)
        inner = complex(np.trace(u.conj().T @ witness_u)) / 2
        assert np.abs(witness_u - inner / abs(inner) * u).max() < 1e-9
        assert_below_the_certificate(ch)

    def test_amplitude_damping_rejected(self):
        ch = preset("amplitude_damping", gamma=0.5)
        result = optimize_erasure(ch, MIXED, seed=4)
        verdict = detect_random_unitary(ch, seed=4, result=result)
        assert not verdict.is_random_unitary
        assert verdict.witness is None
        assert result.best_value < 1 - 1e-3

    def test_dephasing_and_depolarizing_presets(self):
        for name, param in (("dephasing", {"p": 0.25}), ("depolarizing", {"p": 0.75})):
            ch = preset(name, **param)
            verdict = detect_random_unitary(ch, seed=5)
            assert verdict.is_random_unitary, name
            assert choi_distance(witness_channel(verdict), ch) < 1e-6
            assert_below_the_certificate(ch)

    @pytest.mark.parametrize("kraus", [2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scrambled_random_unitary_mixture_is_found(self, d, kraus):
        # sum_k p_k U_k rho U_k^dag, stored as E'_j = sum_k W[j,k] sqrt(p_k) U_k
        # with a Haar W, so no Kraus operator is itself a scaled unitary
        rng = np.random.default_rng([d, kraus])
        unitaries = [haar_isometry(d, d, rng) for _ in range(kraus)]
        weights = rng.uniform(0.5, 1.5, kraus)
        weights /= weights.sum()
        scramble = haar_isometry(kraus, kraus, rng)
        ch = kraus_channel(
            np.einsum("jk,k,kab->jab", scramble, np.sqrt(weights), np.array(unitaries))
        )
        verdict = detect_random_unitary(ch, seed=0)
        assert verdict.is_random_unitary
        assert choi_distance(witness_channel(verdict), ch) < 1e-6
        assert_below_the_certificate(ch)

    def test_werner_holevo_channel_is_not_random_unitary(self, polish_calls):
        # unital, so the gap does not decide it: the polish runs, and the
        # search's best value of 2/3 rejects it
        ch = werner_holevo_channel()
        verdict = detect_random_unitary(ch, seed=0)
        assert not verdict.is_random_unitary
        assert verdict.witness is None
        assert_below_the_certificate(ch)
        assert len(polish_calls) == 1

    def test_soundness_on_random_channels(self):
        # any true verdict must reconstruct the channel
        rng = np.random.default_rng(11)
        for trial in range(10):
            ch = preset("random", dim=2, kraus=2, seed=rng)
            verdict = detect_random_unitary(ch, seed=trial, restarts=8)
            if verdict.is_random_unitary:
                assert choi_distance(witness_channel(verdict), ch) < 1e-6

    def test_reuses_supplied_result(self):
        ch = projector_channel()
        result = optimize_erasure(ch, seed=6)
        verdict = detect_random_unitary(ch, seed=6, result=result)
        assert verdict.is_random_unitary

    def test_result_at_another_state_is_not_reused(self):
        # full dephasing leaves |0><0| alone, so a search there keeps the
        # which-path readout it starts from; at the maximally mixed state that
        # readout reveals the path, and the polish cannot leave it
        ch = preset("dephasing", p=0.5)
        result = optimize_erasure(ch, np.diag([1.0, 0.0]).astype(complex), seed=6)
        reused = detect_random_unitary(ch, seed=6, result=result)
        fresh = detect_random_unitary(ch, seed=6)
        assert fresh.is_random_unitary and reused.is_random_unitary
        assert reused.residual == fresh.residual

    @pytest.mark.parametrize(
        "name,params",
        [("dephasing", {"p": 0.25}), ("random", {"dim": 2, "kraus": 2, "seed": 3})],
    )
    def test_result_with_extra_outcomes_is_not_reused(self, name, params, search_calls):
        ch = preset(name, **params)
        result = optimize_erasure(ch, MIXED, 3, seed=6)
        assert result.best_mixing.outcomes == 3
        reused = detect_random_unitary(ch, seed=6, result=result)
        if unitality_gap(ch) > 2 * certificate_bound(ch.dim, ch.kraus_count):
            # the gap refuses the channel whatever the search finds, so the
            # residual is taken at the supplied mixing and no search runs
            assert search_calls == []
            assert not reused.is_random_unitary and reused.witness is None
            w = result.best_mixing.mixing
            assert reused.residual == pytest.approx(branch_residual(ch, w), rel=1e-9, abs=1e-15)
            return
        fresh = detect_random_unitary(ch, seed=6)
        assert reused.is_random_unitary == fresh.is_random_unitary
        assert reused.residual == fresh.residual
        if fresh.witness is None:
            assert reused.witness is None
        else:
            assert len(reused.witness) == len(fresh.witness)
            for (p, u), (q, v) in zip(reused.witness, fresh.witness):
                assert p == q and np.array_equal(u, v)


class TestUnitalityCertificate:
    """Every mixture of unitaries is unital, so a channel whose unitality gap
    exceeds the certificate bound is refused before the witness polish."""

    @pytest.mark.parametrize(
        "name,params",
        [
            ("amplitude_damping", {"gamma": 0.5}),
            ("amplitude_damping", {"gamma": 0.05}),
            ("partial_teleportation", {"lam0": 0.8}),
            ("random", {"dim": 2, "kraus": 3, "seed": 1}),
            ("random", {"dim": 3, "kraus": 4, "seed": 2}),
            ("random", {"dim": 4, "kraus": 5, "seed": 3}),
            ("random", {"dim": 4, "kraus": 16, "seed": 4}),
        ],
        ids=["damping", "weak-damping", "teleportation", "d2k3", "d3k4", "d4k5", "d4k16"],
    )
    def test_non_unital_channel_is_refused_without_the_polish(self, name, params, polish_calls):
        ch = preset(name, **params)
        assert unitality_gap(ch) > 2 * certificate_bound(ch.dim, ch.kraus_count)
        result = optimize_erasure(ch, restarts=4, seed=1)
        verdict = detect_random_unitary(ch, seed=1, result=result)
        assert polish_calls == []
        assert not verdict.is_random_unitary and verdict.witness is None
        w = result.best_mixing.mixing
        assert verdict.residual == pytest.approx(branch_residual(ch, w), rel=1e-9, abs=1e-15)
        # the polish would not have changed the verdict: at the polished mixing
        # the residual still fails the test a true verdict needs
        rho = np.eye(ch.dim, dtype=complex) / ch.dim
        (polished,) = _ascend([ch.stack @ rho], [w], POLISH_ITERS, 0.0)
        assert branch_residual(ch, polished.w) >= 10 * np.sqrt(RANDOM_UNITARY_TOL)

    @pytest.mark.parametrize(
        "name,params",
        [("amplitude_damping", {"gamma": 0.5}), ("random", {"dim": 4, "kraus": 16, "seed": 4})],
        ids=["damping", "d4k16"],
    )
    def test_refused_channel_without_a_result_is_not_searched(
        self, name, params, search_calls, polish_calls
    ):
        ch = preset(name, **params)
        assert unitality_gap(ch) > 2 * certificate_bound(ch.dim, ch.kraus_count)
        verdict = detect_random_unitary(ch, seed=1)
        assert search_calls == [] and polish_calls == []
        assert not verdict.is_random_unitary and verdict.witness is None
        w = np.eye(ch.kraus_count)
        assert verdict.residual == pytest.approx(branch_residual(ch, w), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("name", ["amplitude_damping", "dephasing"])
    def test_result_with_another_kraus_count_is_refused_before_any_search(
        self, name, search_calls, polish_calls
    ):
        # refused by the gap or not, the result cannot describe this channel
        result = optimize_erasure(preset("depolarizing", p=0.5), restarts=2, seed=1)
        assert result.best_mixing.kraus_count == 4
        with pytest.raises(DimensionMismatch, match="4 Kraus indices, channel has 2"):
            detect_random_unitary(preset(name), seed=1, result=result)
        assert search_calls == [] and polish_calls == []

    def test_channel_within_twice_the_bound_takes_the_polish(self, polish_calls):
        # a gap of 0.005 is above the bound (3.2e-3), but within the factor 2
        # left for rounding, so the polish decides
        ch = preset("amplitude_damping", gamma=0.005)
        assert certificate_bound(2, 2) < unitality_gap(ch) < 2 * certificate_bound(2, 2)
        assert not detect_random_unitary(ch, restarts=4, seed=1).is_random_unitary
        assert len(polish_calls) == 1


class TestProbeMeasurementRoundTrip:
    def test_best_mixing_is_valid_measurement(self):
        result = optimize_erasure(preset("random", dim=2, kraus=3, seed=21), seed=0)
        again = probe_measurement(result.best_mixing.mixing)
        assert again.outcomes == 3


def _flat(ops, rho):
    # row k is E_k rho
    return (ops @ rho).reshape(len(ops), -1)


# Reference ascent, one restart at a time, with three decompositions per
# step: F is evaluated by a separate values-only kernel instead of being read
# from the step's branch polar factors. Both kernels take the closed form for
# 2 x 2 matrices and LAPACK otherwise, as the search does; tests in
# test_numerics pin the closed forms against LAPACK.
def _reference_objective(ops, rho, w):
    d = rho.shape[0]
    branches_rho = (w @ _flat(ops, rho)).reshape(-1, d, d)
    return float((numerics._trace_norms(branches_rho) ** 2).sum())


def _reference_step(ops, rho, w):
    # one plain MM step: the conjugated polar factor of G at w
    d = rho.shape[0]
    flat = _flat(ops, rho)
    t, v = numerics._polar_factors((w @ flat).reshape(-1, d, d))
    g = t[:, None] * (v.conj().reshape(len(v), -1) @ flat.T)
    return numerics._polar_factors(g)[1].conj()


def _reference_ascend(ops, rho, w, max_iters, tol, restart, trace):
    # stops at the first step that gains no more than tol, and ends at the
    # better of its last two points, the earlier one on a tie
    value = _reference_objective(ops, rho, w)
    trace.append((restart, 0, value))
    converged = False
    for it in range(1, max_iters + 1):
        new_w = _reference_step(ops, rho, w)
        new_value = _reference_objective(ops, rho, new_w)
        trace.append((restart, it, new_value))
        converged = not new_value - value > tol
        if new_value > value:
            w, value = new_w, new_value
        if converged:
            break
    return w, value, converged


def _reference_polish(ops, rho, w, iters):
    # the witness polish as its own loop: plain steps while F strictly
    # increases, ending at the last increasing point
    value = _reference_objective(ops, rho, w)
    for _ in range(iters):
        w2 = _reference_step(ops, rho, w)
        v2 = _reference_objective(ops, rho, w2)
        if not v2 > value:
            break
        w, value = w2, v2
    return w, value


def _seeded_channels(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 5))
        kk = int(rng.integers(2, min(d * d, 8) + 1))
        yield preset("random", dim=d, kraus=kk, seed=rng)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def _assert_same_rows(trace, reference):
    assert len(trace) == len(reference)
    for (r, i, v), (r0, i0, v0) in zip(trace, reference):
        assert (r, i) == (r0, i0)
        assert abs(v - v0) <= 1e-14


def _evaluations(trace, max_iters, tol):
    # a restart that stopped on a gain of at most tol made as many evaluations
    # as its last row's index; one that did not stop ran its whole budget
    rows = {}
    for restart, it, value in trace:
        rows.setdefault(restart, []).append((it, value))
    total = 0
    for seq in rows.values():
        stopped = len(seq) > 1 and not seq[-1][1] - seq[-2][1] > tol
        total += seq[-1][0] if stopped else max_iters
    return total


def _plain_search(ch, restarts, seed):
    # optimize_erasure's search, made of the same starts on the plain reference ascent
    ops = np.stack(ch.operators)
    rho = np.eye(ch.dim, dtype=complex) / ch.dim
    kk = ch.kraus_count
    trace, best_value, converged = [], -np.inf, False
    for r in range(restarts):
        w0 = _start(r, kk, kk, seed)
        _, value, done = _reference_ascend(ops, rho, w0, DEFAULT_MAX_ITERS, DEFAULT_TOL, r, trace)
        if value > best_value + RESTART_TIE_ATOL:
            best_value, converged = value, done
    return SimpleNamespace(best_value=best_value, converged=converged, trace=trace)


def _ascend_rows(ascents):
    return [[(r, n, value) for n, value in a.rows] for r, a in enumerate(ascents)]


class TestFusedKernel:
    def test_kernel_yields_the_reference_trajectory(self, monkeypatch):
        # a warm-up longer than the budget leaves the whole ascent on plain MM steps
        monkeypatch.setattr(optimizer, "WARMUP", 60)
        for trial, ch in enumerate(_seeded_channels(6, 30)):
            ops = np.stack(ch.operators)
            rho = np.eye(ch.dim, dtype=complex) / ch.dim
            kk = ch.kraus_count
            starts = [haar_isometry(kk, kk, np.random.default_rng([trial, r])) for r in range(3)]
            ascents = _ascend([ops @ rho], starts, 60, 0.0)
            for restart, (w0, rows, a) in enumerate(zip(starts, _ascend_rows(ascents), ascents)):
                reference = []
                w_ref, _, _ = _reference_ascend(ops, rho, w0, 60, 0.0, restart, reference)
                _assert_same_rows(rows, reference)
                assert np.array_equal(a.w, w_ref)

    def test_flat_contractions_match_the_einsum_forms(self):
        for trial, ch in enumerate(_seeded_channels(6, 30)):
            ops = np.stack(ch.operators)
            rho = numerics.random_density(ch.dim, [trial, 1])
            kk = ch.kraus_count
            w = haar_isometry(kk + 1, kk, np.random.default_rng([trial, 0]))
            flat = _flat(ops, rho)
            branches = (w @ flat).reshape(kk + 1, ch.dim, ch.dim)
            assert np.abs(branches - np.einsum("jk,kab->jab", w, ops) @ rho).max() <= 1e-14
            x, _, yh = np.linalg.svd(branches)
            v = x @ yh
            g = v.conj().reshape(kk + 1, -1) @ flat.T
            assert np.abs(g - np.einsum("jab,kab->jk", v.conj(), ops @ rho)).max() <= 1e-14

    @pytest.mark.parametrize("budget", [1, WARMUP // 2, WARMUP])
    def test_ascent_within_warmup_equals_reference(self, budget):
        for trial, ch in enumerate(_seeded_channels(6, 30)):
            ops = np.stack(ch.operators)
            rho = np.eye(ch.dim, dtype=complex) / ch.dim
            kk = ch.kraus_count
            starts = [haar_isometry(kk, kk, np.random.default_rng([trial, r])) for r in range(4)]
            ascents = _ascend([ops @ rho], starts, budget, 0.0)
            for restart, (w0, rows, a) in enumerate(zip(starts, _ascend_rows(ascents), ascents)):
                reference = []
                w_ref, _, converged_ref = _reference_ascend(
                    ops, rho, w0, budget, 0.0, restart, reference
                )
                _assert_same_rows(rows, reference)
                assert a.converged == converged_ref
                assert np.array_equal(a.w, w_ref)

    def test_polish_within_warmup_equals_reference(self):
        for trial, ch in enumerate(_seeded_channels(6, 31)):
            ops = np.stack(ch.operators)
            rho = np.eye(ch.dim, dtype=complex) / ch.dim
            start = optimize_erasure(ch, restarts=2, max_iters=5, seed=trial).best_mixing.mixing
            (polished,) = _ascend([ops @ rho], [start], WARMUP, 0.0)
            w_ref, value_ref = _reference_polish(ops, rho, start, WARMUP)
            assert abs(polished.value - value_ref) <= 1e-14
            assert np.array_equal(polished.w, w_ref)

    def test_two_svds_per_evaluation(self, svd_calls):
        ch = preset("random", dim=3, kraus=5, seed=32)
        ops = np.stack(ch.operators)
        rho = np.eye(3, dtype=complex) / 3
        # this ascent gains on each of its 40 evaluations, so at tol = 0 it
        # spends its whole budget
        (ascent,) = _ascend([ops @ rho], [np.eye(5, dtype=complex)], 40, 0.0)
        assert ascent.rows[-1][0] <= 40
        assert len(svd_calls) == 1 + 2 * 40

        svd_calls.clear()
        restarts, max_iters, tol = 4, 40, 1e-12
        result = optimize_erasure(ch, restarts=restarts, max_iters=max_iters, tol=tol, seed=1)
        evaluations = _evaluations(result.trace, max_iters, tol)
        # + 1: building the perturbed-identity start of restart 1 takes one SVD
        assert len(svd_calls) <= 2 * evaluations + restarts + 1
        # in lockstep, a round makes two stacked SVDs: one for the new points
        # (the plain steps' conj(G) and the S3 points) and one for their branches
        rounds = max(_evaluations([row for row in result.trace if row[0] == r], max_iters, tol)
                     for r in range(restarts))
        assert len(svd_calls) <= 1 + 1 + 2 * rounds

    @pytest.mark.parametrize(
        "search",
        [
            lambda: optimize_erasure(preset("depolarizing", p=0.5), seed=1),
            lambda: optimize_erasure(preset("eraser_cnot"), restarts=4, seed=1),
            lambda: detect_random_unitary(preset("dephasing", p=0.25), restarts=4, seed=1),
            lambda: sample_oracle(preset("amplitude_damping", gamma=0.5), samples=500, seed=1),
        ],
        ids=["depolarizing", "eraser", "polish", "oracle"],
    )
    def test_qubit_searches_stack_no_2x2_lapack_call(self, search, monkeypatch):
        # stacked 2 x 2 branches, G matrices, S3 points and Haar draws take the
        # closed forms; only single matrices, such as restart 1's start, may not
        stacked = []
        for name in ("svd", "qr"):
            real = getattr(np.linalg, name)

            def spy(a, *args, real=real, **kwargs):
                a = np.asarray(a)
                if a.ndim > 2 and a.shape[-2:] == (2, 2):
                    stacked.append(a.shape)
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        search()
        assert stacked == []

    def test_two_svds_per_polish_step(self, svd_calls, monkeypatch):
        # a unital channel, so the unitality gap leaves the verdict to the polish
        ch = werner_holevo_channel()
        result = optimize_erasure(ch, restarts=2, max_iters=2, seed=1)
        svd_calls.clear()
        polish_iters = 6
        monkeypatch.setattr("erasurekit.optimizer.POLISH_ITERS", polish_iters)
        verdict = detect_random_unitary(ch, result=result)
        assert not verdict.is_random_unitary
        assert 1 <= len(svd_calls) <= 1 + 2 * polish_iters

    def test_extrapolation_converges_where_plain_mm_stalls(self):
        ch = preset("random", dim=4, kraus=16, seed=0)
        result = optimize_erasure(ch, restarts=3, seed=0)
        plain = _plain_search(ch, restarts=3, seed=0)
        assert result.converged and not plain.converged
        assert len(result.trace) < len(plain.trace) / 2
        assert result.best_value >= plain.best_value

    def test_extrapolation_keeps_the_plain_search_quality(self):
        accelerated, plain = 0.0, 0.0
        for trial, ch in enumerate(_seeded_channels(6, 30)):
            accelerated += optimize_erasure(ch, seed=trial).best_value
            plain += _plain_search(ch, DEFAULT_RESTARTS, trial).best_value
        assert accelerated >= plain - 1e-12


def _lockstep_cases():
    # (channel, max_iters, tol): seeded random channels on a short budget, so
    # that restarts end on the cap, and the qubit presets the scenarios search,
    # which converge. At tol = 0 a restart runs until a step gains nothing or
    # its budget ends, and restarts that meet alpha = -1 take plain steps in
    # rounds where others take S3 trials.
    qubits = [preset("depolarizing", p=0.5), preset("partial_teleportation", lam0=0.3)]
    cases = [(ch, 40, DEFAULT_TOL) for ch in _seeded_channels(6, 30)]
    cases += [(ch, DEFAULT_MAX_ITERS, DEFAULT_TOL) for ch in qubits]
    return cases + [(ch, 40, 0.0) for ch in [*_seeded_channels(2, 35), *qubits]]


def _bits(result):
    trace = [(r, i, v.hex()) for r, i, v in result.trace]
    return trace, result.best_value.hex(), result.best_mixing.mixing.tobytes(), result.converged


def _takes_s3(a):
    # _round's condition for an S3 trial: a full path and alpha < -1
    if len(a.path) != 3:
        return False
    w0, w1, w2 = a.path
    r = w1 - w0
    return np.linalg.norm(r) > np.linalg.norm(w2 - w1 - r) > 0


def _loop_polish(ops_rho, w, iters):
    # the witness polish as a loop with its own stop rule: rounds while F
    # strictly increases, ending at the last increasing point
    (a,) = _begin(ops_rho[None], [w])
    while a.n < iters:
        w, value = a.w, a.value
        if _round([a], ops_rho[None]) and not a.value > value:
            return w, value
    return a.w, a.value


class TestStopRule:
    def test_every_ascent_stops_on_its_first_small_gain_at_its_best_point(self):
        stopped = capped = reverted = 0
        for seed, (ch, max_iters, tol) in enumerate(_lockstep_cases()):
            ops = ch.stack @ (np.eye(ch.dim, dtype=complex) / ch.dim)
            kk = ch.kraus_count
            starts = [_start(r, kk, kk, seed) for r in range(4)]
            for a in _ascend([ops], starts, max_iters, tol):
                values = [value for _, value in a.rows]
                gains = [b - v for v, b in zip(values, values[1:])]
                assert all(gain > tol for gain in gains[:-1])
                assert a.converged == (not gains[-1] > tol)
                assert a.converged or a.n == max_iters
                # the largest value, at one of the last two points, and F there
                assert a.value == max(values)
                assert values.index(a.value) >= len(values) - 2
                assert a.value == _evaluate(ops, a.w[None])[0][0]
                stopped += a.converged
                capped += not a.converged
                reverted += a.value != values[-1]
        assert stopped and capped and reverted

    def test_the_polish_returns_what_its_own_loop_returned(self):
        channels = [*_seeded_channels(6, 31), werner_holevo_channel(), preset("dephasing", p=0.3)]
        past_warmup = 0
        for trial, ch in enumerate(channels):
            ops = ch.stack @ (np.eye(ch.dim, dtype=complex) / ch.dim)
            start = optimize_erasure(ch, restarts=2, max_iters=5, seed=trial).best_mixing.mixing
            (polished,) = _ascend([ops], [start], POLISH_ITERS, 0.0)
            w, value = _loop_polish(ops, start, POLISH_ITERS)
            assert polished.value == value
            assert np.array_equal(polished.w, w)
            past_warmup += polished.n > WARMUP + 2
        assert past_warmup

    @pytest.mark.parametrize("extra", [0, 1], ids=["m=K", "m=K+1"])
    def test_restart_one_starts_off_the_identity(self, extra):
        for kk in range(2, 17):
            w = _start(1, kk + extra, kk, 0)
            assert np.abs(w - _start(0, kk + extra, kk, 0)).max() >= 1e-7
            assert np.abs(w.conj().T @ w - np.eye(kk)).max() <= 1e-14


def _ascent_bits(a):
    return a.w.tobytes(), a.value.hex(), a.n, a.rows, [w.tobytes() for w in a.path]


class TestLockstep:
    @pytest.mark.parametrize(
        "plain, problems",
        [(4, 1), (0, 1), (2, 1), (4, 2), (0, 2), (2, 2)],
        ids=["plain", "s3", "mixed", "plain-two-problems", "s3-two-problems", "mixed-two-problems"],
    )
    def test_one_polar_factor_per_round(self, plain, problems, monkeypatch):
        # the plain steps' conj(G) and the S3 points share one stacked polar
        # factor; the other call is the branch evaluation's. Every ascent of
        # the group, whichever channel it searches, follows the trajectory of
        # its start searched alone on its channel, bit for bit
        channels = [preset("random", dim=3, kraus=4, seed=seed) for seed in (5, 9)[:problems]]
        ops = np.stack([ch.stack @ (np.eye(3, dtype=complex) / 3) for ch in channels])
        starts = [_start(r, 4, 4, 0) for r in range(4)]
        ascents = _begin(ops, starts)
        alone = [(_begin(own, [w])[0], own) for own in ops[:, None] for w in starts]

        def advance():
            _round(ascents, ops)
            for a, own in alone:
                _round([a], own)
            assert [_ascent_bits(a) for a in ascents] == [_ascent_bits(a) for a, _ in alone]

        while len(ascents[0].path) < 3:
            advance()
        for i, a in enumerate(ascents):
            if i % 4 < plain:
                a.path, alone[i][0].path = [a.w], [a.w]
        pattern = [False] * plain + [True] * (4 - plain)
        assert [_takes_s3(a) for a in ascents] == pattern * problems
        callers = []
        real = numerics._polar_factors

        def spy(stack):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(stack)

        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_polar_factors", spy)
            _round(ascents, ops)
        assert callers == ["_round", "_evaluate"]
        for a, own in alone:
            _round([a], own)
        assert [_ascent_bits(a) for a in ascents] == [_ascent_bits(a) for a, _ in alone]
        for _ in range(20):
            advance()

    @pytest.mark.parametrize("restarts", [1, 2, 3, 8, 32])
    def test_groups_of_one_restart_give_the_same_search(self, restarts, monkeypatch):
        capped = rejected = 0
        for seed, (ch, max_iters, tol) in enumerate(_lockstep_cases()):
            budget = {"restarts": restarts, "max_iters": max_iters, "tol": tol, "seed": seed}
            stacked = optimize_erasure(ch, **budget)
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "GROUP_ENTRIES", 1)
                alone = optimize_erasure(ch, **budget)
            assert _bits(stacked) == _bits(alone)
            for r in range(restarts):
                indices = [i for restart, i, _ in stacked.trace if restart == r]
                capped += indices[-1] == max_iters
                # a trace index skips a number where an S3 trial was rejected
                rejected += indices != list(range(len(indices)))
        assert capped and rejected

    def test_no_stacked_svd_exceeds_the_group_budget(self, monkeypatch):
        ch = preset("random", dim=3, kraus=5, seed=34)
        restarts, entries = 8, 5 * 9  # m * max(K, d^2) per restart
        reference = optimize_erasure(ch, restarts=restarts, max_iters=60, seed=2)
        sizes, real_svd = [], np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            sizes.append(np.asarray(a).size)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(optimizer, "GROUP_ENTRIES", 3 * entries)
        grouped = optimize_erasure(ch, restarts=restarts, max_iters=60, seed=2)
        assert _bits(grouped) == _bits(reference)
        assert max(sizes) <= 3 * entries
        assert max(sizes) > entries  # some call stacked more than one restart
