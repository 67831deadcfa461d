import numpy as np
import pytest

from erasurekit import (
    assisted_fidelity,
    build_correction,
    canonical_measurement,
    channels_equal,
    conditional_states,
    detect_random_unitary,
    ensemble,
    entanglement_fidelity,
    hadamard_measurement,
    haar_isometry,
    kraus_channel,
    optimize_erasure,
    preset,
    random_density,
    random_ensemble,
    random_measurement,
    refine,
    relative_entropy,
    uhlmann_fidelity,
    verify_converse,
    verify_direct,
)
from erasurekit.errors import EnsembleMismatch
from erasurekit.probes import joint_distribution
from reference import entanglement_fidelity_purification

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2


def projector_channel():
    return kraus_channel([P0, P1])


class TestEntanglementFidelity:
    def test_identity_channel(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_density(2, rng)
            assert entanglement_fidelity(preset("identity"), rho) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_projectors_on_mixed(self):
        assert entanglement_fidelity(projector_channel(), MIXED) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_purification_cross_check(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            ch = preset("random", dim=d, kraus=int(rng.integers(2, d * d + 1)), seed=rng)
            rho = random_density(d, rng)
            kraus_path = entanglement_fidelity(ch, rho)
            purification_path = entanglement_fidelity_purification(ch, rho)
            assert abs(kraus_path - purification_path) < 1e-9

    def test_decomposition_invariance(self):
        # 200 seeded random (channel, mixing, state) triples
        rng = np.random.default_rng(50)
        for _ in range(200):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            meas = random_measurement(kk + int(rng.integers(0, 2)), kk, rng)
            rho = random_density(d, rng)
            refined_ch = kraus_channel(refine(ch, meas), drop_zero=False)
            assert abs(
                entanglement_fidelity(refined_ch, rho) - entanglement_fidelity(ch, rho)
            ) < 1e-9


class TestAssistedFidelity:
    def test_projectors_canonical(self):
        assert assisted_fidelity(projector_channel(), MIXED) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_projectors_hadamard(self):
        value = assisted_fidelity(projector_channel(), MIXED, hadamard_measurement())
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_partial_teleportation_closed_form(self):
        for lam0 in np.linspace(0.0, 1.0, 11):
            ch = preset("partial_teleportation", lam0=float(lam0))
            expected = (1 + 2 * np.sqrt(lam0 * (1 - lam0))) / 2
            assert assisted_fidelity(ch, MIXED) == pytest.approx(expected, abs=1e-10)

    def test_bounds_and_ordering(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            meas = random_measurement(kk, kk, rng)
            f_e = entanglement_fidelity(ch, rho)
            f_ea = assisted_fidelity(ch, rho, meas)
            assert f_e <= f_ea + 1e-10
            assert f_ea <= 1 + 1e-9

    def test_two_path_identity(self):
        # sum_j (Tr|E'_j rho|)^2 against sum_j p(j) F(rho, K_j)^2
        rng = np.random.default_rng(62)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            meas = random_measurement(kk, kk, rng)
            direct = assisted_fidelity(ch, rho, meas)
            via_states = sum(
                p * uhlmann_fidelity(rho, k) ** 2
                for p, k in conditional_states(ch, rho, meas)
            )
            assert abs(direct - via_states) < 1e-9


class TestConditionalStates:
    def test_projectors_canonical(self):
        states = conditional_states(projector_channel(), MIXED)
        assert len(states) == 2
        assert states[0][0] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(states[0][1] - P0).max() < 1e-12
        assert np.abs(states[1][1] - P1).max() < 1e-12

    def test_projectors_hadamard(self):
        states = conditional_states(projector_channel(), MIXED, hadamard_measurement())
        for p, k in states:
            assert p == pytest.approx(0.5, abs=1e-12)
            assert np.abs(k - MIXED).max() < 1e-12

    def test_unitary_channel_single_outcome(self):
        u = haar_isometry(2, 2, 8)
        ch = kraus_channel([u])
        rho = random_density(2, 9)
        states = conditional_states(ch, rho)
        assert len(states) == 1
        assert states[0][0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(states[0][1] - rho).max() < 1e-10

    def test_states_average_back(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            meas = random_measurement(kk, kk, rng)
            states = conditional_states(ch, rho, meas)
            mix = sum(p * k for p, k in states)
            assert np.abs(mix - rho).max() < 1e-9
            for p, k in states:
                assert abs(np.trace(k).real - 1.0) < 1e-9
                assert np.linalg.eigvalsh((k + k.conj().T) / 2).min() > -1e-9


class TestBuildCorrection:
    def test_projectors_hadamard_restores_identity(self):
        corrected = build_correction(projector_channel(), MIXED, hadamard_measurement())
        assert channels_equal(corrected, preset("identity"))

    def test_unitary_channel_inverts(self):
        u = haar_isometry(2, 2, 30)
        corrected = build_correction(kraus_channel([u]), random_density(2, 31))
        assert channels_equal(corrected, preset("identity"))

    def test_amplitude_damping_reaches_bound(self):
        ch = preset("amplitude_damping", gamma=0.5)
        target = assisted_fidelity(ch, MIXED)
        achieved = entanglement_fidelity(build_correction(ch, MIXED), MIXED)
        assert abs(achieved - target) < 1e-9

    def test_achievability_sweep(self):
        # 200 seeded random configurations
        rng = np.random.default_rng(90)
        for _ in range(200):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            meas = random_measurement(kk, kk, rng)
            corrected = build_correction(ch, rho, meas)
            achieved = entanglement_fidelity(corrected, rho)
            assert abs(achieved - assisted_fidelity(ch, rho, meas)) < 1e-9
            from erasurekit import validate

            validate(corrected)

    def test_completion_independence(self):
        # rank-deficient E'_j rho: randomize the null-space block of each polar
        # unitary and check the corrected fidelity does not move
        rng = np.random.default_rng(91)
        configs = [
            (preset("amplitude_damping", gamma=1.0), MIXED),
            (preset("random", dim=2, kraus=2, seed=13), np.diag([1.0, 0.0]).astype(complex)),
            (projector_channel(), np.diag([1.0, 0.0]).astype(complex)),
        ]
        for ch, rho in configs:
            target = assisted_fidelity(ch, rho)
            for _ in range(10):
                corrected_ops = []
                for e in refine(ch, canonical_measurement(ch.kraus_count)):
                    a = e @ rho
                    x, s, yh = np.linalg.svd(a)
                    d = a.shape[0]
                    rank = int((s > 1e-12).sum())
                    block = np.eye(d, dtype=complex)
                    if rank < d:
                        block[rank:, rank:] = haar_isometry(d - rank, d - rank, rng)
                    u = x @ block @ yh
                    assert np.abs(u @ ((yh.conj().T * s) @ yh) - a).max() < 1e-12
                    corrected_ops.append(u.conj().T @ e)
                achieved = entanglement_fidelity(kraus_channel(corrected_ops), rho)
                assert abs(achieved - target) < 1e-9


class TestVerifyDirect:
    def test_perfect_erasure_point(self):
        ens = random_ensemble(MIXED, 3, 42)
        report = verify_direct(projector_channel(), MIXED, ens, hadamard_measurement())
        assert report.f_ea == pytest.approx(1.0, abs=1e-12)
        assert report.mutual_info <= 1e-10
        assert abs(report.slack_fidelity_trace) < 1e-9
        assert report.worst_slack() >= -1e-9

    def test_identity_channel_all_links_tight(self):
        ens = random_ensemble(MIXED, 4, 7)
        report = verify_direct(preset("identity"), MIXED, ens)
        assert report.f_e == pytest.approx(1.0, abs=1e-12)
        assert report.f_ea == pytest.approx(1.0, abs=1e-12)
        assert report.mutual_info <= 1e-12
        for name, value in report.slacks().items():
            assert abs(value) < 1e-9, name

    def test_random_configuration(self):
        ch = preset("random", dim=2, kraus=2, seed=11)
        rho = random_density(2, 11)
        ens = random_ensemble(rho, 4, 3)
        report = verify_direct(ch, rho, ens)
        assert report.worst_slack() >= -1e-9
        assert report.gamma is None and report.slack_converse is None

    def test_ensemble_mismatch(self):
        ens = random_ensemble(MIXED, 3, 2)
        with pytest.raises(EnsembleMismatch):
            verify_direct(projector_channel(), random_density(2, 99), ens)

    def test_mixture_identity(self):
        # sum_j p(j) D(p(i|j) || p(i)) equals the joint relative entropy
        rng = np.random.default_rng(101)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            ens = random_ensemble(rho, int(rng.integers(2, 6)), rng)
            meas = random_measurement(kk, kk, rng)
            joint = joint_distribution(ch, ens, meas)
            p_i, p_j = joint.sum(axis=1), joint.sum(axis=0)
            mixture = sum(
                p_j[j] * relative_entropy(joint[:, j] / p_j[j], p_i)
                for j in range(joint.shape[1])
                if p_j[j] > 1e-12
            )
            direct = relative_entropy(joint.reshape(-1), np.outer(p_i, p_j).reshape(-1))
            assert abs(mixture - direct) < 1e-10

    def test_random_sweep(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            ens = random_ensemble(rho, int(rng.integers(2, 7)), rng)
            meas = random_measurement(kk, kk, rng)
            report = verify_direct(ch, rho, ens, meas)
            assert report.worst_slack() >= -1e-9

    def test_perfect_erasure_forces_independence(self):
        # f_ea at 1 pins mutual information near zero for every ensemble
        configs = [
            (projector_channel(), hadamard_measurement()),
            (preset("dephasing", p=0.3), hadamard_measurement()),
            (preset("identity"), None),
        ]
        rng = np.random.default_rng(103)
        for ch, meas in configs:
            assert assisted_fidelity(ch, MIXED, meas) > 1 - 1e-12
            for _ in range(20):
                ens = random_ensemble(MIXED, int(rng.integers(2, 6)), rng)
                assert ens.beta >= 1e-3
                report = verify_direct(ch, MIXED, ens, meas)
                assert report.mutual_info < 1e-5


class TestVerifyConverse:
    def test_perfect_erasure_bound_is_tight(self):
        report = verify_converse(
            projector_channel(), MIXED, hadamard_measurement(), members=4, seed=5
        )
        assert report.mutual_info <= 1e-10
        assert report.gamma is not None and np.isfinite(report.gamma)
        lowest = 1 - np.sqrt(2) * report.gamma * np.sqrt(report.mutual_info)
        assert lowest >= 1 - 1e-5
        assert report.worst_slack() >= -1e-9

    def test_unitary_channel(self):
        u = haar_isometry(2, 2, 44)
        rho = random_density(2, 45)
        report = verify_converse(kraus_channel([u]), rho, members=4, seed=6)
        assert report.f_ea == pytest.approx(1.0, abs=1e-10)
        assert report.mutual_info <= 1e-12
        assert abs(report.slack_converse) < 1e-6

    def test_default_ic_size_is_the_squared_rank_of_the_state(self):
        # rank 2 in dimension 3: 4 members by default, not d^2 = 9
        rho = random_density(3, 12, rank=2)
        channel = preset("random", dim=3, kraus=2, seed=13)
        report = verify_converse(channel, rho, seed=14)
        assert report == verify_converse(channel, rho, members=4, seed=14)
        assert report != verify_converse(channel, rho, members=9, seed=14)

    def test_amplitude_damping_example(self):
        report = verify_converse(
            preset("amplitude_damping", gamma=0.5), MIXED, members=4, seed=9
        )
        assert report.worst_slack() >= -1e-9
        assert report.gamma is not None

    def test_random_sweep(self):
        rng = np.random.default_rng(104)
        for trial in range(60):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            meas = random_measurement(kk, kk, rng)
            report = verify_converse(
                ch, rho, meas, members=d * d + trial % 5, seed=rng
            )
            assert report.worst_slack() >= -1e-9
            assert np.isfinite(report.gamma)

    def test_rank_deficient_state(self):
        # the chains live on the support; a pure state needs a single member
        v = np.array([1.0, 1j]) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        report = verify_converse(preset("random", dim=2, kraus=3, seed=3), rho, members=2, seed=8)
        assert report.worst_slack() >= -1e-9
        assert not report.rho_invertible

    def test_pure_state_sweep(self):
        # rho^(1/2) must stay on the support: stray sqrt(eigh noise) components
        # of order 1e-8 would otherwise leak into the conditional states and
        # push converse slacks below the floor
        rng = np.random.default_rng(105)
        for trial in range(30):
            d = int(rng.integers(2, 5))
            kk = int(rng.integers(2, 5))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng, rank=1)
            meas = random_measurement(kk, kk, rng)
            report = verify_converse(ch, rho, meas, members=1 + trial % 3, seed=rng)
            assert report.worst_slack() >= -1e-9
            direct = verify_direct(ch, rho, random_ensemble(rho, 3, rng), meas)
            assert direct.worst_slack() >= -1e-9

    def test_report_serialization(self):
        report = verify_converse(projector_channel(), MIXED, members=4, seed=1)
        data = report.to_dict()
        assert data["rho_invertible"] is True
        assert "gamma" in data and "slack_converse" in data
        direct = verify_direct(projector_channel(), MIXED, random_ensemble(MIXED, 3, 1))
        assert "gamma" not in direct.to_dict()

    def test_assert_ok_names_offending_link(self):
        import dataclasses

        report = verify_converse(projector_channel(), MIXED, members=4, seed=1)
        report.assert_ok()
        broken = dataclasses.replace(report, slack_pinsker=-1e-3)
        with pytest.raises(AssertionError, match="slack_pinsker"):
            broken.assert_ok()


def _qubit_branch_calls():
    ch = preset("amplitude_damping", gamma=0.3)
    rho = random_density(2, 61)
    dephasing = preset("dephasing", p=0.25)
    # the search runs before the spy: its restart-1 start is one 2 x 2 SVD
    result = optimize_erasure(dephasing, seed=1)
    return {
        "assisted_fidelity": lambda: assisted_fidelity(ch, rho, hadamard_measurement()),
        "build_correction": lambda: build_correction(ch, rho, hadamard_measurement()),
        "witness": lambda: detect_random_unitary(dephasing, seed=1, result=result).witness,
    }


class TestBranchKernel:
    @pytest.mark.parametrize("name", ["assisted_fidelity", "build_correction", "witness"])
    def test_qubit_branches_make_no_2x2_svd_or_qr(self, name, monkeypatch):
        # every 2 x 2 branch trace norm and polar factor takes the closed form,
        # whether LAPACK would see it as one stack or as single matrices
        call = _qubit_branch_calls()[name]
        seen = []
        for lapack in ("svd", "qr"):
            real = getattr(np.linalg, lapack)

            def spy(a, *args, real=real, lapack=lapack, **kwargs):
                a = np.asarray(a)
                if a.shape[-2:] == (2, 2):
                    seen.append((lapack, a.shape))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, lapack, spy)
        assert call() is not None
        assert seen == []

    def test_matches_per_branch_svds(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            meas = random_measurement(kk + int(rng.integers(0, 2)), kk, rng)
            branches = refine(ch, meas) @ rho
            norms = [np.linalg.svd(b, compute_uv=False).sum() for b in branches]
            assert abs(assisted_fidelity(ch, rho, meas) - sum(t**2 for t in norms)) <= 1e-14
            corrected = build_correction(ch, rho, meas).stack @ rho
            overlaps = np.trace(corrected, axis1=1, axis2=2)
            # V_j^dag E'_j rho is PSD, so its trace is the branch trace norm
            assert np.abs(overlaps - norms).max() <= 1e-13
