import numpy as np
import pytest
from mpmath import mp

from erasurekit import (
    canonical_measurement,
    ensemble,
    hadamard_measurement,
    ic_ensemble,
    joint_distribution,
    kraus_channel,
    mutual_information,
    numerics,
    preset,
    probe_measurement,
    probes,
    random_density,
    random_ensemble,
    random_measurement,
    refine,
)
from erasurekit.channels import PAULI_X, PAULI_Y, PAULI_Z, choi_matrix
from erasurekit.errors import (
    BetaZero,
    DimensionMismatch,
    InsufficientFrame,
    NotDensity,
    NotIsometry,
    NotNormalized,
    NotPSD,
    ParamOutOfRange,
    SingularAverage,
)
from reference import measurements_equal, reconstruct

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def projector_channel():
    return kraus_channel([P0, P1])


def basis_ensemble():
    return ensemble([P0 / 2, P1 / 2])


def trine_mixing():
    angles = [2 * np.pi * k / 3 for k in range(3)]
    return np.sqrt(2 / 3) * np.array(
        [[np.cos(a), np.sin(a)] for a in angles], dtype=complex
    )


class TestProbeMeasurement:
    def test_rejects_non_isometry(self):
        with pytest.raises(NotIsometry):
            probe_measurement(np.ones((2, 2)))

    def test_rejects_wide(self):
        with pytest.raises(DimensionMismatch):
            probe_measurement(np.eye(2)[:1])

    def test_trine_is_valid(self):
        meas = probe_measurement(trine_mixing())
        assert meas.outcomes == 3 and meas.kraus_count == 2

    def test_equality_up_to_row_phase(self):
        h = hadamard_measurement()
        phased = probe_measurement(np.diag([1j, np.exp(0.3j)]) @ h.mixing)
        assert measurements_equal(h, phased)
        assert not measurements_equal(h, canonical_measurement(2))


class TestRefine:
    def test_identity_mixing_keeps_kraus(self):
        ch = preset("random", dim=2, kraus=3, seed=4)
        refined = refine(ch, canonical_measurement(3))
        for a, b in zip(refined, ch.operators):
            assert np.abs(a - b).max() < 1e-15

    def test_hadamard_on_projectors(self):
        refined = refine(projector_channel(), hadamard_measurement())
        assert np.abs(refined[0] - np.eye(2) / np.sqrt(2)).max() < 1e-12
        assert np.abs(refined[1] - PAULI_Z / np.sqrt(2)).max() < 1e-12

    def test_trine_completeness(self):
        refined = refine(projector_channel(), probe_measurement(trine_mixing()))
        assert len(refined) == 3
        total = sum(e.conj().T @ e for e in refined)
        assert np.abs(total - np.eye(2)).max() < 1e-10

    def test_kraus_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            refine(projector_channel(), canonical_measurement(3))

    def test_refinement_preserves_channel(self):
        # 200 random (channel, mixing) pairs leave the Choi matrix unchanged
        rng = np.random.default_rng(55)
        for _ in range(200):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            m = kk + int(rng.integers(0, 3))
            meas = random_measurement(m, kk, rng)
            refined_ch = kraus_channel(refine(ch, meas), drop_zero=False)
            diff = np.abs(choi_matrix(refined_ch) - choi_matrix(ch)).max()
            assert diff < 1e-9


class TestEnsemble:
    def test_weights_and_average(self):
        ens = basis_ensemble()
        assert np.allclose(ens.weights, [0.5, 0.5])
        assert np.abs(ens.average - np.eye(2) / 2).max() < 1e-15
        assert ens.beta == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "members, error",
        [
            ([], DimensionMismatch),
            ([np.eye(2) / 2, np.eye(3) / 6], DimensionMismatch),
            ([np.eye(2) / 2, np.eye(2) / 4], NotDensity),
        ],
    )
    def test_rejects_no_members_mixed_shapes_and_traces_off_one(self, members, error):
        with pytest.raises(error):
            ensemble(members)

    def test_rejects_zero_weight(self):
        with pytest.raises(BetaZero):
            ensemble([np.eye(2) / 2, np.zeros((2, 2))])

    def test_random_ensemble_resolves_state(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            rho = random_density(d, rng)
            n = int(rng.integers(2, 7))
            ens = random_ensemble(rho, n, rng)
            assert ens.stack.shape[0] == n
            assert np.abs(ens.average - rho).max() < 1e-9
            assert ens.beta >= 0.01 / n - 1e-12
            for m in ens.members:
                assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() > -1e-10

    @pytest.mark.parametrize("members", [0, -3])
    def test_random_ensemble_needs_a_member(self, members):
        with pytest.raises(ParamOutOfRange):
            random_ensemble(np.eye(2) / 2, members, 0)


class TestJointDistribution:
    def test_projectors_canonical_readout(self):
        p = joint_distribution(projector_channel(), basis_ensemble(), canonical_measurement(2))
        assert np.abs(p - np.diag([0.5, 0.5])).max() < 1e-12

    def test_projectors_hadamard_readout(self):
        p = joint_distribution(projector_channel(), basis_ensemble(), hadamard_measurement())
        assert np.abs(p - np.full((2, 2), 0.25)).max() < 1e-12

    def test_single_member_is_product(self):
        ens = ensemble([np.eye(2) / 2])
        p = joint_distribution(projector_channel(), ens, hadamard_measurement())
        assert p.shape == (1, 2)
        assert np.abs(p.sum() - 1.0) < 1e-12

    def test_marginal_over_outcomes_is_weights(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            ens = random_ensemble(rho, int(rng.integers(2, 6)), rng)
            meas = random_measurement(kk, kk, rng)
            p = joint_distribution(ch, ens, meas)
            assert np.abs(p.sum(axis=1) - ens.weights).max() < 1e-10

    def test_negative_entry_beyond_tolerance(self):
        # ensemble() lets a member's eigenvalues dip to -1e-10; eleven of them
        # at -0.99e-10 read -1.089e-9 on the effect that projects onto them,
        # past the joint's -1e-9, so this needs d >= 12
        dip = 0.99e-10
        p0 = np.diag([1.0] + [0.0] * 11).astype(complex)
        m0 = np.diag([0.5 + 11 * dip] + [-dip] * 11)
        ens = ensemble([m0, 0.5 * p0])
        channel = kraus_channel([p0, np.eye(12) - p0])
        with pytest.raises(NotPSD, match="-1.089e-09 is negative"):
            joint_distribution(channel, ens, canonical_measurement(2))


class TestMutualInformation:
    def test_product_is_zero(self):
        p = np.outer([0.3, 0.7], [0.6, 0.4])
        assert mutual_information(p) == 0.0

    def test_perfect_correlation(self):
        assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(
            np.log(2), abs=1e-12
        )

    def test_partial_correlation(self):
        # brute force from the entropy definitions:
        # H(pi) + H(pj) - H(pij) = ln2 + H(3/4,1/4) - (3/2)ln2
        expected = 1.5 * np.log(2) - 0.75 * np.log(3)
        assert mutual_information([[0.5, 0.0], [0.25, 0.25]]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_equals_relative_entropy_form(self):
        from erasurekit import relative_entropy

        rng = np.random.default_rng(12)
        for _ in range(50):
            p = rng.random((int(rng.integers(2, 5)), int(rng.integers(2, 5))))
            p /= p.sum()
            ref = relative_entropy(p.reshape(-1), np.outer(p.sum(1), p.sum(0)).reshape(-1))
            assert abs(mutual_information(p) - ref) < 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            mutual_information([[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_a_negative_entry(self):
        with pytest.raises(NotNormalized, match="-1.000e-01 is negative"):
            mutual_information([[0.6, -0.1], [0.3, 0.2]])

    def test_rejects_a_vector(self):
        with pytest.raises(DimensionMismatch, match="ndim=1"):
            mutual_information(np.full(4, 0.25))

    def test_merging_outcomes_never_gains(self):
        # data processing: summing two outcome columns cannot increase I
        rng = np.random.default_rng(18)
        for _ in range(100):
            rows = int(rng.integers(2, 6))
            cols = int(rng.integers(2, 6))
            p = rng.random((rows, cols))
            p /= p.sum()
            i, j = rng.choice(cols, size=2, replace=False)
            merged = np.delete(p, j, axis=1)
            merged[:, i if i < j else i - 1] += p[:, j]
            assert mutual_information(merged) <= mutual_information(p) + 1e-10


class TestICEnsemble:
    def test_mixed_qubit_frame(self):
        ic = ic_ensemble(np.eye(2) / 2, 4, 7)
        stacked = np.stack([e.reshape(-1) for e in ic.frame_effects])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == 4
        for pauli in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z):
            rec = reconstruct(ic, pauli)
            assert np.abs(rec - pauli).max() < 1e-10

    def test_reconstructs_average(self):
        rho = random_density(2, 23)
        ic = ic_ensemble(rho, 5, 11)
        assert np.abs(reconstruct(ic, rho) - rho).max() < 1e-10

    def test_insufficient_members(self):
        with pytest.raises(InsufficientFrame):
            ic_ensemble(np.eye(2) / 2, 3, 1)

    @pytest.mark.parametrize(
        "rows, error, match",
        [
            # every vector on one axis: the frame misses the other
            ([[1, 0]] * 4, SingularAverage, "do not cover"),
            # the two axes twice: the frame covers the support, but its
            # effects are all diagonal, so they span 2 of the 4 dimensions
            ([[1, 0], [0, 1]] * 2, InsufficientFrame, "frame rank 2 < rank"),
        ],
        ids=["one-direction", "diagonal-effects"],
    )
    def test_degenerate_frame_draw(self, monkeypatch, rows, error, match):
        vecs = np.array(rows, dtype=complex)
        monkeypatch.setattr(probes, "_complex_normal", lambda rng, count, shape: vecs)
        with pytest.raises(error, match=match):
            ic_ensemble(np.eye(2) / 2, 4, 0)

    def test_members_resolve_state(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            rho = random_density(d, rng)
            ic = ic_ensemble(rho, d * d + int(rng.integers(0, 4)), rng)
            assert np.abs(ic.base.average - rho).max() < 1e-9
            assert ic.base.beta > 0
            assert np.isfinite(ic.gamma)

    def test_rank_deficient_support(self):
        # pure state in d=3: support has rank 1, a single member suffices
        v = np.array([1.0, 1j, -0.5])
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        ic = ic_ensemble(rho, 1, 3)
        assert np.abs(ic.base.average - rho).max() < 1e-10
        assert np.abs(reconstruct(ic, rho) - rho).max() < 1e-8

    def test_one_decomposition_of_the_gram(self, monkeypatch):
        # rank 2 in d = 3, so the 2 x 2 gram differs in shape from the state;
        # psd_eigh gives both its coverage check and G^(-1/2)
        rho = random_density(3, 16, rank=2)
        calls = {"eigvalsh": [], "psd_eigh": []}
        real_eigvalsh, real_psd_eigh = np.linalg.eigvalsh, numerics.psd_eigh

        def eigvalsh(a, *args, **kwargs):
            calls["eigvalsh"].append(np.shape(a))
            return real_eigvalsh(a, *args, **kwargs)

        def psd_eigh(p):
            calls["psd_eigh"].append(np.shape(p))
            return real_psd_eigh(p)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(numerics, "psd_eigh", psd_eigh)
        ic = ic_ensemble(rho, 5, 4)
        assert (2, 2) not in calls["eigvalsh"]
        assert calls["psd_eigh"].count((2, 2)) == 1
        assert np.abs(reconstruct(ic, rho) - rho).max() < 1e-8

    def test_frame_effects_are_povm_on_support(self):
        rho = random_density(3, 15)
        ic = ic_ensemble(rho, 9, 2)
        total = sum(ic.frame_effects)
        assert np.abs(total - np.eye(3)).max() < 1e-9

    def test_dual_frame_hermitian(self):
        ic = ic_ensemble(np.eye(2) / 2, 4, 19)
        for dual in ic.dual_frame:
            assert np.abs(dual - dual.conj().T).max() < 1e-10

    @pytest.mark.parametrize(
        "seed,members,r",
        [([1, 230, 4], 4, 2), ([1, 155, 4], 9, 3), ([1, 221, 4], 10, 3)],
        ids=["r2-m4", "r3-m9", "r3-m10"],
    )
    def test_gamma_of_ill_conditioned_frames_matches_50_digits(self, seed, members, r):
        # frames that verify --seed 1 draws, with gamma from 958 to 4,573; on a
        # diagonal state the frame effects are the support frame itself, so
        # their canonical duals (F F^dag)^-1 F are the reference. Solving with
        # F F^dag squares the frame's condition number and missed by up to 8.5e-10.
        rho = np.diag(np.arange(1.0, r + 1) / (r * (r + 1) / 2)).astype(complex)
        ic = ic_ensemble(rho, members, np.random.default_rng(seed))
        with mp.workdps(50):
            frame = mp.matrix([[mp.mpc(complex(x)) for x in e.ravel()] for e in ic.frame_effects])
            duals = mp.inverse(frame.T * frame.T.H) * frame.T
            gamma = mp.zero
            for i in range(members):
                dual = mp.matrix([[duals[a * r + b, i] for b in range(r)] for a in range(r)])
                s = mp.svd_c(dual, compute_uv=False)
                gamma = max(gamma, mp.fsum(s[k] for k in range(r)))
            assert float(abs(mp.mpf(ic.gamma) - gamma) / gamma) <= 1e-12
