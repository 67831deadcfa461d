import numpy as np
import pytest

from erasurekit import (
    channels_equal,
    choi_distance,
    kraus_channel,
    preset,
    random_density,
    validate,
)
from erasurekit.channels import _CHECKS, PAULI_X, PAULI_Z, PRESETS, _unit_interval
from erasurekit.errors import (
    DimensionMismatch,
    NotTracePreserving,
    ParamOutOfRange,
    UnknownPreset,
)
from reference import apply, complementary_apply, dilation, dual_apply, dual_effect

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def projector_channel():
    return kraus_channel([P0, P1])


# (preset, parameter) for every parameter in [0, 1]
UNIT_PARAMS = [
    (name, key)
    for name, (defaults, _) in PRESETS.items()
    for key in defaults
    if _CHECKS[key] is _unit_interval
]


class TestValidate:
    def test_identity_ok(self):
        validate(kraus_channel([np.eye(2)]))

    def test_projectors_ok(self):
        validate(projector_channel())

    def test_double_identity_rejected(self):
        with pytest.raises(NotTracePreserving) as raised:
            validate(kraus_channel([np.eye(2), np.eye(2)]))
        assert str(raised.value) == "Kraus completeness violated: max deviation 1.000e+00"

    def test_zero_operator_is_kept(self):
        # the family is the probe configuration: a zero operator is an
        # outcome that never occurs, and it stays
        zero = np.zeros((2, 2))
        ch = kraus_channel([P0, zero, P1])
        assert ch.kraus_count == 3
        assert np.array_equal(ch.stack, np.stack([P0, zero, P1]))
        validate(ch)


class TestApply:
    def test_identity(self):
        rho = random_density(3, 1)
        assert np.abs(apply(preset("identity", dim=3), rho) - rho).max() < 1e-12

    def test_projectors_kill_coherence(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.abs(apply(projector_channel(), plus) - np.eye(2) / 2).max() < 1e-12

    def test_full_damping(self):
        out = apply(preset("amplitude_damping", gamma=1.0), np.eye(2) / 2)
        assert np.abs(out - P0).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply(projector_channel(), np.eye(3) / 3)

    def test_rejects_non_density(self):
        from erasurekit.errors import NotDensity

        with pytest.raises(NotDensity):
            apply(projector_channel(), np.eye(2))  # trace 2
        with pytest.raises(NotDensity):
            apply(projector_channel(), np.diag([1.5, -0.5]))


class TestDilation:
    def test_identity_embedding(self):
        v = dilation(preset("identity", dim=2)).matrix
        assert v.shape == (2, 2)
        assert np.allclose(v, np.eye(2), atol=1e-12)

    def test_copying_isometry(self):
        # the projector channel copies the basis onto the probe
        v = dilation(projector_channel()).matrix
        expected = np.zeros((4, 2), dtype=complex)
        expected[0, 0] = 1  # |0>|0> <- |0>
        expected[3, 1] = 1  # |1>|1> <- |1>
        assert np.abs(v - expected).max() < 1e-12

    def test_isometry_property(self):
        for seed in range(5):
            ch = preset("random", dim=2, kraus=3, seed=seed)
            v = dilation(ch).matrix
            assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-10

    def test_slices_recover_kraus(self):
        ch = preset("random", dim=3, kraus=2, seed=9)
        dil = dilation(ch)
        for k, e in enumerate(ch.operators):
            assert np.array_equal(dil.matrix[k :: dil.env_dim, :], e)


class TestComplementary:
    def test_trivial_environment(self):
        env = complementary_apply(preset("identity", dim=2), random_density(2, 3))
        assert env.shape == (1, 1)
        assert env[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_projectors_mixed_input(self):
        env = complementary_apply(projector_channel(), np.eye(2) / 2)
        assert np.abs(env - np.eye(2) / 2).max() < 1e-12

    def test_projectors_plus_input(self):
        # CNOT maximally entangles probe with |+>, so its reduced state is I/2:
        # entry (0,1) = Tr[P1 P0 rho] = 0 regardless of coherences
        plus = np.full((2, 2), 0.5, dtype=complex)
        env = complementary_apply(projector_channel(), plus)
        assert np.abs(env - np.eye(2) / 2).max() < 1e-12

    def test_phase_flip_branches_on_basis_state(self):
        # the {I, Z}/sqrt2 decomposition on |0><0| leaves the probe pure
        flip = kraus_channel([np.eye(2) / np.sqrt(2), PAULI_Z / np.sqrt(2)])
        env = complementary_apply(flip, P0)
        assert np.abs(env - np.full((2, 2), 0.5)).max() < 1e-12

    def test_matches_dilation_partial_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            rho = random_density(d, rng)
            v = dilation(ch).matrix
            big = (v @ rho @ v.conj().T).reshape(d, kk, d, kk)
            env = np.einsum("ikil->kl", big)
            assert np.abs(env - complementary_apply(ch, rho)).max() < 1e-12


class TestDualEffect:
    def test_identity(self):
        assert np.allclose(dual_effect(preset("identity", dim=2), 0), np.eye(2))

    def test_projector(self):
        assert np.allclose(dual_effect(projector_channel(), 0), P0)

    def test_amplitude_damping(self):
        eff = dual_effect(preset("amplitude_damping", gamma=0.36), 1)
        assert np.abs(eff - np.diag([0.0, 0.36])).max() < 1e-12

    def test_effects_sum_to_identity(self):
        ch = preset("random", dim=3, kraus=4, seed=2)
        total = sum(dual_effect(ch, j) for j in range(ch.kraus_count))
        assert np.abs(total - np.eye(3)).max() < 1e-9

    def test_duality_relation(self):
        # Tr[E~(rho) |j><j|] = Tr[rho E_j^dag E_j]
        rng = np.random.default_rng(13)
        for _ in range(10):
            ch = preset("random", dim=2, kraus=3, seed=rng)
            rho = random_density(2, rng)
            env = complementary_apply(ch, rho)
            for j in range(ch.kraus_count):
                lhs = env[j, j].real
                rhs = np.trace(rho @ dual_effect(ch, j)).real
                assert abs(lhs - rhs) < 1e-12


class TestPresets:
    def test_zero_damping_is_identity(self):
        ch = preset("amplitude_damping", gamma=0.0)
        assert ch.kraus_count == 2
        assert channels_equal(ch, preset("identity"))

    @pytest.mark.parametrize("name,key", UNIT_PARAMS)
    def test_kraus_count_does_not_depend_on_the_parameter(self, name, key):
        counts = [preset(name, **{key: v}).kraus_count for v in (0.0, 1e-25, 0.5, 1.0)]
        assert counts == [counts[0]] * 4, counts

    def test_partial_teleportation_half_fully_mixes(self):
        ch = preset("partial_teleportation", lam0=0.5)
        validate(ch)
        rng = np.random.default_rng(5)
        for _ in range(5):
            out = apply(ch, random_density(2, rng))
            assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_partial_teleportation_one_is_constant(self):
        ch = preset("partial_teleportation", lam0=1.0)
        rng = np.random.default_rng(6)
        for _ in range(5):
            out = apply(ch, random_density(2, rng))
            assert np.abs(out - P0).max() < 1e-12

    def test_dephasing_half_is_projectors(self):
        ch = preset("dephasing", p=0.5)
        assert np.abs(ch.operators[0] - P0).max() < 1e-12
        assert np.abs(ch.operators[1] - P1).max() < 1e-12

    def test_dephasing_matches_phase_flip_channel(self):
        p = 0.3
        ch = preset("dephasing", p=p)
        flip = kraus_channel([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * PAULI_Z])
        assert channels_equal(ch, flip)

    def test_eraser_cnot(self):
        ch = preset("eraser_cnot")
        assert np.abs(ch.operators[0] - P0).max() < 1e-12
        assert np.abs(ch.operators[1] - P1).max() < 1e-12

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("nope")

    def test_preset_table_drives_the_cli(self, tmp_path):
        import json

        from erasurekit.cli import main

        for name, (defaults, _) in PRESETS.items():
            validate(preset(name))
            out = tmp_path / f"{name}.json"
            assert main(["analyze", "--preset", name, "--out", str(out)]) == 0
            assert json.loads(out.read_text())["config"]["channel"]["params"] == defaults

    def test_param_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            preset("dephasing", p=1.5)
        with pytest.raises(ParamOutOfRange):
            preset("amplitude_damping", gamma=-0.1)
        with pytest.raises(ParamOutOfRange):
            preset("identity", p=0.5)


@pytest.mark.parametrize(
    "name, params",
    [
        ("random", {"seed": -1}),
        ("random", {"seed": [1, -2]}),
        ("random", {"seed": 1.5}),
        ("random", {"seed": "abc"}),
        ("amplitude_damping", {"gamma": None}),
        ("depolarizing", {"p": "x"}),
        ("depolarizing", {"p": 10**400}),
        ("dephasing", {"p": True}),
        ("dephasing", {"p": float("nan")}),
        ("partial_teleportation", {"lam0": -0.5}),
        ("random", {"dim": 2.5}),
        ("random", {"kraus": 0}),
        ("identity", {"dim": "3"}),
    ],
    ids=[
        "seed-negative", "seed-list-negative", "seed-fraction", "seed-string", "gamma-none",
        "p-string", "p-past-float", "p-bool", "p-nan", "lam0-negative", "dim-fraction",
        "kraus-zero", "dim-string",
    ],
)
def test_bad_preset_values_raise_param_out_of_range(name, params):
    with pytest.raises(ParamOutOfRange):
        preset(name, **params)


@pytest.mark.parametrize("seed", [3, [3, 1]])
def test_a_generator_seed_builds_its_integer_twin(seed):
    twin = preset("random", dim=3, kraus=2, seed=seed)
    ch = preset("random", dim=3, kraus=2, seed=np.random.default_rng(seed))
    assert np.array_equal(ch.stack, twin.stack)


class TestChannelSuite:
    def test_random_channels_behave(self):
        # 200 seeded random channels: valid, trace/positivity preserving,
        # complementary matches the dilation partial trace
        rng = np.random.default_rng(200)
        for _ in range(200):
            d = int(rng.integers(2, 4))
            kk = int(rng.integers(2, d * d + 1))
            ch = preset("random", dim=d, kraus=kk, seed=rng)
            validate(ch)
            rho = random_density(d, rng)
            out = apply(ch, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out).min() > -1e-9
            v = dilation(ch).matrix
            big = (v @ rho @ v.conj().T).reshape(d, kk, d, kk)
            assert np.abs(np.einsum("ikil->kl", big) - complementary_apply(ch, rho)).max() < 1e-12

    def test_dual_channel_trace_relation(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            ch = preset("random", dim=d, kraus=int(rng.integers(2, d * d + 1)), seed=rng)
            rho = random_density(d, rng)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            obs = (g + g.conj().T) / 2
            lhs = np.trace(apply(ch, rho) @ obs)
            rhs = np.trace(rho @ dual_apply(ch, obs))
            assert abs(lhs - rhs) < 1e-10

    def test_choi_equality_is_decomposition_free(self):
        flip = kraus_channel([np.eye(2) / np.sqrt(2), PAULI_Z / np.sqrt(2)])
        assert channels_equal(preset("dephasing", p=0.5), flip)
        assert not channels_equal(flip, kraus_channel([np.eye(2)]))
        assert choi_distance(flip, flip) < 1e-15

    def test_choi_distance_needs_one_dimension(self):
        with pytest.raises(DimensionMismatch):
            choi_distance(preset("identity", dim=2), preset("identity", dim=3))

    def test_bitflip_not_dephasing(self):
        flips = kraus_channel([np.eye(2) / np.sqrt(2), PAULI_X / np.sqrt(2)])
        assert not channels_equal(flips, preset("dephasing", p=0.5))
