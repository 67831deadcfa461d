"""Acceptance suite: one test per criterion, at the stated counts and
tolerances, each printing a PASS line when it completes."""

import json

import numpy as np
import pytest

from erasurekit import (
    assisted_fidelity,
    build_correction,
    choi_distance,
    conditional_states,
    detect_random_unitary,
    entanglement_fidelity,
    eraser_curve,
    kraus_channel,
    optimize_erasure,
    preset,
    random_density,
    random_ensemble,
    random_measurement,
    refine,
    rotation_measurement,
    sample_oracle,
    teleport_curve,
    uhlmann_fidelity,
    verify_converse,
    verify_direct,
    verify_entropy_bounds,
    witness_channel,
)
from erasurekit.cli import main
from erasurekit.probes import joint_distribution, mutual_information

MIXED = np.eye(2, dtype=complex) / 2


def _random_config(rng):
    d = int(rng.integers(2, 4))
    kk = int(rng.integers(2, d * d + 1))
    channel = preset("random", dim=d, kraus=kk, seed=rng)
    rho = random_density(d, rng)
    meas = random_measurement(kk, kk, rng)
    return d, kk, channel, rho, meas


def test_criterion_01_decomposition_invariance():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        d, kk, channel, rho, _ = _random_config(rng)
        meas = random_measurement(kk + int(rng.integers(0, 2)), kk, rng)
        refined = kraus_channel(refine(channel, meas))
        dev = abs(entanglement_fidelity(refined, rho) - entanglement_fidelity(channel, rho))
        worst = max(worst, dev)
        assert dev < 1e-9
    print(f"ACCEPTANCE 1 PASS: decomposition invariance over 200 configs (worst {worst:.2e})")


def test_criterion_02_correction_achieves_bound():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        _, _, channel, rho, meas = _random_config(rng)
        achieved = entanglement_fidelity(build_correction(channel, rho, meas), rho)
        target = assisted_fidelity(channel, rho, meas)
        dev = abs(achieved - target)
        worst = max(worst, dev)
        assert dev < 1e-9
    print(f"ACCEPTANCE 2 PASS: correction achieves the bound over 200 configs (worst {worst:.2e})")


def test_criterion_03_direct_chain():
    rng = np.random.default_rng(1003)
    worst = np.inf
    for _ in range(1000):
        d, kk, channel, rho, meas = _random_config(rng)
        ens = random_ensemble(rho, int(rng.integers(2, 7)), rng)
        assert ens.beta >= 1e-3
        report = verify_direct(channel, rho, ens, meas)
        worst = min(worst, report.worst_slack())
        assert report.worst_slack() >= -1e-9
    print(f"ACCEPTANCE 3 PASS: direct chain over 1000 configs (worst slack {worst:.2e})")


def test_criterion_04_converse_chain():
    rng = np.random.default_rng(1004)
    worst = np.inf
    for trial in range(300):
        d, kk, channel, rho, meas = _random_config(rng)
        members = d * d + trial % 5
        report = verify_converse(channel, rho, meas, members=members, seed=rng)
        worst = min(worst, report.worst_slack())
        assert report.worst_slack() >= -1e-9
        assert np.isfinite(report.gamma)
    print(f"ACCEPTANCE 4 PASS: converse chain over 300 IC configs (worst slack {worst:.2e})")


def test_criterion_05_pinsker_bounds():
    rng = np.random.default_rng(1005)
    worst = np.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 17))
        s = rng.random(n) + 1e-3
        s = (1 - n * 1e-4) * (s / s.sum()) + 1e-4
        r = rng.random(n)
        bounds = verify_entropy_bounds(r / r.sum(), s)
        worst = min(worst, bounds.lower_slack, bounds.upper_slack)
        assert bounds.lower_slack >= -1e-12
        assert bounds.upper_slack >= -1e-12
    print(f"ACCEPTANCE 5 PASS: Pinsker bounds over 10^4 pairs (worst slack {worst:.2e})")


def test_criterion_06_eraser_curve():
    rows = eraser_curve(points=33, seed=0)
    for theta, f_ea, _ in rows:
        assert abs(f_ea - (1 + abs(np.sin(2 * theta))) / 2) < 1e-10
    channel = preset("eraser_cnot")
    hadamard_point = rotation_measurement(np.pi / 4)
    for check in range(20):
        ens = random_ensemble(MIXED, 4, np.random.default_rng([2006, check]))
        info = mutual_information(joint_distribution(channel, ens, hadamard_point))
        assert info <= 1e-10
    print("ACCEPTANCE 6 PASS: eraser curve matches (1+|sin 2theta|)/2; erasure point decouples")


def test_criterion_07_teleport_curve():
    rows = teleport_curve(points=21, seed=0, restarts=4)
    for lam0, f_canonical, _ in rows:
        expected = (1 + 2 * np.sqrt(lam0 * (1 - lam0))) / 2
        assert abs(f_canonical - expected) < 1e-10
    assert rows[10][0] == pytest.approx(0.5)
    assert rows[10][1] == pytest.approx(1.0, abs=1e-12)
    print("ACCEPTANCE 7 PASS: teleport curve matches (1+2sqrt(l(1-l)))/2; ideal resource gives 1")


def test_criterion_08_optimizer():
    for name in ("dephasing", "depolarizing"):
        channel = preset(name)
        result = optimize_erasure(channel, seed=0)
        assert result.best_value >= 1 - 1e-6, name
        verdict = detect_random_unitary(channel, seed=0, result=result)
        assert verdict.is_random_unitary, name
        assert choi_distance(witness_channel(verdict), channel) < 1e-6, name

    half = preset("amplitude_damping", gamma=0.5)
    result = optimize_erasure(half, MIXED, seed=0)
    verdict = detect_random_unitary(half, seed=0, result=result)
    assert not verdict.is_random_unitary
    oracle = sample_oracle(half, MIXED, samples=20_000, seed=0)
    assert result.best_value >= oracle - 1e-3

    full = optimize_erasure(preset("amplitude_damping", gamma=1.0), MIXED, seed=0)
    assert abs(full.best_value - 0.5) < 1e-9
    print("ACCEPTANCE 8 PASS: optimizer reaches known optima, verdicts and oracle agree")


def test_criterion_09_two_path_identity():
    rng = np.random.default_rng(1009)
    worst_value, worst_mix = 0.0, 0.0
    for _ in range(200):
        _, _, channel, rho, meas = _random_config(rng)
        direct = assisted_fidelity(channel, rho, meas)
        states = conditional_states(channel, rho, meas)
        via_states = sum(p * uhlmann_fidelity(rho, k) ** 2 for p, k in states)
        worst_value = max(worst_value, abs(direct - via_states))
        assert abs(direct - via_states) < 1e-9
        remix = np.abs(sum(p * k for p, k in states) - rho).max()
        worst_mix = max(worst_mix, remix)
        assert remix < 1e-9
    print(
        "ACCEPTANCE 9 PASS: two-path identity and conditional-state mixing "
        f"(worst {worst_value:.2e} / {worst_mix:.2e})"
    )


def test_criterion_10_determinism(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--trials", "100", "--seed", "1", "--out", str(out)]) == 0
    first_csv = out.read_bytes()
    first_summary = capsys.readouterr().out
    assert main(["verify", "--trials", "100", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == first_csv
    assert capsys.readouterr().out == first_summary
    assert json.loads(first_summary)["worst_slack"] >= -1e-9
    print("ACCEPTANCE 10 PASS: verify sweep is byte-identical across reruns")
