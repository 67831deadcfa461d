import json

import numpy as np
import pytest

from erasurekit import cli
from erasurekit.cli import main
from erasurekit.serialize import (
    channel_from_dict,
    decode_matrix,
    dumps_compact,
    dumps_stable,
    encode_matrix,
    ensemble_from_dict,
    measurement_from_dict,
)
from erasurekit import (
    hadamard_measurement,
    haar_isometry,
    kraus_channel,
    numerics,
    optimize_erasure,
    preset,
    random_ensemble,
)
from reference import branch_residual, channel_to_dict


EYE_PAIRS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


class TestSerialization:
    def test_matrix_round_trip(self):
        m = np.array([[1 + 2j, 0.25], [-1j, 3.5 - 0.125j]])
        assert np.array_equal(decode_matrix(encode_matrix(m)), m)

    def test_channel_round_trip(self):
        ch = preset("amplitude_damping", gamma=0.3)
        again = channel_from_dict(channel_to_dict(ch))
        assert again.dim == 2
        for a, b in zip(again.operators, ch.operators):
            assert np.array_equal(a, b)

    def test_channel_preset_form(self):
        ch = channel_from_dict({"preset": "dephasing", "params": {"p": 0.5}})
        assert ch.kraus_count == 2

    def test_library_callers_may_seed_the_random_preset_with_a_generator(self):
        ch = preset("random", dim=2, kraus=2, seed=np.random.default_rng(3))
        assert np.array_equal(ch.stack, preset("random", dim=2, kraus=2, seed=3).stack)

    def test_ensemble_and_measurement_files(self):
        ens = random_ensemble(np.eye(2) / 2, 3, 1)
        again = ensemble_from_dict({"members": [encode_matrix(m) for m in ens.members]})
        assert again.stack.shape[0] == 3
        meas = measurement_from_dict({"mixing": encode_matrix(hadamard_measurement().mixing)})
        assert meas.outcomes == 2

    def test_float17_round_trips(self):
        from erasurekit.serialize import fmt17

        rng = np.random.default_rng(55)
        for x in rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200):
            assert float(fmt17(x)) == x


class TestAnalyze:
    def test_perfect_erasure_configuration(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--preset",
                "dephasing",
                "--state",
                "mixed",
                "--mixing",
                "hadamard",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["direct"]["f_ea"] == pytest.approx(1.0, abs=1e-9)
        assert payload["direct"]["mutual_info"] <= 1e-10
        assert payload["config"]["seed"] == 0
        assert payload["config"]["mixing"] == "hadamard"

    def test_mixing_file_reads_as_the_named_mixing(self, tmp_path):
        mixing = tmp_path / "mixing.json"
        mixing.write_text(json.dumps({"mixing": encode_matrix(hadamard_measurement().mixing)}))
        reports = []
        for name in ("hadamard", str(mixing)):
            out = tmp_path / "report.json"
            argv = ["analyze", "--preset", "dephasing", "--mixing", name, "--out", str(out)]
            assert main(argv) == 0
            payload = json.loads(out.read_text())
            assert payload["config"]["mixing"] == name
            reports.append((payload["direct"], payload["converse"]))
        assert reports[0] == reports[1]

    def test_identity_channel(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze", "--preset", "identity", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["direct"]["f_e"] == pytest.approx(1.0, abs=1e-9)
        assert payload["direct"]["f_ea"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_damping_keeps_the_kraus_count_a_named_mixing_reads(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["analyze", "--preset", "amplitude_damping", "--param", "0", "--mixing", "hadamard"]
        assert main([*argv, "--out", str(out)]) == 0

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_an_explicit_zero_operator_is_kept(self, tmp_path, at):
        # the zero operator is an outcome that never occurs: it adds nothing
        # to either fidelity, and a zero-probability column to the joint
        # distribution
        ops = list(preset("amplitude_damping", gamma=0.3).operators)
        reports = []
        for family in (ops, [*ops[:at], np.zeros((2, 2)), *ops[at:]]):
            path = tmp_path / "channel.json"
            path.write_text(json.dumps(channel_to_dict(kraus_channel(family))))
            assert channel_from_dict(json.loads(path.read_text())).kraus_count == len(family)
            out = tmp_path / "report.json"
            assert main(["analyze", "--channel", str(path), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text())["direct"])
        plain, padded = reports
        assert padded["f_e"] == plain["f_e"] and padded["f_ea"] == plain["f_ea"]
        assert padded["mutual_info"] == pytest.approx(plain["mutual_info"], rel=0, abs=1e-15)

    def test_negative_ic_size(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "--preset", "dephasing", "--ic-size", "-3", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParamOutOfRange: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("members", ["0", "-3"])
    def test_members_below_one(self, tmp_path, capsys, members):
        out = tmp_path / "report.json"
        code = main(["analyze", "--preset", "dephasing", "--members", members, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParamOutOfRange: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("members", ["4", "9"])
    def test_members_with_an_ensemble_file(self, tmp_path, capsys, members):
        # the record keeps the file in place of --members, so an accepted
        # --members would leave no trace in the output
        ens_file = tmp_path / "ens.json"
        halves = [np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]
        ens_file.write_text(json.dumps({"members": [encode_matrix(m) for m in halves]}))
        out = tmp_path / "report.json"
        argv = ["analyze", "--preset", "dephasing", "--ensemble", str(ens_file)]
        assert main([*argv, "--members", members, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: ParamOutOfRange: an --ensemble file takes no --members\n"
        assert not out.exists()
        assert main([*argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["ensemble"] == {"file": str(ens_file)}

    def test_members_default_is_recorded(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", "--preset", "dephasing", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["ensemble"] == {"random_members": 4}

    @pytest.mark.parametrize(
        "source, flags",
        [
            (["--preset", "dephasing"], ["--dim", "3", "--kraus", "7"]),
            (["--preset", "eraser_cnot"], ["--kraus", "2"]),
            (["--preset", "identity"], ["--kraus", "3"]),
            (["--channel", "CHANNEL"], ["--dim", "2"]),
            (["--channel", "CHANNEL"], ["--param", "0.9"]),
        ],
        ids=["dephasing", "eraser-kraus", "identity-kraus", "file-dim", "file-param"],
    )
    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    def test_size_flags_the_channel_does_not_take(self, tmp_path, capsys, command, source, flags):
        channel = tmp_path / "channel.json"
        channel.write_text(json.dumps({"preset": "dephasing"}))
        source = [str(channel) if arg == "CHANNEL" else arg for arg in source]
        out = tmp_path / "out.json"
        assert main([command, *source, *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParamOutOfRange: ") and err.count("\n") == 1
        assert f"takes no {flags[0]}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, params",
        [
            (["--preset", "identity"], {"dim": 2}),
            (["--preset", "identity", "--dim", "3"], {"dim": 3}),
            (["--preset", "random"], {"dim": 2, "kraus": 2, "seed": 0}),
            (["--preset", "random", "--kraus", "3"], {"dim": 2, "kraus": 3, "seed": 0}),
            (["--preset", "dephasing"], {"p": 0.5}),
        ],
    )
    def test_recorded_params_resolve_the_size_defaults(self, tmp_path, argv, params):
        out = tmp_path / "report.json"
        assert main(["analyze", *argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["channel"]["params"] == params

    def test_broken_channel_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        scaled = [[[0.3162277660168379, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        bad.write_text(json.dumps({"dim": 2, "kraus": [eye, scaled]}))
        code = main(["analyze", "--channel", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "NotTracePreserving" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--channel", "--state", "--ensemble", "--mixing"])
    @pytest.mark.parametrize(
        "data",
        [b"{not json", b'\xff\xfe{"kraus": []}', b"[" * 200_000 + b"]" * 200_000],
        ids=["syntax", "not-utf8", "nested-past-the-recursion-limit"],
    )
    def test_malformed_json(self, tmp_path, capsys, flag, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        out = tmp_path / "r.json"
        source = [] if flag == "--channel" else ["--preset", "dephasing"]
        assert main(["analyze", *source, flag, str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ErasureKitError: malformed JSON in {bad}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"kraus": []},
            {"kraus": [[["oops", 0.0]]]},
            {"kraus": [[[1.0]]]},
            {"kraus": [[[1.0, 0.0], [0.0, 0.0]]], "dim": 5},
            {"preset": "no_such_thing"},
            {"preset": "dephasing", "params": {"p": 7}},
        ],
    )
    def test_malformed_channel_payloads(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = main(["analyze", "--channel", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "payload,error",
        [
            ({"kraus": 5}, "DimensionMismatch"),
            ({"kraus": [EYE_PAIRS], "dim": "x"}, "ParamOutOfRange"),
            ({"preset": "dephasing", "params": 5}, "ParamOutOfRange"),
            ({"preset": "random", "params": {"seed": "abc"}}, "ParamOutOfRange"),
            ({"preset": "random", "params": {"seed": 1.5}}, "ParamOutOfRange"),
            ({"preset": "random", "params": {"seed": [1, -2]}}, "ParamOutOfRange"),
            ({"preset": "depolarizing", "params": {"p": "x"}}, "ParamOutOfRange"),
            ({"preset": "random", "params": {"dim": 2.5}}, "ParamOutOfRange"),
            ({"preset": [1]}, "UnknownPreset"),
            (5, "DimensionMismatch"),
            ({"kraus": [[[{"re": 1}, [0, 0]]]]}, "DimensionMismatch"),
            ({"kraus": [[[[1.0, 0.0, 3.0]]]]}, "DimensionMismatch"),
            ({"kraus": [[[[10**400, 0], [0, 0]]]]}, "DimensionMismatch"),
            ({"preset": "depolarizing", "params": {"p": 10**400}}, "ParamOutOfRange"),
            ({"kraus": [[EYE_PAIRS[0], EYE_PAIRS[1][:1]]]}, "DimensionMismatch"),
            ({"kraus": [EYE_PAIRS], "dim": 3}, "DimensionMismatch"),
        ],
        ids=[
            "kraus-number", "dim-string", "params-number", "seed-string", "seed-fraction",
            "seed-negative", "p-string", "dim-fraction", "preset-list", "json-number",
            "entry-object", "entry-triple", "entry-past-float", "p-past-float",
            "rows-ragged", "dim-mismatch",
        ],
    )
    def test_mistyped_channel_payloads_exit_with_one_error_line(
        self, tmp_path, capsys, payload, error
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        code = main(["analyze", "--channel", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,payload",
        [
            ("--state", {"matrix": [[[1, 0], [0, 0]], [[0, 0], {"im": 1}]]}),
            ("--ensemble", {"members": 5}),
            ("--ensemble", 7),
        ],
        ids=["state-entry-object", "members-number", "ensemble-number"],
    )
    def test_mistyped_state_ensemble_and_mixing_files(self, tmp_path, capsys, flag, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        code = main(["analyze", "--preset", "dephasing", flag, str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"preset": "random", "params": {"dim": 2.0, "kraus": 3, "seed": [1, 2]}},
            {"kraus": [EYE_PAIRS], "dim": 2.0},
        ],
    )
    def test_integral_floats_and_seed_lists_are_accepted(self, tmp_path, payload):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(payload))
        assert main(["analyze", "--channel", str(good), "--out", str(tmp_path / "r.json")]) == 0

    def test_missing_file(self, tmp_path, capsys):
        code = main(
            ["analyze", "--channel", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")]
        )
        assert code == 1

    def test_channel_and_preset_exclusive(self, tmp_path, capsys):
        code = main(["analyze", "--preset", "identity", "--channel", "x.json"])
        assert code == 1

    def test_custom_state_file(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(
            json.dumps({"matrix": [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]})
        )
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--preset", "amplitude_damping", "--param", "0.5",
             "--state", str(state), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0 <= payload["direct"]["f_ea"] <= 1 + 1e-9

    # spectrum (1 + n, -n) in a seeded Haar basis: the boundary accepts the
    # eigenvalue -n, above -PSD_VIOLATION, and both chains then read the
    # state's projection; at n = 3e-10 they read the matrix as given and
    # failed the floor, at n = 2e-9 the ensemble check refused them
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", ["depolarizing", "amplitude_damping"])
    @pytest.mark.parametrize("n", [3e-10, 2e-9])
    def test_a_state_the_boundary_accepts_keeps_every_slack(self, tmp_path, n, name, seed):
        u = haar_isometry(2, 2, seed)
        state = tmp_path / "state.json"
        rho = numerics.hermitize((u * [1 + n, -n]) @ u.conj().T)
        state.write_text(json.dumps({"matrix": encode_matrix(rho)}))
        out = tmp_path / "report.json"
        argv = ["analyze", "--preset", name, "--state", str(state), "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        slacks = [v for part in ("direct", "converse") for k, v in payload[part].items()
                  if k.startswith("slack")]
        assert len(slacks) == 9 and min(slacks) >= -1e-9

    def test_ensemble_file(self, tmp_path):
        from erasurekit.serialize import encode_matrix

        ens = random_ensemble(np.eye(2) / 2, 3, 5)
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"members": [encode_matrix(m) for m in ens.members]}))
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--preset", "eraser_cnot", "--ensemble", str(path), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["ensemble"] == {"file": str(path)}

    def test_mismatched_ensemble(self, tmp_path, capsys):
        from erasurekit.serialize import encode_matrix

        ens = random_ensemble(np.diag([0.75, 0.25]).astype(complex), 3, 5)
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"members": [encode_matrix(m) for m in ens.members]}))
        code = main(
            ["analyze", "--preset", "eraser_cnot", "--ensemble", str(path),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "EnsembleMismatch" in capsys.readouterr().err

    def test_ensemble_of_the_wrong_dimension(self, tmp_path, capsys):
        path = tmp_path / "ens.json"
        halves = [np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]
        path.write_text(json.dumps({"members": [encode_matrix(m) for m in halves]}))
        out = tmp_path / "r.json"
        code = main(
            ["analyze", "--preset", "random", "--dim", "3", "--ensemble", str(path),
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch: ") and err.count("\n") == 1
        assert not out.exists()

    def test_analyze_byte_identical(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["analyze", "--preset", "amplitude_damping", "--param", "0.3",
                "--seed", "9", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--preset", "dephasing"],
        ["optimize", "--preset", "dephasing"],
        ["scenario", "--name", "eraser"],
        ["verify", "--trials", "1"],
    ],
    ids=["analyze", "optimize", "scenario", "verify"],
)
def test_negative_seed_exits_with_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: ParamOutOfRange: --seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_dispatch_reads_the_handler_when_main_runs(tmp_path, monkeypatch):
    # the parser is kept after the first call, so it must not hold the handlers
    assert main(["scenario", "--name", "eraser", "--grid", "2", "--out", str(tmp_path / "a.csv")]) == 0
    seen = []

    def stub(args):
        seen.append((args.command, args.name, args.grid))
        return 0

    monkeypatch.setattr(cli, "cmd_scenario", stub)
    assert main(["scenario", "--name", "teleport", "--grid", "3", "--out", str(tmp_path / "x.csv")]) == 0
    assert seen == [("scenario", "teleport", 3)]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--preset", "amplitude_damping", "--param", "0.3"],
        ["analyze", "--preset", "dephasing", "--mixing", "hadamard", "--members", "3"],
        ["optimize", "--preset", "eraser_cnot"],
        ["optimize", "--preset", "amplitude_damping", "--param", "0.5", "--oracle", "2000"],
        ["optimize", "--preset", "random", "--dim", "3", "--kraus", "3", "--outcomes", "4",
         "--restarts", "3"],
    ],
    ids=["analyze", "analyze-hadamard", "optimize", "optimize-oracle", "optimize-outcomes"],
)
def test_json_files_are_one_compact_key_sorted_line(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == dumps_compact(json.loads(text)) + "\n"
    assert text.count("\n") == 1


def test_optimize_file_holds_the_search_trace_bit_for_bit(tmp_path):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--preset", "random", "--dim", "2", "--kraus", "3",
                 "--restarts", "4", "--seed", "11", "--out", str(out)]) == 0
    written = json.loads(out.read_text())["result"]["trace"]
    channel = preset("random", dim=2, kraus=3, seed=11)
    result = optimize_erasure(channel, np.eye(2) / 2, 3, restarts=4, seed=11)
    assert len(written) == len(result.trace)
    for row, (r, i, v) in zip(written, result.trace):
        assert row[:2] == [r, i] and row[2].hex() == float(v).hex()


class TestScenario:
    def test_eraser_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["scenario", "--name", "eraser", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "theta,f_ea,mutual_info"
        assert len(lines) == 2 + 33
        for line in lines[2:]:
            theta, f_ea, info = (float(x) for x in line.split(","))
            assert f_ea == pytest.approx((1 + abs(np.sin(2 * theta))) / 2, abs=1e-10)

    def test_teleport_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["scenario", "--name", "teleport", "--grid", "5", "--restarts", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "lambda0,f_ea_canonical,f_ea_optimized"
        values = [tuple(float(x) for x in line.split(",")) for line in lines[2:]]
        for lam0, canonical, optimized in values:
            assert canonical == pytest.approx(
                (1 + 2 * np.sqrt(lam0 * (1 - lam0))) / 2, abs=1e-10
            )
            assert optimized >= canonical - 1e-9

    def test_default_teleport_search_never_ends_below_the_canonical_mixing(self, tmp_path):
        # restart 0 starts at the canonical mixing W = I, and every ascent ends
        # at its best accepted point, so no rounding at a fixed point can put
        # the optimum below the canonical value
        out = tmp_path / "curve.csv"
        assert main(["scenario", "--name", "teleport", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 21
        for lam0, canonical, optimized in rows:
            assert float(optimized) >= float(canonical), lam0

    def test_tiny_grid(self, tmp_path, capsys):
        code = main(["scenario", "--name", "eraser", "--grid", "1", "--out", "x.csv"])
        assert code == 1

    def test_zero_grid(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["scenario", "--name", "eraser", "--grid", "0", "--out", str(out)]) == 1
        assert "at least 2 points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["eraser", "teleport"])
    @pytest.mark.parametrize("restarts", ["0", "-4"])
    def test_restarts_below_one(self, tmp_path, capsys, monkeypatch, name, restarts):
        def refuse(*args, **kwargs):
            raise AssertionError("built a channel before the restart check")

        monkeypatch.setattr("erasurekit.scenarios.preset", refuse)
        out = tmp_path / "x.csv"
        argv = ["scenario", "--name", name, "--restarts", restarts, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParamOutOfRange: ") and err.count("\n") == 1
        assert not out.exists()


class TestVerify:
    def test_short_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--trials", "6", "--seed", "1", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        summary = json.loads(stdout)
        # the summary is for people to read, so it stays indented
        assert stdout == dumps_stable(summary)
        assert summary["pass"] is True
        assert summary["worst_slack"] >= -1e-9
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 6

    @pytest.mark.parametrize("dims", ["abc", "2,x"])
    def test_non_integer_dims(self, tmp_path, capsys, dims):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--dims", dims, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        expected = f"error: ParamOutOfRange: --dims needs integers >= 2, got {dims!r}\n"
        assert captured.err == expected and captured.out == ""
        assert not out.exists()

    def test_zero_trials(self, capsys):
        code = main(["verify", "--trials", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: ParamOutOfRange: --trials must be >= 1, got 0\n"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--trials", "4", "--seed", "7", "--out", str(a)]) == 0
        assert main(["verify", "--trials", "4", "--seed", "7", "--out", str(b)]) == 0
        content_a, content_b = a.read_bytes(), b.read_bytes()
        assert content_a.replace(str(a).encode(), b"OUT") == content_b.replace(
            str(b).encode(), b"OUT"
        )

    def test_full_sweep(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--trials", "1000", "--seed", "1", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["worst_slack"] >= -1e-9
        assert len(out.read_text().splitlines()) == 2 + 1000


class TestOptimize:
    def test_dephasing_preset(self, tmp_path):
        out = tmp_path / "opt.json"
        code = main(["optimize", "--preset", "dephasing", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["best_value"] >= 1 - 1e-6
        assert payload["random_unitary"]["is_random_unitary"] is True

    def test_amplitude_damping_with_oracle(self, tmp_path):
        out = tmp_path / "opt.json"
        code = main(
            ["optimize", "--preset", "amplitude_damping", "--param", "0.5",
             "--oracle", "2000", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["best_value"] >= payload["result"]["oracle_value"] - 1e-3
        assert payload["random_unitary"]["is_random_unitary"] is False

    def test_best_value_is_not_below_its_start(self, tmp_path):
        # at this channel W = I is a fixed point, and the plain steps from it
        # lower F by an ulp; the search ends at its best accepted point, the
        # start, whose value is the first trace row
        out = tmp_path / "opt.json"
        assert main(["optimize", "--preset", "partial_teleportation", "--param", "0.75",
                     "--seed", "0", "--restarts", "1", "--iters", "11", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["trace"][0][:2] == [0, 0]
        assert result["best_value"] >= result["trace"][0][2]

    def test_identity_channel(self, tmp_path):
        out = tmp_path / "opt.json"
        code = main(["optimize", "--preset", "identity", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["best_value"] == pytest.approx(1.0, abs=1e-12)
        verdict = payload["random_unitary"]
        assert verdict["is_random_unitary"] is True
        assert len(verdict["witness"]) == 1
        assert verdict["witness"][0]["weight"] == pytest.approx(1.0, abs=1e-12)

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "opt.json"
        trace = tmp_path / "trace.csv"
        code = main(
            ["optimize", "--preset", "eraser_cnot", "--restarts", "2",
             "--out", str(out), "--trace-csv", str(trace)]
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "restart,iteration,value"
        assert len(lines) > 2

    def test_optimize_byte_identical(self, tmp_path):
        out = tmp_path / "opt.json"
        args = ["optimize", "--preset", "random", "--dim", "2", "--kraus", "3",
                "--restarts", "4", "--seed", "11", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("extra", [[], ["--oracle", "100"]])
    def test_state_of_the_wrong_dimension(self, tmp_path, capsys, extra):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"matrix": encode_matrix(np.eye(3) / 3)}))
        out = tmp_path / "opt.json"
        code = main(
            ["optimize", "--preset", "dephasing", "--state", str(state), *extra,
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,error",
        [
            ("--restarts", "0", "ParamOutOfRange"),
            ("--restarts", "-3", "ParamOutOfRange"),
            ("--iters", "-1", "ParamOutOfRange"),
            ("--oracle", "-5", "ParamOutOfRange"),
            ("--outcomes", "-2", "ParamOutOfRange"),
            ("--tol", "nan", "ParamOutOfRange"),
            ("--tol", "-1", "ParamOutOfRange"),
            # below the Kraus count, and 2^22 + 1 outcomes of 4 entries each, above the size cap
            ("--outcomes", "1", "BadOutcomeCount"),
            ("--outcomes", "4194305", "ParamOutOfRange"),
        ],
    )
    def test_budget_out_of_range(self, tmp_path, capsys, monkeypatch, flag, value, error):
        # the refusal comes before the oracle draws a sample; a later --oracle overrides it
        def refuse(*args, **kwargs):
            raise AssertionError("drew the oracle before refusing the request")

        monkeypatch.setattr(cli, "sample_oracle", refuse)
        out = tmp_path / "opt.json"
        argv = ["optimize", "--preset", "dephasing", "--oracle", "20000", flag, value]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_extra_outcomes_on_a_far_from_unital_channel_search_once(self, tmp_path, monkeypatch):
        # the unitality gap refuses the channel, so the random-unitary verdict
        # takes its residual at this request's own best mixing, not at a second
        # search with as many outcomes as Kraus operators
        searches = []
        real = cli.optimize_erasure

        def spy(*args, **kwargs):
            searches.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "optimize_erasure", spy)
        monkeypatch.setattr("erasurekit.optimizer.optimize_erasure", spy)
        out = tmp_path / "opt.json"
        assert main(["optimize", "--preset", "random", "--dim", "4", "--kraus", "16",
                     "--restarts", "3", "--outcomes", "17", "--out", str(out)]) == 0
        assert len(searches) == 1
        payload = json.loads(out.read_text())
        verdict = payload["random_unitary"]
        assert verdict["is_random_unitary"] is False and "witness" not in verdict
        w = decode_matrix(payload["result"]["best_mixing"])
        assert w.shape == (17, 16)
        expected = branch_residual(preset("random", dim=4, kraus=16, seed=0), w)
        assert verdict["residual"] == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_unconverged_run_warns_on_stderr_only(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        args = ["optimize", "--preset", "random", "--dim", "2", "--kraus", "3",
                "--restarts", "2", "--seed", "11", "--out", str(out)]
        assert main(args + ["--iters", "2"]) == 0
        captured = capsys.readouterr()
        assert json.loads(out.read_text())["result"]["converged"] is False
        assert captured.out.startswith(f"wrote {out} ") and captured.out.count("\n") == 1
        warning = captured.err.splitlines()
        assert len(warning) == 1
        assert "--iters 2" in warning[0] and "--tol" in warning[0]

        assert main(args) == 0
        assert json.loads(out.read_text())["result"]["converged"] is True
        assert capsys.readouterr().err == ""


class TestSizeCaps:
    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(numerics, "ginibre", refuse)
        monkeypatch.setattr(numerics, "_haar", refuse)
        monkeypatch.setattr("erasurekit.optimizer._starts", refuse)
        # the one draw both random_ensemble and ic_ensemble make
        monkeypatch.setattr("erasurekit.probes._complex_normal", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--preset", "random", "--dim", "1000", "--kraus", "1000"],
            ["--preset", "identity", "--dim", "100000"],
            ["--preset", "eraser_cnot", "--outcomes", "100000000"],
            ["--preset", "depolarizing", "--outcomes", "10000000"],
        ],
    )
    def test_oversized_request_fails_fast(self, tmp_path, capsys, argv):
        out = tmp_path / "opt.json"
        assert main(["optimize", *argv, "--out", str(out)]) == 1
        assert "ParamOutOfRange" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_grid_fails_fast(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated the grid before the size check")

        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "curve.csv"
        argv = ["scenario", "--name", "teleport", "--grid", str(10**9), "--out", str(out)]
        assert main(argv) == 1
        assert "ParamOutOfRange" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials, dims", [("1", "1000"), ("2", "2,65"), ("2", "64")])
    def test_oversized_verify_fails_before_any_trial(self, tmp_path, capsys, trials, dims):
        out = tmp_path / "verify.csv"
        argv = ["verify", "--trials", trials, "--dims", dims, "--out", str(out)]
        assert main(argv) == 1
        assert "ParamOutOfRange" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_at_the_cap_is_accepted(self, tmp_path, monkeypatch):
        # d = 64 at trial 0 has a 4096-member IC ensemble: 2^24 entries exactly
        columns = cli.VERIFY_COLUMNS.split(",")
        monkeypatch.setattr(cli, "_verify_trial", lambda *a: dict.fromkeys(columns, 0.0))
        out = tmp_path / "verify.csv"
        assert main(["verify", "--trials", "1", "--dims", "64", "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("flag", ["--members", "--ic-size"])
    def test_oversized_ensemble_fails_fast(self, tmp_path, capsys, flag):
        # a given ensemble file keeps the random ensemble (and its draw) out
        # of the --ic-size case
        ens_file = tmp_path / "ens.json"
        halves = [np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]
        ens_file.write_text(json.dumps({"members": [encode_matrix(m) for m in halves]}))
        source = [] if flag == "--members" else ["--ensemble", str(ens_file)]
        out = tmp_path / "analyze.json"
        argv = ["analyze", "--preset", "dephasing", *source, flag, str(10**9), "--out", str(out)]
        assert main(argv) == 1
        assert "ParamOutOfRange" in capsys.readouterr().err
        assert not out.exists()
