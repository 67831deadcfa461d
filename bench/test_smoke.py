"""Smoke test of the benchmark: every workload at its smallest size.

Checks that each metric BENCHMARK.json names is emitted with its unit, that
the output checks reject tampered outputs, and that the tracer's call counts
match the profiler figures for a 200-trial verify.
"""

import json
import math
from pathlib import Path

import pytest
import run
import tracing
import workloads

run.load_package()
MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_manifest_names_the_workloads_run_py_knows():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert MANIFEST["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    record = run.collect(workload, seed=0, seconds=0, trace=trace, small=True)
    assert record["correct"], record["errors"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    expected = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in record["metrics"].items()
    }
    for name, entry in record["metrics"].items():
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name


def _first_output(call, tmp_path, monkeypatch):
    import erasurekit.cli as cli

    monkeypatch.chdir(tmp_path)
    outcome = run.invoke(cli, call)
    assert not outcome.error
    assert call.check(outcome.stdout, outcome.output) == []
    return outcome


def test_verify_check_rejects_a_slack_below_the_floor(tmp_path, monkeypatch):
    (call,) = workloads.verify_sweep(0, small=True)
    outcome = _first_output(call, tmp_path, monkeypatch)
    lines = outcome.output.splitlines()
    header = lines[1].split(",")
    row = lines[2].split(",")
    row[header.index("slack_pinsker")] = "-2e-09"
    lines[2] = ",".join(row)
    problems = call.check(outcome.stdout, "\n".join(lines) + "\n")
    assert any("slack_pinsker" in p for p in problems)


def test_optimize_check_rejects_a_decreasing_trace(tmp_path, monkeypatch):
    (call,) = workloads.optimize_random(0, small=True)
    outcome = _first_output(call, tmp_path, monkeypatch)
    payload = json.loads(outcome.output)
    trace = payload["result"]["trace"]
    assert trace[4][0] == trace[5][0] == 0
    trace[5][2] = trace[4][2] - 1e-6
    problems = call.check(outcome.stdout, json.dumps(payload))
    assert any("decreases" in p for p in problems)


def test_later_passes_keep_only_their_timing(tmp_path, monkeypatch):
    import erasurekit.cli as cli

    monkeypatch.chdir(tmp_path)
    runner = run.Runner(cli, workloads.verify_sweep(0, small=True), run.speed.SpeedProbe())
    runner.run_pass()
    (later,) = runner.run_pass()
    assert runner.failed == 0, runner.errors
    assert runner.first[0].output and later.seconds > 0
    assert (later.stdout, later.output, later.digests) == ("", "", {})


def test_traced_counts_match_the_profiler(tmp_path, capsys):
    import erasurekit.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--trials", "200", "--seed", "1", "--out", str(tmp_path / "v.csv")]) == 0
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["numerics.psd_eigh"] == 3600
    assert calls["numerics.as_matrix"] == 15893
