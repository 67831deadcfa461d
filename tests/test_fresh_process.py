"""Reruns in fresh interpreters, and requests served one after another in
one process, write the same bytes.

``CASES`` is the one list of rerun requests, each a command line. Each
runs twice, each time as its own ``python -m erasurekit.cli`` process with
its own hash seed, and both runs write the same path, since the path is
part of the recorded configuration; outputs and stdouts must match. The
same requests then run through ``cli.main`` in one process, between
requests that fail or print help, and each must write and print what its
fresh process did; so must the command line that each output's recorded
configuration names. The installed ``erasurekit`` script is the ``cli.run``
that ``python -m erasurekit.cli`` runs, so these runs stand for it too.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import erasurekit
from erasurekit import cli

SRC = str(Path(erasurekit.__file__).resolve().parent.parent)
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

CASES = {
    "verify": "verify --trials 20 --seed 1 --out verify.csv",
    # analyze on a named preset, and on a preset given as channel JSON
    "analyze-preset": "analyze --preset amplitude_damping --param 0.3 --seed 9 --out analyze.json",
    "analyze-preset-file": "analyze --channel channel.json --seed 3 --out analyze.json",
    # the readout, ensemble and IC flags, each away from its default
    "analyze-flags": (
        "analyze --preset dephasing --param 0.2 --mixing hadamard --members 3 --ic-size 5"
        " --seed 4 --out analyze.json"
    ),
    # the oracle's Haar draw, on the closed-form qubit path and on the SVD path
    "optimize-oracle-qubit": (
        "optimize --preset amplitude_damping --param 0.5 --oracle 2000 --out optimize.json"
    ),
    "optimize-oracle-dim3": (
        "optimize --preset random --dim 3 --kraus 3 --oracle 2000 --out optimize.json"
    ),
    # more outcomes than Kraus operators on a channel far from unital: the
    # random-unitary verdict reads this search's mixing, with no second search
    "optimize-outcomes-dim3": (
        "optimize --preset random --dim 3 --kraus 3 --outcomes 4 --restarts 3 --out optimize.json"
    ),
    # the search's budget flags, each away from its default
    "optimize-flags": (
        "optimize --preset dephasing --param 0.2 --outcomes 3 --restarts 4 --iters 60"
        " --tol 1e-9 --seed 5 --out optimize.json"
    ),
    # restart 1 leaves W = I and finds the Hadamard mixing, and the polish
    # builds the witness from it
    "optimize-eraser": "optimize --preset eraser_cnot --out optimize.json",
    # W = I is a fixed point whose plain steps lower F by an ulp, so the search
    # ends at its best accepted point, the start
    "optimize-best-point": (
        "optimize --preset partial_teleportation --param 0.75 --seed 0 --restarts 1 --iters 11"
        " --out optimize.json"
    ),
    # the eraser curve: f_ea from the closed-form 2 x 2 trace norm, the joint
    # distributions and mutual informations from one kernel call each, over
    # one stack of every grid point's readout
    "scenario-eraser": "scenario --name eraser --out eraser.csv",
    # the teleport curve, 8 restarts at each of 21 grid points in one lockstep search
    "scenario-teleport": "scenario --name teleport --out teleport.csv",
    "scenario-eraser-stacked": "scenario --name eraser --grid 1001 --seed 2 --out eraser.csv",
    # 3 restarts at each of 7 grid points; the canonical column is each
    # search's first trace row
    "scenario-teleport-canonical": (
        "scenario --name teleport --grid 7 --restarts 3 --seed 2 --out teleport.csv"
    ),
    # 32 restarts, then the random-unitary polish and its witness
    "optimize-depolarizing": "optimize --preset depolarizing --out optimize.json",
}


def _out(argv) -> str:
    return argv[argv.index("--out") + 1]


def _write_channel(cwd) -> None:
    (cwd / "channel.json").write_text(
        json.dumps({"preset": "random", "params": {"dim": 3, "kraus": 2, "seed": [1, 2]}})
    )


def _run(argv, cwd) -> tuple[bytes, str]:
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONHASHSEED", None)
    done = subprocess.run(
        [sys.executable, "-m", "erasurekit.cli", *argv], cwd=cwd, env=env, check=True,
        capture_output=True, text=True,
    )
    return (cwd / _out(argv)).read_bytes(), done.stdout


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Output bytes and stdout of each case's first fresh-process run, run once per module."""
    runs = {}

    def run(case):
        if case not in runs:
            cwd = tmp_path_factory.mktemp(case)
            _write_channel(cwd)
            runs[case] = _run(CASES[case].split(), cwd)
        return runs[case]

    return run


@pytest.mark.parametrize("case", CASES)
def test_rerun_in_a_fresh_process_is_byte_identical(tmp_path, case, fresh):
    _write_channel(tmp_path)
    assert _run(CASES[case].split(), tmp_path) == fresh(case)


# requests that end before writing anything: a usage error, help, a typed error
BETWEEN = [
    (["analyze"], 1),
    (["--help"], 0),
    (["verify", "--trials", "2", "--seed", "-1", "--out", "never.csv"], 1),
]


def test_one_process_serving_many_requests_writes_fresh_process_bytes(
    tmp_path, monkeypatch, capsys, fresh
):
    monkeypatch.chdir(tmp_path)
    _write_channel(tmp_path)
    between = itertools.cycle(BETWEEN)
    for case, line in CASES.items():
        argv = line.split()
        extra, code = next(between)
        assert cli.main(extra) == code, extra
        capsys.readouterr()
        assert cli.main(argv) == 0, case
        assert ((tmp_path / _out(argv)).read_bytes(), capsys.readouterr().out) == fresh(case), case
    assert not (tmp_path / "never.csv").exists()


def _recorded(output: bytes) -> dict:
    """The configuration an output records: a JSON file's ``config``, a CSV's ``#`` line."""
    text = output.decode()
    if text.startswith("# "):
        return json.loads(text.splitlines()[0][2:])
    return json.loads(text)["config"]


def _rebuilt(config: dict) -> list[str]:
    """The command line that a recorded configuration names."""
    config = dict(config)
    argv = [config.pop("command")]
    del config["format"]
    channel = config.pop("channel", None)
    if channel is not None and "file" in channel:
        argv += ["--channel", channel["file"]]
    elif channel is not None:
        argv += ["--preset", channel["preset"]]
        for key, value in channel["params"].items():
            if key == "seed":  # set by --seed, which the config records itself
                assert value == config["seed"]
            else:
                argv += [f"--{key}" if key in ("dim", "kraus") else "--param", str(value)]
    ensemble = config.pop("ensemble", None)
    if ensemble is not None and "file" in ensemble:
        argv += ["--ensemble", ensemble["file"]]
    elif ensemble is not None:
        argv += ["--members", str(ensemble["random_members"])]
    if "dims" in config:
        config["dims"] = ",".join(map(str, config["dims"]))
    for key, value in config.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def test_the_recorded_configuration_rebuilds_the_run(tmp_path, monkeypatch, capsys, fresh):
    # each flag a case sets is recorded, and rerunning the recorded command
    # writes the same bytes; a flag left out of the record would rerun at its default
    monkeypatch.chdir(tmp_path)
    _write_channel(tmp_path)
    for case, line in CASES.items():
        argv = _rebuilt(_recorded(fresh(case)[0]))
        assert {a for a in line.split() if a.startswith("--")} <= set(argv), case
        assert cli.main(argv) == 0, case
        assert ((tmp_path / _out(argv)).read_bytes(), capsys.readouterr().out) == fresh(case), case


def test_the_installed_script_runs_the_module_entry_point():
    scripts = PYPROJECT.read_text().split("[project.scripts]\n")[1].split("\n[")[0]
    assert 'erasurekit = "erasurekit.cli:run"' in scripts.splitlines()
