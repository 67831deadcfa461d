"""Reruns in fresh interpreters write the same bytes.

Each case is one CI rerun-and-cmp step at a small size: the command runs
twice, each time as its own ``python -m erasurekit.cli`` process with its
own hash seed, and both runs write the same path, since the path is part of
the recorded configuration.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import erasurekit

SRC = str(Path(erasurekit.__file__).resolve().parent.parent)

CASES = {
    "verify": ["verify", "--trials", "6", "--seed", "1", "--out", "verify.csv"],
    "optimize-oracle-qubit": [
        "optimize", "--preset", "amplitude_damping", "--param", "0.5", "--oracle", "500",
        "--restarts", "4", "--out", "optimize.json",
    ],
    "optimize-oracle-dim3": [
        "optimize", "--preset", "random", "--dim", "3", "--kraus", "3", "--oracle", "500",
        "--restarts", "4", "--out", "optimize.json",
    ],
    "scenario-eraser": ["scenario", "--name", "eraser", "--grid", "9", "--out", "eraser.csv"],
    "scenario-teleport": [
        "scenario", "--name", "teleport", "--grid", "3", "--restarts", "2",
        "--out", "teleport.csv",
    ],
    "optimize-depolarizing": [
        "optimize", "--preset", "depolarizing", "--restarts", "4", "--out", "optimize.json",
    ],
    "analyze-preset": [
        "analyze", "--preset", "amplitude_damping", "--param", "0.3", "--seed", "9",
        "--out", "analyze.json",
    ],
    "analyze-preset-file": [
        "analyze", "--channel", "channel.json", "--seed", "3", "--out", "analyze.json",
    ],
}


def _run(argv, cwd) -> bytes:
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONHASHSEED", None)
    subprocess.run(
        [sys.executable, "-m", "erasurekit.cli", *argv], cwd=cwd, env=env, check=True,
        capture_output=True,
    )
    return (cwd / argv[argv.index("--out") + 1]).read_bytes()


@pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
def test_rerun_in_a_fresh_process_is_byte_identical(tmp_path, argv):
    (tmp_path / "channel.json").write_text(
        json.dumps({"preset": "random", "params": {"dim": 3, "kraus": 2, "seed": [1, 2]}})
    )
    assert _run(argv, tmp_path) == _run(argv, tmp_path)
