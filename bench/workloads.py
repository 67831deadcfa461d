"""The benchmark's workloads: which CLI invocations make up one pass, and how
each invocation's outputs are checked.

A pass is a fixed list of invocations derived from the benchmark seed, so
every pass of one run repeats the same work and must write the same bytes.
The checks reuse the acceptance suite's tolerances and never loosen them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SLACK_FLOOR = -1e-9  # the chain floor the CLI and the acceptance suite use
# test_monotone_ascent's per-step tolerance, which is also the optimizer's
# RESTART_TIE_ATOL: values within it are ties, not decreases
MONOTONE_ATOL = 1e-12
FEA_CEILING = 1 + 1e-9
WITNESS_CHOI_TOL = 1e-6  # acceptance criterion 8
ORACLE_GAP = 1e-3  # acceptance criterion 8
CLOSED_FORM_TOL = 1e-10  # acceptance criteria 6 and 7

# A call's latency is its median over the passes of a run, so a short pass
# gives each call more samples. Optimize calls take about a second each;
# two per pass give each about a dozen samples in a 25 s run.
VERIFY_TRIALS = 100
VERIFY_CALLS = 5
OPTIMIZE_RESTARTS = 3
OPTIMIZE_CALLS = 2


@dataclass
class Call:
    """One CLI invocation: its argv, the file it writes, and its output check.

    ``check`` gets the captured stdout and the text of the written file and
    returns a list of problems; an empty list means the output is correct.
    ``work`` is how many units of the workload's throughput it performs.
    """

    argv: list[str]
    out: str
    check: Callable[[str, str], list[str]]
    work: int = 1


def derive_seed(workload: str, seed: int, index: int) -> int:
    """Per-invocation CLI seed, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


# ---------------------------------------------------------------- checks


def _json(text: str, problems: list[str]):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"unparsable JSON: {exc}")
        return None


def _csv_rows(text: str) -> tuple[list[str], list[dict]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    return list(reader.fieldnames or []), list(reader)


def check_verify(trials: int) -> Callable[[str, str], list[str]]:
    def check(stdout: str, text: str) -> list[str]:
        problems: list[str] = []
        summary = _json(stdout, problems)
        if summary is not None:
            if summary.get("pass") is not True:
                problems.append("verify summary does not pass")
            if not summary.get("worst_slack", -math.inf) >= SLACK_FLOOR:
                problems.append(f"summary worst_slack {summary.get('worst_slack')} below floor")
        columns, rows = _csv_rows(text)
        if len(rows) != trials:
            problems.append(f"{len(rows)} rows for {trials} trials")
        slack_columns = [c for c in columns if "slack" in c]
        for row in rows:
            for c in slack_columns:
                if not float(row[c]) >= SLACK_FLOOR:
                    problems.append(f"trial {row['trial']}: {c} = {row[c]} below floor")
        return problems

    return check


def _check_ascent(result: dict, problems: list[str]) -> None:
    last: dict[int, float] = {}
    for restart, _, value in result["trace"]:
        if restart in last and value < last[restart] - MONOTONE_ATOL:
            problems.append(f"restart {restart} trace decreases to {value}")
        last[restart] = value
    start = next(v for r, i, v in result["trace"] if r == 0 and i == 0)
    best = result["best_value"]
    if not start - MONOTONE_ATOL <= best <= FEA_CEILING:
        problems.append(f"best_value {best} below restart 0's start {start} or above {FEA_CEILING}")


def check_optimize(stdout: str, text: str) -> list[str]:
    problems: list[str] = []
    payload = _json(text, problems)
    if payload is not None:
        _check_ascent(payload["result"], problems)
    return problems


def check_oracle(stdout: str, text: str) -> list[str]:
    problems = check_optimize(stdout, text)
    result = json.loads(text)["result"]
    if not result["best_value"] >= result["oracle_value"] - ORACLE_GAP:
        problems.append(f"best {result['best_value']} below oracle {result['oracle_value']}")
    return problems


def _choi(kraus) -> np.ndarray:
    vecs = np.array([np.asarray(e).reshape(-1) for e in kraus])
    return vecs.T @ vecs.conj()


def _decode(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def check_depolarizing(stdout: str, text: str) -> list[str]:
    problems = check_optimize(stdout, text)
    verdict = json.loads(text)["random_unitary"]
    if verdict.get("is_random_unitary") is not True or "witness" not in verdict:
        return problems + ["depolarizing not detected as random unitary"]
    p = 0.5  # the CLI's default --param for depolarizing
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    channel = [np.sqrt(w) * s for w, s in zip(weights, paulis)]
    witness = [np.sqrt(item["weight"]) * _decode(item["unitary"]) for item in verdict["witness"]]
    distance = float(np.abs(np.linalg.eigvalsh(_choi(witness) - _choi(channel))).sum())
    if not distance < WITNESS_CHOI_TOL:
        problems.append(f"witness Choi distance {distance}")
    return problems


def check_analyze(stdout: str, text: str) -> list[str]:
    problems: list[str] = []
    payload = _json(text, problems)
    if payload is not None:
        for chain in ("direct", "converse"):
            for key, value in payload[chain].items():
                if key.startswith("slack_") and not value >= SLACK_FLOOR:
                    problems.append(f"{chain}.{key} = {value} below floor")
    return problems


def _check_curve(column: str, closed_form: Callable[[float], float]):
    def check(stdout: str, text: str) -> list[str]:
        columns, rows = _csv_rows(text)
        problems = [] if rows else ["no rows"]
        for row in rows:
            x = float(row[columns[0]])
            if not abs(float(row[column]) - closed_form(x)) < CLOSED_FORM_TOL:
                problems.append(f"{column} at {x} = {row[column]}, expected {closed_form(x)}")
        return problems

    return check


check_eraser = _check_curve("f_ea", lambda theta: (1 + abs(math.sin(2 * theta))) / 2)
check_teleport = _check_curve(
    "f_ea_canonical", lambda lam: (1 + 2 * math.sqrt(lam * (1 - lam))) / 2
)


def best_fea(call: Call, text: str) -> float | None:
    """The best F_ea an invocation reports, if it reports one."""
    if call.argv[0] == "optimize":
        return json.loads(text)["result"]["best_value"]
    if call.argv[0] == "verify":
        return max(float(row["f_ea"]) for row in _csv_rows(text)[1])
    return None


def converged_restarts(text: str) -> tuple[int, int]:
    """(restarts whose trace stops before --iters, restarts) of an optimize output."""
    payload = json.loads(text)
    iters = payload["config"]["iters"]
    last: dict[int, int] = {}
    for restart, iteration, _ in payload["result"]["trace"]:
        last[restart] = iteration
    return sum(1 for i in last.values() if i < iters), len(last)


# ---------------------------------------------------------------- workloads


def verify_sweep(seed: int, small: bool) -> list[Call]:
    trials, count = (3, 1) if small else (VERIFY_TRIALS, VERIFY_CALLS)
    calls = []
    for i in range(count):
        out = f"verify_{i}.csv"
        argv = ["verify", "--dims", "2,3", "--trials", str(trials)]
        argv += ["--seed", str(derive_seed("verify_sweep", seed, i)), "--out", out]
        calls.append(Call(argv, out, check_verify(trials), work=trials))
    return calls


def optimize_random(seed: int, small: bool) -> list[Call]:
    restarts, count = (3, 1) if small else (OPTIMIZE_RESTARTS, OPTIMIZE_CALLS)
    calls = []
    for i in range(count):
        out = f"optimize_{i}.json"
        argv = ["optimize", "--preset", "random", "--dim", "4", "--kraus", "16"]
        argv += ["--restarts", str(restarts)]
        if small:
            argv += ["--iters", "20"]
        argv += ["--seed", str(derive_seed("optimize_random", seed, i)), "--out", out]
        calls.append(Call(argv, out, check_optimize, work=restarts))
    return calls


PRESETS = (
    "identity",
    "dephasing",
    "depolarizing",
    "amplitude_damping",
    "eraser_cnot",
    "partial_teleportation",
    "random",
)
TWO_KRAUS_PRESETS = ("dephasing", "amplitude_damping", "eraser_cnot", "random")


def preset_suite(seed: int, small: bool) -> list[Call]:
    """Every one-shot request once; ``small`` changes nothing, this is its smallest size."""
    requests: list[tuple[list[str], Callable]] = []
    for name in PRESETS:
        requests.append((["analyze", "--preset", name], check_analyze))
    for name in TWO_KRAUS_PRESETS:
        requests.append((["analyze", "--preset", name, "--mixing", "hadamard"], check_analyze))
    requests += [
        (["optimize", "--preset", "amplitude_damping", "--param", "0.5", "--oracle", "20000"], check_oracle),
        (["optimize", "--preset", "depolarizing"], check_depolarizing),
        (["optimize", "--preset", "partial_teleportation", "--param", "0.3"], check_optimize),
        (["scenario", "--name", "eraser"], check_eraser),
        (["scenario", "--name", "teleport"], check_teleport),
    ]
    calls = []
    for i, (argv, check) in enumerate(requests):
        out = f"request_{i}.{'csv' if argv[0] == 'scenario' else 'json'}"
        argv = argv + ["--seed", str(derive_seed("preset_suite", seed, i)), "--out", out]
        calls.append(Call(argv, out, check))
    return calls


WORKLOADS = {
    "verify_sweep": (verify_sweep, "trials"),
    "optimize_random": (optimize_random, "restarts"),
    "preset_suite": (preset_suite, "requests"),
}
