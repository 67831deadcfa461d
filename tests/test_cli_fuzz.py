"""Fuzzed requests through ``cli.main``, all in one process.

Flag values and JSON payloads are drawn by hypothesis. Every argv parses, so
each outcome comes from the package: exit 0, 1 or 2, exactly one
``error: <Type>: ...`` line on stderr when it exits 1, and never an
exception out of ``main``. Most of those requests stop at the input checks,
so a second property draws only valid ``optimize`` requests, which all reach
the search and about a fifth of which reach its S3 trials: each exits 0 with
an ascent trace that never falls. Sizes stay small, so no request is slow.
"""

import json
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from erasurekit import cli, preset
from erasurekit.channels import PRESETS

ERROR_LINE = re.compile(r"error: [A-Za-z]+: .+")

# each strategy draws a valid value about half the time
SMALL_INTS = st.integers(1, 4) | st.integers(-3, 6)
SEEDS = st.integers(0, 5) | st.integers(-2, -1)
FLOATS = st.floats(0, 1) | st.floats(allow_nan=True, allow_infinity=True)
NUMBERS = SMALL_INTS | FLOATS | st.sampled_from([10**30, 2**63, True])
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
PAIR = st.lists(NUMBERS, min_size=2, max_size=2) | JSON


def matrices(side=st.integers(1, 3)):
    return side.flatmap(
        lambda n: st.lists(st.lists(PAIR, min_size=n, max_size=n), min_size=n, max_size=n)
    ) | JSON


CHANNELS = (
    st.fixed_dictionaries(
        {
            "preset": st.sampled_from(sorted(PRESETS)) | st.text(max_size=4),
            "params": st.dictionaries(
                st.sampled_from(["p", "gamma", "lam0", "dim", "kraus", "seed", "x"]),
                NUMBERS | st.lists(SMALL_INTS, max_size=2) | JSON,
                max_size=3,
            ),
        }
    )
    | st.fixed_dictionaries({"kraus": st.lists(matrices(), max_size=3)}, optional={"dim": NUMBERS})
    | JSON
)
STATES = st.fixed_dictionaries({"matrix": matrices()}) | JSON
ENSEMBLES = st.fixed_dictionaries({"members": st.lists(matrices(), max_size=3)}) | JSON
MIXINGS = st.fixed_dictionaries({"mixing": matrices(st.integers(1, 4))}) | JSON


def _given(draw) -> bool:
    return draw(st.integers(0, 3)) == 0  # one time in four


def _flags(draw, names, values):
    return [f"--{name}={draw(values)}" for name in names if _given(draw)]


def _file(draw, files, name, payloads):
    files[name] = draw(payloads)
    return name


@st.composite
def requests(draw):
    """An argv and the files it reads, as {name: payload}."""
    command = draw(st.sampled_from(["analyze", "optimize", "scenario", "verify"]))
    files = {}
    argv = [command]
    if command in ("analyze", "optimize"):
        if draw(st.booleans()):
            argv.append(f"--preset={draw(st.sampled_from(sorted(PRESETS)))}")
        else:
            argv.append(f"--channel={_file(draw, files, 'channel.json', CHANNELS)}")
        argv += _flags(draw, ["param"], FLOATS)
        argv += _flags(draw, ["dim", "kraus"], SMALL_INTS)
        if _given(draw):
            argv.append(f"--state={_file(draw, files, 'state.json', STATES)}")
    if command == "analyze":
        argv += _flags(draw, ["members", "ic-size"], SMALL_INTS)
        if _given(draw):
            argv.append(f"--ensemble={_file(draw, files, 'ensemble.json', ENSEMBLES)}")
        mixing = draw(st.sampled_from(["identity", "hadamard", "file"]))
        if mixing == "file":
            mixing = _file(draw, files, "mixing.json", MIXINGS)
        argv.append(f"--mixing={mixing}")
    if command == "optimize":
        # the budget flags are always given, so a search stays short
        argv.append(f"--restarts={draw(st.integers(1, 3) | st.integers(-1, 0))}")
        argv.append(f"--iters={draw(st.integers(0, 20) | st.just(-1))}")
        argv += _flags(draw, ["outcomes"], SMALL_INTS)
        argv += _flags(draw, ["oracle"], st.integers(0, 200) | st.integers(-2, -1))
        argv += _flags(draw, ["tol"], st.floats(0, 1e-6) | FLOATS)
    if command == "scenario":
        name = draw(st.sampled_from(["eraser", "teleport"]))
        argv += [f"--name={name}", f"--grid={draw(st.integers(-1, 40 if name == 'eraser' else 4))}"]
        argv.append(f"--restarts={draw(st.integers(1, 2) | st.integers(-1, 0))}")
    if command == "verify":
        argv.append(f"--trials={draw(st.integers(1, 3) | st.integers(-1, 0))}")
        dims = st.sampled_from(["2,3", "2", "3,4", "", "1", "x", "2,-3", " 2 , 5"]) | st.text(max_size=4)
        argv += _flags(draw, ["dims"], dims)
    argv += _flags(draw, ["seed"], SEEDS)
    argv.append("--out=out")
    return argv, files


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(request=requests())
def test_every_request_exits_cleanly_with_one_error_line_on_exit_1(
    request, tmp_path, monkeypatch, capsys
):
    argv, files = request
    monkeypatch.chdir(tmp_path)
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1 and ERROR_LINE.fullmatch(err.strip()), (argv, err)


# in-range values for each preset parameter the CLI sets: --param for the
# [0, 1] ones, --dim and --kraus for the sizes (kept small), --seed for seed
PARAMS = {
    "p": st.floats(0, 1),
    "gamma": st.floats(0, 1),
    "lam0": st.floats(0, 1),
    "dim": st.integers(2, 3),
    "kraus": st.integers(2, 5),
    "seed": st.integers(0, 5),
}
FLAGS = {"p": "param", "gamma": "param", "lam0": "param", "dim": "dim", "kraus": "kraus"}


@st.composite
def optimize_requests(draw):
    """A valid optimize argv, with budgets that may run past the warmup into S3 trials."""
    # qubit presets settle in a step or two, so half the draws take the
    # random preset, whose searches run past the warmup into S3 trials
    name = draw(st.sampled_from(sorted(PRESETS)) | st.just("random"))
    params = {k: draw(PARAMS[k]) for k in PRESETS[name][0]}
    argv = ["optimize", f"--preset={name}"]
    argv += [f"--{FLAGS[k]}={v!r}" for k, v in params.items() if k in FLAGS]
    argv.append(f"--seed={params.get('seed', draw(PARAMS['seed']))}")
    kk = preset(name, **params).kraus_count
    argv.append(f"--outcomes={draw(st.sampled_from([0, kk, kk + 1, kk + 2]))}")
    argv.append(f"--restarts={draw(st.integers(1, 3))}")
    argv.append(f"--iters={draw(st.integers(11, 20))}")
    if draw(st.booleans()):
        argv.append("--tol=0")  # stops at the first step that gains nothing
    if draw(st.booleans()):
        argv.append(f"--oracle={draw(st.integers(1, 200))}")
    return argv + ["--out=out.json"]


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=optimize_requests())
def test_valid_optimize_requests_search_and_never_descend(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    result = json.loads((tmp_path / "out.json").read_text())["result"]
    last = {}
    for restart, evaluation, value in result["trace"]:
        if restart in last:
            assert value >= last[restart] - 1e-12, (argv, restart, evaluation)
        last[restart] = value
    # plain steps are accepted unconditionally, so at a fixed point rounding
    # may lower a trace row by an ulp or so; but every ascent ends at its best
    # accepted point, so W = I's value bounds the best exactly
    first = result["trace"][0]
    assert first[:2] == [0, 0]
    assert result["best_value"] >= first[2], argv
