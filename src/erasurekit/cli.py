"""Command-line front end: analyze, optimize, verify, and scenario sweeps.

Every output embeds the fully resolved run configuration (defaults and seeds
included), so re-running the same invocation reproduces files byte for byte.
Exit codes: 0 success, 1 input or usage error, 2 verification failure (some
inequality slack below -1e-9).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import numerics, optimizer
from .channels import PRESETS, KrausChannel, _check_entries, preset
from .erasure import SLACK_FLOOR, verify_converse, verify_direct
from .errors import ErasureKitError, ParamOutOfRange
from .optimizer import detect_random_unitary, optimize_erasure, sample_oracle
from .probes import (
    canonical_measurement,
    hadamard_measurement,
    random_ensemble,
    random_measurement,
)
from .scenarios import TELEPORT_RESTARTS, scenario_curve
from .serialize import (
    channel_from_dict,
    csv_line,
    density_from_dict,
    dumps_compact,
    dumps_stable,
    ensemble_from_dict,
    load_json,
    measurement_from_dict,
    result_to_dict,
    verdict_to_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

VERIFY_COLUMNS = (
    "trial,d,kraus,members,ic_members,f_e,f_ea,mutual_info,beta,gamma,"
    "slack_fidelity_trace,slack_measurement_l1,slack_pinsker,slack_total,"
    "slack_converse,entropy_lower_slack,entropy_upper_slack,worst_slack"
)
SLACK_COLUMNS = VERIFY_COLUMNS.split(",")[10:-1]  # every link; worst_slack is their minimum

# flags left out of the recorded configuration, since another key records
# their value: --preset, --param, --dim and --kraus under "channel", --members
# under "ensemble"; --trace-csv names a side file, not part of the run
_UNRECORDED = ("preset", "param", "dim", "kraus", "members", "trace_csv")


def _config(args, fmt: str, **resolved) -> dict:
    """The run's configuration: every parsed flag, each resolved value in place of its flag."""
    flags = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    return {**flags, "format": fmt, **resolved}


def _write_csv(path: str, header: dict | None, columns, rows) -> None:
    """A CSV file; ``header``, when given, is written first as a ``#`` comment line.

    The trace CSV has none: it is a side file of an optimize JSON, whose
    ``config`` records the run.
    """
    lines = [] if header is None else ["# " + dumps_compact(header)]
    lines += [",".join(columns), *map(csv_line, rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _add_channel_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--channel", metavar="FILE", help="channel JSON file")
    group.add_argument("--preset", choices=sorted(PRESETS), help="named channel construction")
    sub.add_argument("--param", type=float, default=None, help="the preset's [0, 1] parameter")
    sub.add_argument("--dim", type=int, default=None, help="the preset's dimension")
    sub.add_argument("--kraus", type=int, default=None, help="the preset's Kraus count")


def _resolve_channel(args) -> tuple[KrausChannel, dict]:
    # --dim, --kraus and --seed set the preset parameter of their name, and
    # --param the preset's one [0, 1] parameter; the rest keep their defaults
    defaults = PRESETS[args.preset][0] if args.preset else {}
    flags = {k: k if k in ("dim", "kraus", "seed") else "param" for k in defaults}
    for flag in ("dim", "kraus", "param"):
        if getattr(args, flag) is not None and flag not in flags.values():
            source = f"preset {args.preset!r}" if args.preset else "a --channel file"
            raise ParamOutOfRange(f"{source} takes no --{flag}")
    if args.channel:
        channel = channel_from_dict(load_json(args.channel))
        spec = {"file": args.channel}
    else:
        given = {k: getattr(args, flag) for k, flag in flags.items()}
        params = {k: v if given[k] is None else given[k] for k, v in defaults.items()}
        channel = preset(args.preset, **params)
        spec = {"preset": args.preset, "params": params}
    return channel, spec


def _resolve_state(args, dim: int) -> np.ndarray:
    if args.state == "mixed":
        return np.eye(dim, dtype=complex) / dim
    return numerics.ensure_density(density_from_dict(load_json(args.state)))


def _resolve_mixing(args, kraus_count: int):
    if args.mixing == "identity":
        return canonical_measurement(kraus_count)
    if args.mixing == "hadamard":
        return hadamard_measurement()
    return measurement_from_dict(load_json(args.mixing))


def cmd_analyze(args) -> int:
    if args.ic_size < 0:
        raise ParamOutOfRange(f"--ic-size must be >= 0 (0 = dim^2), got {args.ic_size}")
    if args.ensemble and args.members is not None:
        raise ParamOutOfRange("an --ensemble file takes no --members")
    channel, channel_spec = _resolve_channel(args)
    rho = _resolve_state(args, channel.dim)
    meas = _resolve_mixing(args, channel.kraus_count)
    if args.ensemble:
        ens = ensemble_from_dict(load_json(args.ensemble))
        ensemble_spec: dict | str = {"file": args.ensemble}
    else:
        members = 4 if args.members is None else args.members
        ens = random_ensemble(rho, members, np.random.default_rng([args.seed, 1]))
        ensemble_spec = {"random_members": members}
    ic_size = args.ic_size if args.ic_size > 0 else channel.dim**2

    direct = verify_direct(channel, rho, ens, meas)
    converse = verify_converse(
        channel, rho, meas, members=ic_size, seed=np.random.default_rng([args.seed, 2])
    )
    config = _config(args, "json", channel=channel_spec, ensemble=ensemble_spec, ic_size=ic_size)
    payload = {"config": config, "direct": direct.to_dict(), "converse": converse.to_dict()}
    Path(args.out).write_text(dumps_stable(payload), encoding="utf-8")
    worst = min(direct.worst_slack(), converse.worst_slack())
    print(f"wrote {args.out} (worst slack {worst:.3e})")
    return EXIT_OK if worst >= SLACK_FLOOR else EXIT_VERIFICATION


def cmd_scenario(args) -> int:
    columns, rows = scenario_curve(args.name, args.grid, args.seed, args.restarts)
    # one row per grid point, so the row count resolves the default grid
    _write_csv(args.out, _config(args, "csv", grid=len(rows)), columns, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _trial_sizes(trial: int, d: int) -> tuple[int, int, int]:
    """A verify trial's Kraus count, ensemble size and IC ensemble size in dimension d."""
    return 2 + trial % (d * d - 1), 2 + trial % 5, d * d + trial % 5


def _verify_trial(master_seed: int, trial: int, dims: list[int]) -> dict:
    d = dims[trial % len(dims)]
    kraus_count, members, ic_members = _trial_sizes(trial, d)
    channel = preset("random", dim=d, kraus=kraus_count, seed=[master_seed, trial, 0])
    rho = numerics.random_density(d, [master_seed, trial, 1])
    ens = random_ensemble(rho, members, [master_seed, trial, 2])
    meas = random_measurement(kraus_count, kraus_count, [master_seed, trial, 3])
    direct = verify_direct(channel, rho, ens, meas)
    converse = verify_converse(
        channel, rho, meas, members=ic_members, seed=np.random.default_rng([master_seed, trial, 4])
    )
    rng = np.random.default_rng([master_seed, trial, 5])
    length = 2 + trial % 15
    s = rng.random(length) + 1e-3
    s = (1 - length * 1e-4) * (s / s.sum()) + 1e-4
    r = rng.random(length)
    bounds = numerics.verify_entropy_bounds(r / r.sum(), s)

    row = {
        "trial": trial,
        "d": d,
        "kraus": kraus_count,
        "members": members,
        "ic_members": ic_members,
        "f_e": direct.f_e,
        "f_ea": direct.f_ea,
        "mutual_info": direct.mutual_info,
        "beta": direct.beta,
        "gamma": converse.gamma,
        **{k: min(v, getattr(converse, k)) for k, v in direct.slacks().items()},
        "slack_converse": converse.slack_converse,
        "entropy_lower_slack": bounds.lower_slack,
        "entropy_upper_slack": bounds.upper_slack,
    }
    row["worst_slack"] = min(row[c] for c in SLACK_COLUMNS)
    return row


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ParamOutOfRange(f"--trials must be >= 1, got {args.trials}")
    try:
        dims = sorted({int(d) for d in args.dims.split(",") if d.strip()})
    except ValueError:
        dims = []
    if not dims or any(d < 2 for d in dims):
        raise ParamOutOfRange(f"--dims needs integers >= 2, got {args.dims!r}")
    # a trial's largest array is its IC ensemble (K <= d^2 <= ic), whose size has period 5
    for i, d in enumerate(dims[: args.trials]):
        ic = max(_trial_sizes(t, d)[2] for t in range(i, args.trials, len(dims))[:5])
        _check_entries(ic * d * d, f"ic_ensemble(members={ic}) in dimension {d}")
    rows = [_verify_trial(args.seed, t, dims) for t in range(args.trials)]

    config = _config(args, "csv", dims=dims)
    columns = VERIFY_COLUMNS.split(",")
    _write_csv(args.out, config, columns, ([row[c] for c in columns] for row in rows))

    summary = {
        "config": config,
        "trials": args.trials,
        "worst_slack_per_link": {c: min(row[c] for row in rows) for c in SLACK_COLUMNS},
        "worst_slack": min(row["worst_slack"] for row in rows),
    }
    summary["pass"] = summary["worst_slack"] >= SLACK_FLOOR
    sys.stdout.write(dumps_stable(summary))
    return EXIT_OK if summary["pass"] else EXIT_VERIFICATION


def cmd_optimize(args) -> int:
    if args.outcomes < 0:
        raise ParamOutOfRange(f"--outcomes must be >= 0 (0 = Kraus count), got {args.outcomes}")
    if args.oracle < 0:
        raise ParamOutOfRange(f"--oracle must be >= 0 (0 = off), got {args.oracle}")
    channel, channel_spec = _resolve_channel(args)
    rho = _resolve_state(args, channel.dim)
    outcomes = args.outcomes if args.outcomes > 0 else channel.kraus_count
    result = optimize_erasure(
        channel,
        rho,
        outcomes,
        restarts=args.restarts,
        max_iters=args.iters,
        tol=args.tol,
        seed=args.seed,
    )
    verdict = detect_random_unitary(
        channel, restarts=args.restarts, seed=args.seed, result=result
    )
    payload = {
        "config": _config(args, "json", channel=channel_spec, outcomes=outcomes),
        "result": result_to_dict(result),
        "random_unitary": verdict_to_dict(verdict),
    }
    # drawn after the search, so every refusal comes before it; 0 means no oracle
    if args.oracle:
        payload["result"]["oracle_value"] = sample_oracle(channel, rho, args.oracle, args.seed)
    Path(args.out).write_text(dumps_stable(payload), encoding="utf-8")
    if args.trace_csv:
        _write_csv(args.trace_csv, None, ("restart", "iteration", "value"), result.trace)
    print(
        f"wrote {args.out} (best value {result.best_value:.12f}, "
        f"random unitary: {verdict.is_random_unitary})"
    )
    if not result.converged:
        print(
            f"warning: the best restart did not converge within --iters {args.iters} "
            f"at --tol {args.tol:g}; raise --iters or loosen --tol",
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erasurekit",
        description="Channel correction via quantum erasure: analyses, sweeps, and searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full inequality report for one configuration")
    _add_channel_source(analyze)
    analyze.add_argument("--state", default="mixed", help='"mixed" or a state JSON file')
    analyze.add_argument(
        "--mixing", default="identity", help='"identity", "hadamard", or a measurement JSON file'
    )
    analyze.add_argument("--ensemble", default=None, help="ensemble JSON file")
    analyze.add_argument("--members", type=int, help="random ensemble size (default 4)")
    analyze.add_argument("--ic-size", type=int, default=0, help="IC ensemble size (0 = dim^2)")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--out", default="analyze.json")

    optimize = sub.add_parser("optimize", help="search for the best erasure measurement")
    _add_channel_source(optimize)
    optimize.add_argument("--state", default="mixed", help='"mixed" or a state JSON file')
    optimize.add_argument("--outcomes", type=int, default=0, help="0 = Kraus count")
    optimize.add_argument("--restarts", type=int, default=optimizer.DEFAULT_RESTARTS)
    optimize.add_argument(
        "--iters", type=int, default=optimizer.DEFAULT_MAX_ITERS, help="MM evaluations per restart"
    )
    optimize.add_argument("--tol", type=float, default=optimizer.DEFAULT_TOL)
    optimize.add_argument("--oracle", type=int, default=0, help="Haar samples for the oracle (0 = off)")
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument("--out", default="optimize.json")
    optimize.add_argument("--trace-csv", default=None, help="also stream the iteration trace")

    verify = sub.add_parser("verify", help="randomized verification sweep")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--dims", default="2,3", help="comma-separated dimensions")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default="verify.csv")

    scenario = sub.add_parser("scenario", help="closed-form sweep curves as CSV")
    scenario.add_argument("--name", choices=["eraser", "teleport"], required=True)
    scenario.add_argument("--grid", type=int, default=None, help="grid points (>= 2)")
    scenario.add_argument(
        "--restarts", type=int, default=TELEPORT_RESTARTS, help="teleport optimized column"
    )
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--out", default="scenario.csv")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and kept: it holds no handler, so
    # replacing a cmd_* function of this module still reaches main
    return build_parser()


def main(argv=None) -> int:
    """Run one request; may be called any number of times in one process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    try:
        if args.seed < 0:
            raise ParamOutOfRange(f"--seed must be >= 0, got {args.seed}")
        return globals()[f"cmd_{args.command}"](args)
    except ErasureKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
