"""erasurekit benchmark: drives ``erasurekit.cli.main(argv)`` in-process.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client runs a closed loop: it sends the next CLI invocation only after
the previous one returns. A run is one untimed first pass, whose outputs are
checked and whose sha256 digests become the reference, then timed passes
until ``--seconds`` have elapsed; every later pass must reproduce the first
pass's bytes. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics of the
package's modules, recorded by wrapping their public functions at run time.
Every timing is divided by the host slowdown that the probe in ``speed.py``
saw in the same pass, so it reads as a time at one reference host speed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with the environment and every
output digest, goes to ``bench/results/``. Outputs are written to a
temporary directory under ``bench/.work/`` that is removed at exit.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; the package's own pool stays off.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(PINNED_ENV)
    os.environ.pop("ERASUREKIT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

SETUP_RUNS = 11
SETUP_CODE = (
    "import erasurekit.cli as cli\n"
    "cli.build_parser()\n"
    "cli.main(['analyze', '--preset', 'identity', '--out', 'setup.json'])\n"
)

# Metric names and units come from the manifest; run.py computes each by name.
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {kind: {m["name"]: m["unit"] for m in MANIFEST[kind]} for kind in ("end_to_end", "per_layer")}


@dataclass
class Outcome:
    seconds: float
    error: str
    stdout: str
    output: str
    digests: dict
    probe_units: int = 0
    probe_s: float = 0.0


def normalized(outcomes: list[Outcome]) -> list[float]:
    """Invocation seconds at the reference host speed, by the pass's probe."""
    factor = speed.slowdown(sum(o.probe_units for o in outcomes), sum(o.probe_s for o in outcomes))
    return [o.seconds / factor for o in outcomes]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def invoke(cli, call) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()}"
    except Exception:  # a crash is a counted failure; the run goes on
        error = traceback.format_exc(limit=3)
    seconds = perf_counter() - start
    stdout = out.getvalue()
    try:
        data = Path(call.out).read_bytes()
    except OSError as exc:
        error, data = error or f"missing output: {exc}", b""
    digests = {"stdout": sha256(stdout.encode()), call.out: sha256(data)}
    return Outcome(seconds, error, stdout, data.decode(), digests)


class Runner:
    """Runs passes over a fixed call list and tallies attempts and failures."""

    def __init__(self, cli, calls, probe, tracer=None):
        self.cli, self.calls, self.probe, self.tracer = cli, calls, probe, tracer
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first: list[Outcome] = []
        self.check_problems: list[list[str]] = []

    def _fail(self, index: int, problems: list[str]) -> None:
        self.failed += 1
        message = f"call {index} {' '.join(self.calls[index].argv)}: {'; '.join(problems)}"
        if len(self.errors) < 20 and message not in self.errors:
            self.errors.append(message)

    def run_pass(self) -> list[Outcome]:
        # Free the last pass's reference cycles, untimed: left to the cyclic
        # collector they pile up over a few passes, so peak RSS would depend
        # on how many passes fit in the run.
        gc.collect()
        outcomes = []
        for index, call in enumerate(self.calls):
            if self.tracer is not None:
                self.tracer.request = self.attempted
            outcome = invoke(self.cli, call)
            outcome.probe_units, outcome.probe_s = self.probe.sample(outcome.seconds)
            self.attempted += 1
            problems = [outcome.error] if outcome.error else []
            if len(self.first) == len(self.calls):
                if outcome.digests != self.first[index].digests:
                    problems.append("output differs from the first pass")
                problems += self.check_problems[index]
                # a later pass is kept for its timing only: holding its text
                # would make peak RSS grow with the number of passes run
                outcome.stdout = outcome.output = ""
                outcome.digests = {}
            else:
                if not outcome.error:
                    try:
                        problems += call.check(outcome.stdout, outcome.output)
                    except Exception as exc:  # malformed output is a failed check
                        problems.append(f"check raised {type(exc).__name__}: {exc}")
                self.first.append(outcome)
                self.check_problems.append(problems)
            if problems:
                self._fail(index, problems)
            outcomes.append(outcome)
        return outcomes


def measure_setup(workdir: Path, runs: int, probe) -> float:
    """Median seconds, at the reference speed, for a fresh interpreter to set up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=workdir, env=env, check=True, stdout=subprocess.DEVNULL
        )
        seconds = perf_counter() - start
        times.append(seconds / speed.slowdown(*probe.sample(seconds)))
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "ERASUREKIT_THREADS": os.environ.get("ERASUREKIT_THREADS"),
        "clients": 1,
        "processes": 1,
    }


def end_to_end(runner: Runner, passes: list[list[Outcome]], setup_s: float, unit_name: str) -> tuple[dict, dict]:
    seconds = [normalized(outcomes) for outcomes in passes]
    # total work over total busy time: a mean, which moves smoothly with the
    # share of time the shared host is contended, where a median would jump
    busy = sum(sum(s) for s in seconds)
    work = len(passes) * sum(call.work for call in runner.calls)
    # Each invocation's latency is its median over the timed passes: the
    # host's speed wanders within a second, and percentiles of single
    # samples would follow that noise rather than the package.
    latencies = sorted(statistics.median(s[i] for s in seconds) * 1e3 for i in range(len(runner.calls)))
    raw_busy = sum(o.seconds for outcomes in passes for o in outcomes)
    good = [(c, o) for c, o, problems in zip(runner.calls, runner.first, runner.check_problems) if not problems]
    feas = [f for f in (workloads.best_fea(c, o.output) for c, o in good) if f is not None]
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": work / busy,
        "request_ms_p50": statistics.median(latencies),
        "request_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8]
        if len(latencies) > 1
        else latencies[0],
        "best_fea": statistics.fmean(feas) if feas else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bytes": sum(len(o.stdout.encode()) + len(o.output.encode()) for o in runner.first),
    }
    extra = {
        f"{unit_name}_per_s": metrics["throughput_per_s"],
        f"raw_{unit_name}_per_s": work / raw_busy,
        "mean_slowdown": raw_busy / busy,
        "fail_ratio": runner.failed / runner.attempted,
        "latency_samples": len(passes) * len(runner.calls),
        "invocations_beyond_p90": sum(1 for x in latencies if x > metrics["request_ms_p90"]),
        "timed_passes": len(passes),
    }
    if unit_name == "restarts" and good:
        counts = [workloads.converged_restarts(o.output) for _, o in good]
        extra["converged_ratio"] = sum(a for a, _ in counts) / sum(b for _, b in counts)
    return metrics, extra


def per_layer(
    names, summaries: list[dict], untraced_s: list[float], traced_s: list[float], trials: int, traced: set[str]
) -> tuple[dict, list[str]]:
    """Each named metric: ``<module or function>.<figure>``, or one of the derived figures below."""
    first = summaries[0]
    problems = []
    if any(s["calls"] != first["calls"] or s["counts"] != first["counts"] for s in summaries[1:]):
        problems.append("traced call counts differ between identical passes")

    def calls(name: str) -> float:
        return first["calls"].get(name, 0)

    def self_ms(name: str) -> float:
        return statistics.median(s["self_ms"].get(name, 0.0) for s in summaries)

    def per_trial(value: float) -> float:
        return value / trials if trials else 0.0

    figures = {
        "calls": calls,
        "self_ms": self_ms,
        "calls_per_trial": lambda n: per_trial(calls(n)),
        "self_ms_per_trial": lambda n: per_trial(self_ms(n)),
    }
    counts = first["counts"]
    steps = counts.get("ascent_steps", 0)
    oracle_ms = self_ms("optimizer.sample_oracle")
    derived = {
        "serialize.bytes": counts.get("serialize_bytes", 0),
        "optimizer.ascent_steps": steps,
        "optimizer.ms_per_step": self_ms("optimizer.optimize_erasure") / steps if steps else 0.0,
        "optimizer.oracle_samples_per_s": counts.get("oracle_samples", 0) / (oracle_ms / 1e3) if oracle_ms else 0.0,
        "trace_overhead_ratio": statistics.median(traced_s) / statistics.median(untraced_s),
    }

    def value(name: str) -> float:
        if name in derived:
            return derived[name]
        function, figure = name.rsplit(".", 1)
        if function not in traced or figure not in figures:
            raise KeyError(f"per-layer metric {name!r}: no traced module or function {function!r} with {figure!r}")
        return figures[figure](function)

    return {name: value(name) for name in names}, problems


def collect(workload: str, seed: int, seconds: float, trace: bool, *, small: bool = False) -> dict:
    """Run one workload and return its result record (see the module docstring)."""
    import erasurekit.cli as cli

    build, unit_name = workloads.WORKLOADS[workload]
    calls = build(seed, small)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    previous = Path.cwd()
    tracer = tracing.Tracer() if trace else None
    probe = speed.SpeedProbe()
    try:
        os.chdir(workdir)  # relative --out paths keep outputs byte-identical across runs
        setup_s = None if trace else measure_setup(workdir, 1 if small else SETUP_RUNS, probe)
        runner = Runner(cli, calls, probe, tracer)
        runner.run_pass()
        passes, summaries, untraced_s, traced_s, spans_written = [], [], [], [], False
        deadline = perf_counter() + seconds
        while True:
            outcomes = runner.run_pass()
            passes.append(outcomes)
            if trace:
                untraced_s.append(sum(normalized(outcomes)))
                tracer.reset()
                tracer.install()
                try:
                    traced = runner.run_pass()
                finally:
                    tracer.uninstall()
                traced_s.append(sum(normalized(traced)))
                summary = tracer.summary()
                factor = traced_s[-1] / sum(o.seconds for o in traced)
                summary["self_ms"] = {k: v * factor for k, v in summary["self_ms"].items()}
                summaries.append(summary)
                if not spans_written and not small:
                    RESULTS.mkdir(exist_ok=True)
                    tracer.write_spans(RESULTS / f"{workload}-seed{seed}-spans.csv.gz")
                    spans_written = True
            if perf_counter() >= deadline:
                break
    finally:
        os.chdir(previous)
        shutil.rmtree(workdir, ignore_errors=True)

    errors = list(runner.errors)
    if trace:
        trials = sum(c.work for c in calls) if unit_name == "trials" else 0
        units = UNITS["per_layer"]
        metrics, problems = per_layer(units, summaries, untraced_s, traced_s, trials, tracer.names)
        errors += problems
        extra = {"traced_passes": len(summaries)}
    else:
        metrics, extra = end_to_end(runner, passes, setup_s, unit_name)
        units = UNITS["end_to_end"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": runner.failed == 0 and not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "extra": extra,
        "errors": errors,
        "environment": environment(),
        "calls": [{"argv": c.argv, "sha256": o.digests} for c, o in zip(calls, runner.first)],
    }


def report(record: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name:16s} {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in record["extra"].items():
        print(f"{name:16s} {key:44s} {value:>16.6g}")
    for error in record["errors"]:
        print(f"{name:16s} FAILED {error}")


def run_all(args) -> int:
    """Each workload in a fresh child process, so peak RSS is per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    record = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def load_package() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other erasurekit."""
    package = SRC / "erasurekit" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import erasurekit

    if Path(erasurekit.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported {erasurekit.__file__}, expected {package}")


if __name__ == "__main__":
    load_package()
    sys.exit(main())
