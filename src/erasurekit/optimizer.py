"""Search for the erasure measurement maximizing the assisted fidelity, and
numerical detection of random-unitary decompositions (perfect erasure).

The objective F(W) = sum_j (Tr|E'_j rho|)^2 over mixing isometries W is
maximized by minorize-maximize ascent. At the current W the trace norms are
written variationally, Tr|A| = max_V Re Tr[V^dag A] over unitaries, and the
square is bounded below by its tangent, t^2 >= 2 t0 t - t0^2. Both touch at
the current point, so the resulting linear surrogate minorizes F there, and
its exact maximizer over isometries is the (conjugated) polar factor of the
m x K coefficient matrix G[j, k] = t_j Tr[V_j^dag E_k rho]. Each step is
therefore nondecreasing in F.

Each step makes exactly one SVD of the branches E'_j rho. Its singular values
give the value F(W) = sum_j (sum of singular values)^2 and its polar factors
V_j build the next G, so F is never evaluated apart from the step.

Plain MM converges only linearly, so the ascent is accelerated by guarded
SQUAREM extrapolation (scheme S3 of Varadhan & Roland, Scand. J. Stat. 35,
335 (2008); MM background in Hunter & Lange, Am. Stat. 58, 30 (2004)). The
first WARMUP steps are plain MM steps. After them, every two plain steps
w0 -> w1 -> w2 are followed by one S3 step: with r = w1 - w0,
v = w2 - w1 - r and alpha = min(-|r|/|v|, -1), the extrapolated mixing is
the polar factor of w0 - 2 alpha r + alpha^2 v, and its value is read from
the first branch SVD of the kernel started there. The ascent continues from
the extrapolated mixing only if its value beats F(w2); otherwise it resumes
the plain steps at w2, so every accepted value is nondecreasing. When
alpha = -1 the S3 point is w2 itself and nothing is evaluated. Iteration
budgets and trace indices count branch-SVD evaluations, so a trace index
skips a number where an extrapolation was rejected.

The ascent in ``optimize_erasure`` and the polish in ``detect_random_unitary``
walk the same accelerated loop and differ only in their stop rules. The
do-nothing mixing W = I is always restart 0, a deterministically perturbed
identity is restart 1 (the exact identity can sit on an unstable fixed point
of the ascent map), and the remaining restarts are seeded Haar isometries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .channels import KrausChannel, _check_entries, _check_state, kraus_channel, validate
from .errors import BadOutcomeCount, ParamOutOfRange
from .probes import (
    OUTCOME_FLOOR,
    ProbeMeasurement,
    joint_distribution,
    mutual_information,
    probe_measurement,
    random_ensemble,
)

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITERS = 500
DEFAULT_TOL = 1e-12

# Restarts whose final values agree within this band count as tied, and ties
# go to the lowest restart index; exact float comparison would let ULP noise
# pick an arbitrary member of a degenerate optimum set.
RESTART_TIE_ATOL = 1e-12

# Plain MM steps before the first extrapolation; an ascent that stops within
# them takes exactly the plain MM trajectory.
WARMUP = 10

# Perfect erasure: the optimum, polished for at most POLISH_ITERS evaluations, is
# within RANDOM_UNITARY_TOL of one, and ENSEMBLE_CHECKS random ensembles see no information.
RANDOM_UNITARY_TOL = 1e-6
POLISH_ITERS = 300
ENSEMBLE_CHECKS = 20


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best mixing found, its value, the per-restart trace, and the read-only state searched at."""

    best_mixing: ProbeMeasurement
    best_value: float
    trace: tuple[tuple[int, int, float], ...]
    converged: bool
    state: np.ndarray
    oracle_value: float | None = None

    def with_oracle(self, value: float) -> "OptimizationResult":
        return replace(self, oracle_value=float(value))


@dataclass(frozen=True, eq=False)
class RandomUnitaryVerdict:
    """Outcome of the perfect-erasure test.

    When true, ``witness`` holds pairs (weight, unitary) whose mixture
    reproduces the channel; ``residual`` measures how far the normalized
    refined branches are from unitarity at the best mixing found.
    """

    is_random_unitary: bool
    witness: tuple[tuple[float, np.ndarray], ...] | None
    residual: float


def _mm_steps(ops, rho, w):
    """Yield (w, F(w)) along the MM ascent, starting at ``w`` itself.

    Each step makes one branch SVD: its singular values give F at the current
    point and its polar factors V_j = X_j Yh_j build the next mixing. The
    generator is lazy, so a caller that stops after a yield pays for no
    further step.
    """
    d = rho.shape[0]
    # row k of flat is E_k rho, so W @ flat stacks the branches E'_j rho
    flat = (ops @ rho).reshape(len(ops), d * d)
    while True:
        x, s, yh = np.linalg.svd((w @ flat).reshape(-1, d, d))
        t = s.sum(axis=1)
        yield w, float((t**2).sum())
        g = t[:, None] * ((x @ yh).conj().reshape(-1, d * d) @ flat.T)
        gx, _, gyh = np.linalg.svd(g, full_matrices=False)
        w = (gx @ gyh).conj()


def _accelerated_steps(ops, rho, w, budget):
    """Yield (evaluations, w, F(w)) at ``w`` and at every point the guarded ascent accepts.

    ``budget`` caps the branch-SVD evaluations after the one at ``w``. Like the
    kernel it walks, the generator is lazy: a caller that stops after a yield
    pays for no further evaluation.
    """
    steps = _mm_steps(ops, rho, w)
    w, value = next(steps)
    n = 0
    yield n, w, value
    path = [w]  # plain points since the last extrapolation base, base first
    while n < budget:
        if len(path) == 3:
            w0, w1, w2 = path
            path = [w2]
            r = w1 - w0
            v = w2 - w1 - r
            nr, nv = np.linalg.norm(r), np.linalg.norm(v)
            if not nr > nv > 0:
                continue  # alpha = -1: the S3 point is w2 itself
            alpha = -nr / nv
            x, _, yh = np.linalg.svd(w0 - 2 * alpha * r + alpha**2 * v, full_matrices=False)
            trial = _mm_steps(ops, rho, x @ yh)
            wx, fx = next(trial)
            n += 1
            if fx > value:
                steps, w, value, path = trial, wx, fx, [wx]
                yield n, w, value
            continue
        w, value = next(steps)
        n += 1
        path = [w] if n <= WARMUP else path + [w]
        yield n, w, value


def _ascend(ops, rho, w, max_iters, tol, restart, trace):
    """Ascent from ``w`` until |dF| < tol; returns (w, value, converged).

    Appends one (restart, evaluation, value) row per accepted point to ``trace``.
    """
    points = _accelerated_steps(ops, rho, w, max_iters)
    _, w, value = next(points)
    trace.append((restart, 0, value))
    for n, new_w, new_value in points:
        trace.append((restart, n, new_value))
        done = abs(new_value - value) < tol
        w, value = new_w, new_value
        if done:
            return w, value, True
    return w, value, False


def _polish(ops, rho, w, iters):
    """Ascent from ``w`` while F strictly increases; returns the last increasing (w, value)."""
    points = _accelerated_steps(ops, rho, w, iters)
    _, w, value = next(points)
    for _, new_w, new_value in points:
        if not new_value > value:
            break
        w, value = new_w, new_value
    return w, value


def _maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def _identity_start(m: int, kk: int) -> np.ndarray:
    w = np.zeros((m, kk), dtype=complex)
    w[:kk, :kk] = np.eye(kk)
    return w


def _perturbed_identity_start(m: int, kk: int) -> np.ndarray:
    # symmetric configurations like the which-path readout are exact (unstable)
    # fixed points of the ascent map; a tiny fixed real-generic offset lets the
    # trajectory fall off them while staying real for real-valued problems
    grid = np.sin(2.39996 * np.outer(np.arange(1, m + 1), np.arange(1, kk + 1)))
    x, _, yh = np.linalg.svd(_identity_start(m, kk) + 1e-6 * grid, full_matrices=False)
    return (x @ yh).astype(complex)


def optimize_erasure(
    channel: KrausChannel,
    rho=None,
    outcomes: int | None = None,
    *,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> OptimizationResult:
    """Maximize the assisted fidelity over m-outcome mixing isometries.

    ``rho`` defaults to the maximally mixed state, ``outcomes`` to the Kraus
    count. Restart r > 1 starts from the Haar isometry seeded by (seed, r);
    restarts tied within 1e-12 are resolved toward the lowest index, so
    results are deterministic and independent of any execution order.
    Raises ParamOutOfRange when ``restarts < 1`` or ``max_iters < 0``.
    """
    validate(channel)
    if restarts < 1 or max_iters < 0:
        raise ParamOutOfRange(f"need restarts >= 1 and max_iters >= 0, got {restarts}, {max_iters}")
    rho = _check_state(channel, rho) if rho is not None else _maximally_mixed(channel.dim)
    kk = channel.kraus_count
    m = kk if outcomes is None else int(outcomes)
    if m < kk:
        raise BadOutcomeCount(f"need at least {kk} outcomes, got {m}")
    _check_entries(m * max(kk, channel.dim**2), f"{m} outcomes")
    ops = channel.stack

    trace: list[tuple[int, int, float]] = []
    best_w, best_value, best_converged = None, -np.inf, False
    for r in range(restarts):
        if r == 0:
            w0 = _identity_start(m, kk)
        elif r == 1:
            w0 = _perturbed_identity_start(m, kk)
        else:
            w0 = numerics.haar_isometry(m, kk, np.random.default_rng([seed, r]))
        w, value, converged = _ascend(ops, rho, w0, max_iters, tol, r, trace)
        if value > best_value + RESTART_TIE_ATOL:
            best_w, best_value, best_converged = w, value, converged
    return OptimizationResult(
        best_mixing=probe_measurement(best_w),
        best_value=best_value,
        trace=tuple(trace),
        converged=best_converged,
        state=numerics._read_only(rho.copy()),
    )


def sample_oracle(channel: KrausChannel, rho=None, samples: int = 1, seed: int = 0) -> float:
    """Brute-force baseline: max assisted fidelity over Haar-random square mixings.

    Independent of the ascent path (direct trace-norm evaluation on sampled
    unitaries, in closed form for 2 x 2 branches); deterministic for a fixed seed.
    """
    validate(channel)
    rho = _check_state(channel, rho) if rho is not None else _maximally_mixed(channel.dim)
    if samples < 1:
        raise ParamOutOfRange(f"need at least one sample, got {samples}")
    kk = channel.kraus_count
    ops = channel.stack
    ops_rho = ops @ rho
    rng = np.random.default_rng(seed)
    best = -np.inf
    chunk = 4096
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        w = numerics._haar((n, kk, kk), rng)
        t = numerics._trace_norms(np.einsum("njk,kab->njab", w, ops_rho))
        best = max(best, float((t**2).sum(axis=-1).max()))
        done += n
    return best


def detect_random_unitary(
    channel: KrausChannel,
    *,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    result: OptimizationResult | None = None,
) -> RandomUnitaryVerdict:
    """Decide numerically whether the channel mixes unitaries.

    Optimizes erasure at the maximally mixed state, then polishes the best
    mixing with further ascent so the normalized branches E'_j / sqrt(p(j) d)
    can be tested for unitarity at witness precision. ``result`` is reused in
    place of the search only when it was optimized at the maximally mixed
    state with as many outcomes as the channel has Kraus operators, as a
    default ``optimize_erasure`` run is. A true verdict needs the optimum
    within RANDOM_UNITARY_TOL of one, branch residuals below
    10 sqrt(RANDOM_UNITARY_TOL), and near-zero mutual information across
    seeded random ensembles.
    """
    validate(channel)
    d = channel.dim
    rho = _maximally_mixed(d)
    kk = channel.kraus_count
    reusable = (
        result is not None
        and result.best_mixing.kraus_count == kk
        and result.best_mixing.outcomes == kk
        and np.array_equal(result.state, rho)
    )
    if not reusable:
        result = optimize_erasure(channel, rho, restarts=restarts, seed=seed)
    ops = channel.stack
    w, best_value = _polish(ops, rho, result.best_mixing.mixing, POLISH_ITERS)

    branches = np.einsum("jk,kab->jab", w, ops)
    probs = np.einsum("jab,jab->j", branches.conj(), branches).real / d
    kept = probs >= OUTCOME_FLOOR
    normalized = branches[kept] / np.sqrt(probs[kept])[:, None, None]
    residual = max(
        float(np.abs(numerics.dagger(u) @ u - np.eye(d)).max()) for u in normalized
    )

    if best_value < 1 - RANDOM_UNITARY_TOL or residual >= 10 * np.sqrt(RANDOM_UNITARY_TOL):
        return RandomUnitaryVerdict(False, None, residual)

    meas = probe_measurement(w)
    for check in range(ENSEMBLE_CHECKS):
        ens = random_ensemble(rho, 4, np.random.default_rng([seed, 104729, check]))
        if mutual_information(joint_distribution(channel, ens, meas)) >= 1e-5:
            return RandomUnitaryVerdict(False, None, residual)

    weights = probs[kept] / probs[kept].sum()
    unitaries = tuple(numerics.polar_unitary(u) for u in normalized)
    witness = tuple((float(p), u) for p, u in zip(weights, unitaries))
    return RandomUnitaryVerdict(True, witness, residual)


def witness_channel(verdict: RandomUnitaryVerdict) -> KrausChannel:
    """Kraus family sqrt(p_j) U_j of a true verdict, for Choi reconstruction checks."""
    if not verdict.is_random_unitary or verdict.witness is None:
        raise ValueError("verdict carries no witness")
    return kraus_channel([np.sqrt(p) * u for p, u in verdict.witness])
