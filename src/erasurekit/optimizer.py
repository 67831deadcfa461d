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

Each step decomposes the branches E'_j rho exactly once, with
``numerics._polar_factors``: their trace norms give the value
F(W) = sum_j t_j^2 and their polar factors V_j build the next G, so F is
never evaluated apart from the step. Qubit branches, and 2 x 2 G matrices
and S3 points, take that kernel's closed form; every other shape takes one
stacked SVD.

Plain MM converges only linearly, so the ascent is accelerated by guarded
SQUAREM extrapolation (scheme S3 of Varadhan & Roland, Scand. J. Stat. 35,
335 (2008); MM background in Hunter & Lange, Am. Stat. 58, 30 (2004)). The
first WARMUP steps are plain MM steps. After them, every two plain steps
w0 -> w1 -> w2 are followed by one S3 step: with r = w1 - w0,
v = w2 - w1 - r and alpha = min(-|r|/|v|, -1), the extrapolated mixing is
the polar factor of w0 - 2 alpha r + alpha^2 v, and its value is read from
the branch evaluation made at that point. The ascent continues from
the extrapolated mixing only if its value beats F(w2); otherwise it resumes
the plain steps at w2, so every accepted value is nondecreasing. When
alpha = -1 the S3 point is w2 itself and nothing is evaluated. Iteration
budgets and trace indices count branch evaluations, so a trace index
skips a number where an extrapolation was rejected.

All restarts of a search advance in lockstep, in rounds, and so do the
searches of several problems of one shape (the teleport sweep's grid
points). A group's problems are one (P, K, d, d) array of operators E_k rho,
and each ascent holds the index of its problem; a round gathers its ascents'
operators from that array. In each round every running ascent makes one
evaluation: its plain MM step or its S3 trial. All new points come from one
stacked polar factor, a plain step's point conj(polar(G)) being
polar(conj(G)), and one stacked branch evaluation; then each ascent applies
its own guard, path, budget and stop rule, and leaves the stack when it
stops. Stacked kernels return the same bits as per-matrix calls, so every
ascent follows the trajectory it would follow alone. Ascents run in groups
whose stacked arrays stay within GROUP_ENTRIES complex entries: whole
problems with all their restarts, or one problem with a run of its
restarts. Restart r's first point depends only on (r, m, K, seed), so a
group draws it once and shares it among its problems.

Every ascent stops at its first accepted evaluation that gains no more than
its tolerance, or at its budget, and ends at its best accepted point; its
trace rows keep every accepted value. The polish in ``detect_random_unitary``
is this ascent from one start, the search's best mixing, at tolerance 0: it
runs while F strictly increases, for at most POLISH_ITERS evaluations.

``optimize_erasure``, ``sample_oracle``, ``detect_random_unitary`` and the
teleport sweep take their problems, E_k rho at a checked state, from ``_problem``.

The do-nothing mixing W = I is always restart 0. Restart 1 starts about 1e-6
off it at every m >= K, at the polar factor of (I_m + 1e-6 S) I_{m x K} with S
fixed and antisymmetric. The remaining restarts are seeded Haar isometries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channels import (
    COMPLETENESS_ATOL,
    KrausChannel,
    _check_entries,
    _check_state,
    kraus_channel,
)
from .errors import BadOutcomeCount, DimensionMismatch, ParamOutOfRange
from .probes import OUTCOME_FLOOR, ProbeMeasurement, probe_measurement

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

# Complex entries that one lockstep group of ascents may stack, at
# m * max(K, d^2) per ascent; bounds the memory a search's stacks take.
GROUP_ENTRIES = 2**16

# Perfect erasure: the optimum, polished for at most POLISH_ITERS evaluations, is
# within RANDOM_UNITARY_TOL of one, and its branch residual bounds the information
# (nats) that any ensemble of I/d shares with the outcomes below ERASURE_INFO_TOL.
RANDOM_UNITARY_TOL = 1e-6
POLISH_ITERS = 300
ERASURE_INFO_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best mixing found, its value, the per-restart trace, and the read-only state searched at."""

    best_mixing: ProbeMeasurement
    best_value: float
    trace: tuple[tuple[int, int, float], ...]
    converged: bool
    state: np.ndarray


@dataclass(frozen=True, eq=False)
class RandomUnitaryVerdict:
    """Outcome of the perfect-erasure test.

    When true, ``witness`` holds pairs (weight, unitary) whose mixture
    reproduces the channel; ``residual`` measures how far the normalized
    branches are from unitarity at the polished mixing, or, when the unitality
    gap decides a false verdict, at the supplied mixing or W = I.
    """

    is_random_unitary: bool
    witness: tuple[tuple[float, np.ndarray], ...] | None
    residual: float


class _Ascent:
    """One restart's guarded ascent on one problem: the index of the problem it searches,
    its accepted point and value, the branch data its next plain step needs, its S3
    path, evaluations made, and trace rows."""

    __slots__ = ("problem", "w", "value", "t", "u", "path", "n", "rows", "converged")

    def __init__(self, problem, w, value, t, u):
        self.problem, self.w, self.value, self.t, self.u = problem, w, value, t, u
        self.path = [w]  # plain points since the last extrapolation base, base first
        self.n = 0
        self.rows = [(0, value)]
        self.converged = False


def _flat(ops):
    # row k of the flat operators is E_k rho, so W @ flat stacks the branches E'_j rho
    return ops.reshape(*ops.shape[:-2], -1)


def _evaluate(ops, w):
    """One stacked branch evaluation at the mixings ``w`` of shape (n, m, K).

    ``ops`` holds the operators E_k rho of each mixing, (n, K, d, d). Returns F
    at each mixing, the branch trace norms t (n, m) and the conjugated branch
    polar factors u (n, m, d*d), from which the next MM step builds G.
    """
    d = ops.shape[-1]
    t, v = numerics._polar_factors((w @ _flat(ops)).reshape(-1, d, d))
    t = t.reshape(len(w), -1)
    return (t**2).sum(axis=1), t, v.conj().reshape(len(w), -1, d * d)


def _begin(ops, starts):
    """Ascents from every start on every problem of ``ops`` (P, K, d, d), problem by
    problem, in one stacked evaluation."""
    w = np.stack(starts * len(ops))
    problems = np.repeat(np.arange(len(ops)), len(starts))
    values, t, u = _evaluate(ops[problems], w)
    return [_Ascent(p, w[i], float(values[i]), t[i], u[i]) for i, p in enumerate(problems)]


def _round(ascents, ops):
    """Make one evaluation per ascent; returns (ascent, old point, old value) per accepted point.

    An ascent whose path holds w0 -> w1 -> w2 evaluates its S3 point, unless
    alpha = -1 makes that point w2 itself; every other ascent takes its plain
    MM step. All new points come from one stacked polar factor, of conj(G)
    for the plain steps and of the S3 points for the trials, and are
    evaluated in one stacked branch evaluation. The ascents' operators are
    gathered once from ``ops`` (P, K, d, d), at their problems' indices.
    """
    plain, trials, points = [], [], []
    for a in ascents:
        if len(a.path) == 3:
            w0, w1, w2 = a.path
            a.path = [w2]
            r = w1 - w0
            v = w2 - w1 - r
            nr, nv = np.linalg.norm(r), np.linalg.norm(v)
            if nr > nv > 0:
                alpha = -nr / nv
                trials.append(a)
                points.append(w0 - 2 * alpha * r + alpha**2 * v)
                continue
        plain.append(a)
    stepped = plain + trials
    gathered = ops.take([a.problem for a in stepped], axis=0)
    stacks = []
    if plain:
        flat_t = _flat(gathered[: len(plain)]).swapaxes(-1, -2)
        g = np.stack([a.t for a in plain])[:, :, None] * (np.stack([a.u for a in plain]) @ flat_t)
        stacks.append(g.conj())
    if trials:
        stacks.append(np.stack(points))
    w = numerics._polar_factors(np.concatenate(stacks))[1]
    values, t, u = _evaluate(gathered, w)
    accepted = []
    for i, a in enumerate(stepped):
        a.n += 1
        value = float(values[i])
        is_plain = i < len(plain)
        if is_plain or value > a.value:
            accepted.append((a, a.w, a.value))
            a.w, a.value, a.t, a.u = w[i], value, t[i], u[i]
            if is_plain and a.n > WARMUP:
                a.path.append(w[i])
            else:
                a.path = [w[i]]
    return accepted


def _ascend(ops, starts, budget, tol):
    """Guarded ascent from every start on every problem of ``ops`` in lockstep;
    ascents come problem by problem.

    ``ops`` holds one problem's operators E_k rho per row, (P, K, d, d). An
    ascent stops at its first accepted evaluation that gains no more than
    ``tol``, or after ``budget`` evaluations. Every gain before that exceeded
    ``tol``, so its best accepted point is its last, or the one before when the
    last gained nothing; it ends there. It records one (evaluation, value) row
    per accepted point and leaves the stack when it stops.
    """
    ops = np.asarray(ops)
    ascents = _begin(ops, starts)
    active = ascents if budget > 0 else []
    while active:
        for a, w, previous in _round(active, ops):
            a.rows.append((a.n, a.value))
            a.converged = not a.value - previous > tol
            if not a.value > previous:
                a.w, a.value = w, previous
        running = []
        for a in active:
            if a.converged or a.n >= budget:
                # keep this ascent's own point, not the stacked arrays of its round
                a.w, a.t, a.u, a.path = a.w.copy(), None, None, None
            else:
                running.append(a)
        active = running
    return ascents


def _problem(channel: KrausChannel, rho):
    """The checked ``rho``, or I/d when it is None, and the channel's E_k rho."""
    d = channel.dim
    rho = np.eye(d, dtype=complex) / d if rho is None else _check_state(channel, rho)
    return rho, channel.stack @ rho


def _perturbed_identity_start(m: int, kk: int) -> np.ndarray:
    # a fixed offset off W = I, which can be an unstable fixed point of the
    # ascent map (the which-path readout); being antisymmetric, the polar factor
    # keeps it to first order, where a symmetric one would vanish at m = K
    grid = np.triu(np.sin(2.39996 * np.outer(np.arange(1, m + 1), np.arange(1, m + 1))), 1)
    x, _, yh = np.linalg.svd((np.eye(m) + 1e-6 * (grid - grid.T))[:, :kk], full_matrices=False)
    return (x @ yh).astype(complex)


def _start(r: int, m: int, kk: int, seed: int) -> np.ndarray:
    """Restart r's first mixing: W = I, then the perturbed identity, then seeded Haar isometries."""
    if r == 0:
        return np.eye(m, kk, dtype=complex)
    if r == 1:
        return _perturbed_identity_start(m, kk)
    return numerics.haar_isometry(m, kk, np.random.default_rng([seed, r]))


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
    Raises ParamOutOfRange when ``restarts < 1``, ``max_iters < 0`` or ``tol``
    is negative or NaN.
    """
    rho, ops = _problem(channel, rho)
    if restarts < 1 or max_iters < 0 or not tol >= 0:
        raise ParamOutOfRange(
            f"need restarts >= 1, max_iters >= 0 and tol >= 0, got {restarts}, {max_iters}, {tol}"
        )
    kk = channel.kraus_count
    m = kk if outcomes is None else int(outcomes)
    if m < kk:
        raise BadOutcomeCount(f"need at least {kk} outcomes, got {m}")
    ((w, value, converged, trace),) = _search(ops[None], m, restarts, max_iters, tol, seed)
    return OptimizationResult(
        best_mixing=probe_measurement(w),
        best_value=value,
        trace=tuple(trace),
        converged=converged,
        state=numerics._read_only(rho.copy()),
    )


def _search(ops, m, restarts, max_iters, tol, seed):
    """The erasure search of ``optimize_erasure`` on each of several problems of one shape.

    Row p of ``ops`` (P, K, d, d) is problem p's stack of operators E_k rho,
    searched over m-outcome mixings. Yields, problem by problem, the best
    mixing, its value, whether it converged, and the trace rows, each as soon
    as its group is done, so a caller that keeps only values holds no trace
    beyond one group's. Ascents run in lockstep groups of whole problems with
    all their restarts, or of one problem with a run of its restarts, within
    GROUP_ENTRIES; restart r's first point depends only on (r, m, K, seed), so
    it is drawn once per group and shared by the group's problems. An ascent
    stacks m * max(K, d^2) complex entries; above the size cap, nothing runs.
    """
    _, kk, d, _ = ops.shape
    entries = m * max(kk, d * d)
    _check_entries(entries, f"{m} outcomes")
    group = max(1, GROUP_ENTRIES // entries)
    chunk = min(restarts, group)  # restarts per group
    span = max(1, group // restarts)  # problems per group
    for first_problem in range(0, len(ops), span):
        batch = ops[first_problem : first_problem + span]
        best = [[None, -np.inf, False, []] for _ in batch]
        for first in range(0, restarts, chunk):
            indices = range(first, min(first + chunk, restarts))
            starts = [_start(r, m, kk, seed) for r in indices]
            ascents = iter(_ascend(batch, starts, max_iters, tol))
            for entry in best:
                for r, a in zip(indices, ascents):
                    entry[3] += [(r, n, value) for n, value in a.rows]
                    if a.value > entry[1] + RESTART_TIE_ATOL:
                        entry[:3] = a.w, a.value, a.converged
        yield from map(tuple, best)


def sample_oracle(channel: KrausChannel, rho=None, samples: int = 1, seed: int = 0) -> float:
    """Brute-force baseline: max assisted fidelity over Haar-random square mixings.

    Independent of the ascent path (direct trace-norm evaluation on sampled
    unitaries; 2 x 2 draws and branches take closed forms); deterministic for
    a fixed seed.
    """
    _, ops_rho = _problem(channel, rho)
    if samples < 1:
        raise ParamOutOfRange(f"need at least one sample, got {samples}")
    kk = channel.kraus_count
    rng = np.random.default_rng(seed)
    best = -np.inf
    for done in range(0, samples, 4096):
        w = numerics._haar((min(4096, samples - done), kk, kk), rng)
        t = numerics._trace_norms(np.einsum("njk,kab->njab", w, ops_rho))
        best = max(best, float((t**2).sum(axis=-1).max()))
    return best


def _normalized_branches(ops, w):
    """The branches E'_j = sum_k W[j,k] E_k with p(j) = Tr[E'_j^dag E'_j] / d >= OUTCOME_FLOOR,
    each scaled to N_j = E'_j / sqrt(p(j)); returns their p(j), the N_j, and the
    residual max |N_j^dag N_j - I| over entries."""
    d = ops.shape[-1]
    branches = np.einsum("jk,kab->jab", w, ops)
    probs = np.einsum("jab,jab->j", branches.conj(), branches).real / d
    kept = probs >= OUTCOME_FLOOR
    normalized = branches[kept] / np.sqrt(probs[kept])[:, None, None]
    residual = float(np.abs(numerics.dagger(normalized) @ normalized - np.eye(d)).max())
    return probs[kept], normalized, residual


def detect_random_unitary(
    channel: KrausChannel,
    *,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    result: OptimizationResult | None = None,
) -> RandomUnitaryVerdict:
    """Decide numerically whether the channel mixes unitaries.

    ``restarts < 1`` raises ParamOutOfRange before anything else. A channel
    that the unitality gap refuses (below) is decided at once, false, with
    ``residual`` taken at the best mixing of ``result``, or at W = I when none
    is given. A ``result`` that mixes another number of Kraus operators raises
    DimensionMismatch. Otherwise ``result`` is reused when it was
    searched at I/d with K outcomes, as a default ``optimize_erasure`` run is,
    else the function searches there itself, seeded by ``seed``; then the same
    ascent polishes the best mixing at tolerance 0, so the normalized branches
    N_j = E'_j / sqrt(p(j)) can be tested for unitarity at witness precision.
    A true verdict needs the polished value within RANDOM_UNITARY_TOL of one
    and a residual max |N_j^dag N_j - I| below sqrt(ERASURE_INFO_TOL) / d.

    That residual certifies erasure. For an ensemble {q_x, rho_x} of I/d, the
    joint distribution P(x, j) = q_x Tr[E'_j^dag E'_j rho_x] has marginals q
    and p, and MI = min over product Q of D(P || Q) <= D(P || q p) <=
    ln(1 + chi^2) <= chi^2 = sum_xj (P(x, j) - q_x p(j))^2 / (q_x p(j)). A
    kept branch has |P(x, j) - q_x p(j)| = q_x p(j) |Tr[(N_j^dag N_j - I)
    rho_x]| <= q_x p(j) d residual; a dropped one has P(x, j) <= q_x d p(j).
    So, up to COMPLETENESS_ATOL in the marginals, every ensemble of I/d has
    MI <= d^2 residual^2 + (d - 1)^2 m OUTCOME_FLOOR: below ERASURE_INFO_TOL,
    but for the floor term, when the verdict is true.

    Every mixture of unitaries is unital, and a channel far from unital is
    refused by its gap. For any m x K isometry W the branches keep
    sum_j E'_j E'_j^dag = sum_k E_k E_k^dag. N_j N_j^dag and N_j^dag N_j share
    their spectrum, and a d x d spectral norm is at most d times the largest
    entry, so ||E'_j E'_j^dag - p(j) I||_2 <= d p(j) residual for each kept
    branch. A dropped branch, p(j) < OUTCOME_FLOOR, has ||E'_j E'_j^dag||_2 <=
    d p(j); and sum_j p(j) is one within COMPLETENESS_ATOL, since ``kraus_channel``
    bounds every entry of sum_k E_k^dag E_k - I by it. Summing over the m
    outcomes, any mixing whose residual passes gives

        gap = ||sum_k E_k E_k^dag - I||_2
            <= d residual + (d + 1) m OUTCOME_FLOOR + COMPLETENESS_ATOL,

    up to a relative COMPLETENESS_ATOL on the first term. At the residual
    limit the first term is sqrt(ERASURE_INFO_TOL), whatever d. So when the
    gap exceeds twice this bound there at m = K (the factor covers that term
    and rounding), no K-outcome mixing passes, and no search or polish could
    change the verdict.
    """
    if restarts < 1:
        raise ParamOutOfRange(f"need restarts >= 1, got {restarts}")
    rho, ops_rho = _problem(channel, None)
    d, kk, ops = channel.dim, channel.kraus_count, channel.stack
    best = None if result is None else result.best_mixing
    if best is not None and best.kraus_count != kk:
        raise DimensionMismatch(f"result mixes {best.kraus_count} Kraus indices, channel has {kk}")
    limit = np.sqrt(ERASURE_INFO_TOL) / d
    gap = np.linalg.norm(np.einsum("kab,kcb->ac", ops, ops.conj()) - np.eye(d), 2)
    if gap > 2 * (d * limit + (d + 1) * kk * OUTCOME_FLOOR + COMPLETENESS_ATOL):
        w = np.eye(kk, dtype=complex) if best is None else best.mixing
        return RandomUnitaryVerdict(False, None, _normalized_branches(ops, w)[2])
    if best is None or best.outcomes != kk or not np.array_equal(result.state, rho):
        best = optimize_erasure(channel, restarts=restarts, seed=seed).best_mixing
    (polished,) = _ascend(ops_rho[None], [best.mixing], POLISH_ITERS, 0.0)
    probs, normalized, residual = _normalized_branches(ops, polished.w)

    if polished.value < 1 - RANDOM_UNITARY_TOL or residual >= limit:
        return RandomUnitaryVerdict(False, None, residual)
    weights = probs / probs.sum()
    unitaries = numerics._polar_factors(normalized)[1]
    witness = tuple((float(p), u) for p, u in zip(weights, unitaries))
    return RandomUnitaryVerdict(True, witness, residual)


def witness_channel(verdict: RandomUnitaryVerdict) -> KrausChannel:
    """Kraus family sqrt(p_j) U_j of a true verdict, for Choi reconstruction checks."""
    if not verdict.is_random_unitary or verdict.witness is None:
        raise ValueError("verdict carries no witness")
    return kraus_channel([np.sqrt(p) * u for p, u in verdict.witness])
