"""Probe measurements, instrument refinement, ensembles, and joint statistics.

A rank-one probe POVM is stored as the m x K mixing isometry W acting on
Kraus indices: row j encodes the probe effect |w_j><w_j| via W[j, k] =
<w_j|k>, and the refined pure-instrument branches are E'_j = sum_k W[j, k]
E_k. Row phases of W are unphysical gauge: they change no branch's trace
norm or effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .channels import KrausChannel, _check_entries
from .errors import (
    BetaZero,
    DimensionMismatch,
    InsufficientFrame,
    NotDensity,
    NotIsometry,
    NotNormalized,
    NotPSD,
    ParamOutOfRange,
    SingularAverage,
)

ISOMETRY_ATOL = 1e-10

# Outcomes with p(j) below this are dropped from reports; the 0 log 0
# convention keeps every entropic quantity finite without them.
OUTCOME_FLOOR = 1e-12

# Share of rho a random ensemble splits uniformly over its members.
ENSEMBLE_FLOOR = 0.01


@dataclass(frozen=True, eq=False)
class ProbeMeasurement:
    """Rank-one probe POVM as a Kraus-mixing isometry (m x K, W^dag W = I)."""

    mixing: np.ndarray

    @property
    def outcomes(self) -> int:
        return self.mixing.shape[0]

    @property
    def kraus_count(self) -> int:
        return self.mixing.shape[1]


def probe_measurement(mixing) -> ProbeMeasurement:
    w = numerics.as_matrix(mixing)
    m, k = w.shape
    if m < k or k < 1:
        raise DimensionMismatch(f"mixing must be m x K with m >= K >= 1, got {w.shape}")
    dev = float(np.abs(numerics.dagger(w) @ w - np.eye(k)).max())
    if dev > ISOMETRY_ATOL:
        raise NotIsometry(f"W^dag W deviates from identity by {dev:.3e}")
    return ProbeMeasurement(mixing=w.copy())


def canonical_measurement(kraus_count: int) -> ProbeMeasurement:
    """The do-nothing mixing W = I: read the probe in the Kraus basis."""
    return probe_measurement(np.eye(kraus_count, dtype=complex))


def hadamard_measurement() -> ProbeMeasurement:
    return probe_measurement(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))


def rotation_measurement(theta: float) -> ProbeMeasurement:
    """Real rotation of the two-outcome probe basis by ``theta``."""
    c, s = np.cos(theta), np.sin(theta)
    return probe_measurement(np.array([[c, s], [-s, c]], dtype=complex))


def random_measurement(outcomes: int, kraus_count: int, seed) -> ProbeMeasurement:
    return probe_measurement(numerics.haar_isometry(outcomes, kraus_count, seed))


def refine(channel: KrausChannel, meas: ProbeMeasurement) -> np.ndarray:
    """Pure-instrument branches E'_j = sum_k W[j, k] E_k, stacked as an m x d x d array."""
    if meas.kraus_count != channel.kraus_count:
        raise DimensionMismatch(
            f"measurement mixes {meas.kraus_count} Kraus indices, channel has "
            f"{channel.kraus_count}"
        )
    return np.einsum("jk,kab->jab", meas.mixing, channel.stack)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Decomposition {rho_i} of a state: each member PSD, sum_i rho_i = rho.

    ``stack`` holds the members as one read-only n x d x d array. ``weights``
    and ``average`` are computed from it once, on first use, and are
    read-only too, so no caller can change what later reports see.
    """

    stack: np.ndarray

    @property
    def members(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack)

    @cached_property
    def weights(self) -> np.ndarray:
        return numerics._read_only(np.trace(self.stack, axis1=1, axis2=2).real)

    @cached_property
    def average(self) -> np.ndarray:
        return numerics._read_only(numerics.hermitize(self.stack.sum(axis=0)))

    @property
    def beta(self) -> float:
        return float(self.weights.min())


def ensemble(members) -> Ensemble:
    """Validate and build an ensemble: PSD members, positive weights, unit total trace.

    Hermiticity, the smallest eigenvalue and the trace of every member are
    checked over the stacked members at once; a failure names the first
    failing member with its own figures.
    """
    mats = [numerics.as_matrix(m) for m in members]
    if not mats:
        raise DimensionMismatch("an ensemble needs at least one member")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise DimensionMismatch(f"members must all be {d} x {d}, got {m.shape}")
    stack = np.stack(mats)
    herm_dev = np.abs(stack - numerics.dagger(stack)).max(axis=(1, 2))
    low = np.linalg.eigvalsh(numerics.hermitize(stack)).min(axis=1)
    bad = np.flatnonzero((herm_dev > 1e-10) | (low < -1e-10))
    if bad.size:
        i = bad[0]
        raise NotPSD(
            f"ensemble member {i} not PSD within 1e-10 (hermiticity {herm_dev[i]:.3e}, "
            f"min eigenvalue {low[i]:.3e})"
        )
    ens = Ensemble(stack=numerics._read_only(stack))
    total = float(ens.weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise NotDensity(f"ensemble traces sum to {total:.12g}, expected 1 within 1e-09")
    if ens.beta <= 0:
        raise BetaZero("every ensemble weight must be strictly positive")
    return ens


def _complex_normal(rng: np.random.Generator, count: int, shape: tuple[int, ...]) -> np.ndarray:
    """``count`` complex Gaussian arrays of ``shape`` (real part + 1j * imaginary part).

    One call to the generator, drawing in the order of ``count`` sequential
    pairs of ``rng.normal(size=shape)`` calls, so seeded draws do not depend
    on the stacking.
    """
    x = rng.normal(size=(count, 2, *shape))
    return x[:, 0] + 1j * x[:, 1]


def random_ensemble(rho, members: int, seed) -> Ensemble:
    """Seeded random decomposition of ``rho`` with all weights >= ENSEMBLE_FLOOR/members.

    Ginibre-random PSD pieces are conjugated into a resolution of the support
    of rho, then blended with the uniform split by ENSEMBLE_FLOOR so no weight can
    collapse to zero. The pieces are drawn and conjugated as one stack; the
    request size is checked before anything is drawn. Raises ParamOutOfRange
    when ``members < 1``.
    """
    rho = numerics.ensure_density(rho)
    if members < 1:
        raise ParamOutOfRange(f"need at least one member, got {members}")
    d = rho.shape[0]
    _check_entries(members * d * d, f"random_ensemble(members={members}) in dimension {d}")
    rng = numerics._rng(seed)
    g = _complex_normal(rng, members, (d, d)) / np.sqrt(2)
    pieces = g @ numerics.dagger(g)
    s_inv_half = numerics.psd_power(pieces.sum(axis=0), -0.5)
    sq = numerics.psd_power(rho, 0.5)
    mats = (1 - ENSEMBLE_FLOOR) * (sq @ (s_inv_half @ pieces @ s_inv_half) @ sq)
    return ensemble(numerics.hermitize(mats + ENSEMBLE_FLOOR * rho / members))


def joint_distribution(channel: KrausChannel, ens: Ensemble, meas: ProbeMeasurement) -> np.ndarray:
    """Joint outcome matrix p(i, j) = Tr[rho_i E'_j^dag E'_j].

    Rows are ensemble members, columns probe outcomes; marginals are the
    ensemble weights and the outcome probabilities. One stacked array of
    effects E'_j^dag E'_j is contracted with the stacked members; entries
    below -1e-9 are rejected and the rest clipped at zero.
    """
    _check_members(channel, ens)
    return _joint(ens.stack, refine(channel, meas))


def _check_members(channel: KrausChannel, ens: Ensemble) -> None:
    if ens.stack.shape[1:] != (channel.dim, channel.dim):
        raise DimensionMismatch(
            f"ensemble members are {ens.stack.shape[1:]}, channel dimension is {channel.dim}"
        )


def _joint(members: np.ndarray, refined: np.ndarray) -> np.ndarray:
    """``joint_distribution`` on the member stack and the refined branches, unchecked.

    ``refined`` may stack branch sets over leading axes; the joints stack over the same axes.
    """
    # the effects E'_j^dag E'_j stay unnamed, so they are freed before the clip copies p
    p = np.einsum("iab,...jba->...ij", members, numerics.dagger(refined) @ refined).real
    if p.min(initial=0.0) < -1e-9:
        raise NotPSD(f"joint probability {p.min():.3e} is negative beyond tolerance")
    return np.clip(p, 0.0, None)


def mutual_information(p) -> float:
    """Mutual information H(p_i) + H(p_j) - H(p_ij) of a joint matrix, in nats."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2:
        raise DimensionMismatch(f"expected a joint matrix, got ndim={p.ndim}")
    if p.min(initial=0.0) < -1e-12:
        raise NotNormalized(f"joint entry {p.min():.3e} is negative")
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise NotNormalized(f"joint entries sum to {total:.12g}, expected 1 within 1e-09")
    return float(_information(p))


def _information(p: np.ndarray) -> np.ndarray:
    """``mutual_information`` of each joint matrix over the last two axes, unchecked."""
    info = (
        numerics._entropy(p.sum(axis=-1))
        + numerics._entropy(p.sum(axis=-2))
        - numerics._entropy(p.reshape(*p.shape[:-2], -1))
    )
    return np.maximum(info, 0.0)


@dataclass(frozen=True, eq=False)
class ICEnsemble:
    """Informationally complete ensemble with its frame effects and dual frame.

    frame_effects are the POVM elements P_i = rho^(-1/2) rho_i rho^(-1/2) on
    the support of rho; dual_frame holds the Hermitian (not PSD in general)
    operators rho'_i of the reconstruction identity O = sum_i Tr[O P_i] rho'_i;
    gamma is max_i ||rho'_i||_1.
    """

    base: Ensemble
    frame_effects: tuple[np.ndarray, ...]
    dual_frame: tuple[np.ndarray, ...]
    gamma: float


def ic_ensemble(rho, members: int, seed) -> ICEnsemble:
    """Seeded informationally complete decomposition of ``rho``.

    Draws ``members`` Haar-random unit vectors in the support of rho, turns
    them into a rank-one POVM on the support, and pushes that POVM through
    rho^(1/2) to get the ensemble. The dual frame is the canonical one: the
    pseudo-inverse of the frame map, i.e. the minimal-norm solution of the
    reconstruction identity on the support.

    Raises InsufficientFrame when members < rank(rho)^2 or the drawn frame
    fails to span (redraw with a new seed in that case), and ParamOutOfRange
    before any draw when the request is too large. The frame vectors are
    drawn in one call and the gram, effects, duals and members are built as
    stacks.
    """
    rho = numerics.ensure_density(rho)
    cutoff = numerics.RANK_CUTOFF
    w, v = numerics.psd_eigh(rho)
    keep = w > cutoff
    r = int(keep.sum())
    basis = v[:, keep]
    if members < r * r:
        raise InsufficientFrame(
            f"need at least rank(rho)^2 = {r * r} members, got {members}"
        )
    # members x d x d bounds the largest stacks built below (effects, duals,
    # ensemble members); the frame's members x r^2 is no larger, since r <= d
    d = rho.shape[0]
    _check_entries(members * d * d, f"ic_ensemble(members={members}) in dimension {d}")
    g = _complex_normal(numerics._rng(seed), members, (r,))
    vecs = g / np.linalg.norm(g, axis=1, keepdims=True)
    outers = vecs[:, :, None] * vecs.conj()[:, None, :]
    # one psd_eigh for both: once the check passes, every eigenvalue is on the support
    gw, gv = numerics.psd_eigh(outers.sum(axis=0))
    if float(gw.min()) <= cutoff * float(gw.max()):
        raise SingularAverage("frame vectors do not cover the support of rho")
    g_inv_half = numerics.hermitize((gv * gw**-0.5) @ numerics.dagger(gv))
    effects_s = g_inv_half @ outers @ g_inv_half

    frame = np.ascontiguousarray(effects_s.reshape(members, r * r).T)  # r^2 x members
    # the canonical duals (frame frame^dag)^-1 frame = u s^-1 vh, from the frame's own SVD
    u, sing, vh = np.linalg.svd(frame, full_matrices=False)
    rank = int((sing > sing[0] * 1e-10).sum())
    if rank < r * r:
        raise InsufficientFrame(f"frame rank {rank} < rank(rho)^2 = {r * r}")
    duals_flat = (u / sing) @ vh
    duals_s = numerics.hermitize(duals_flat.T.reshape(members, r, r))

    sq = numerics.psd_power(rho, 0.5)
    effects = numerics.hermitize(basis @ effects_s @ numerics.dagger(basis))
    duals = basis @ duals_s @ numerics.dagger(basis)
    base = ensemble(numerics.hermitize(sq @ effects @ sq))
    gamma = max(numerics.trace_norm(dd) for dd in duals)
    return ICEnsemble(
        base=base,
        frame_effects=tuple(effects),
        dual_frame=tuple(duals),
        gamma=float(gamma),
    )

