"""Entanglement fidelity, the assisted bound, the explicit correction scheme,
and numerical verification of the information-disturbance inequality chains.

Conventions. The uncorrected figure of merit is F_e(rho) = sum_k |Tr rho E_k|^2,
a decomposition-independent property of the channel. The assisted bound is

    F_ea(rho) = sum_j (Tr|E'_j rho|)^2 = sum_j p(j) F(rho, K_j)^2,

computed on the refined branches E'_j, with conditional states
K_j = rho^(1/2) E'_j^dag E'_j rho^(1/2) / p(j). The outcome-conditioned
correction that attains it applies (V_j)^dag . V_j where V_j is the unitary
polar factor of E'_j rho; the modulus must be taken on E'_j rho (state on the
left) or the bound can exceed one and the identity with the conditional
states breaks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import numerics
from .channels import KrausChannel, _check_state, kraus_channel
from .errors import EnsembleMismatch
from .probes import (
    Ensemble,
    OUTCOME_FLOOR,
    ProbeMeasurement,
    _check_members,
    _joint,
    canonical_measurement,
    ic_ensemble,
    mutual_information,
    refine,
)

SLACK_FLOOR = -1e-9


def _resolve_meas(channel: KrausChannel, meas: ProbeMeasurement | None) -> ProbeMeasurement:
    return canonical_measurement(channel.kraus_count) if meas is None else meas


def _refined(channel: KrausChannel, meas: ProbeMeasurement | None) -> np.ndarray:
    return refine(channel, _resolve_meas(channel, meas))


def entanglement_fidelity(channel: KrausChannel, rho) -> float:
    """F_e(rho) = sum_k |Tr rho E_k|^2, independent of the Kraus decomposition.

    Every Tr(rho E_k) comes from one contraction over the stacked operators.
    """
    rho = _check_state(channel, rho)
    overlaps = np.einsum("ab,kba->k", rho, channel.stack)
    return float((np.abs(overlaps) ** 2).sum())


def assisted_fidelity(
    channel: KrausChannel, rho, meas: ProbeMeasurement | None = None
) -> float:
    """F_ea(rho) = sum_j (Tr|E'_j rho|)^2 on the refined branches (W = I default).

    The branch trace norms come from one stacked kernel call.
    """
    rho = _check_state(channel, rho)
    return float((numerics._trace_norms(_refined(channel, meas) @ rho) ** 2).sum())


def _branches(channel, rho, meas):
    """Stacked refined branches with their outcome probabilities (clamped at zero)."""
    refined = _refined(channel, meas)
    probs = np.einsum("jab,bc,jac->j", refined, rho, refined.conj()).real
    return refined, np.maximum(probs, 0.0)


def _conditional(rho, refined, probs):
    """Kept outcomes and their stacked conditional states.

    K_j = rho^(1/2) E'_j^dag E'_j rho^(1/2) / p(j) for every outcome with
    p(j) >= OUTCOME_FLOOR; the others have no conditional state.
    """
    kept = np.flatnonzero(probs >= OUTCOME_FLOOR)
    sq = numerics.psd_power(rho, 0.5)
    e = refined[kept]
    states = numerics.hermitize(sq @ (numerics.dagger(e) @ e) @ sq)
    return kept, states / probs[kept, None, None]


def conditional_states(
    channel: KrausChannel, rho, meas: ProbeMeasurement | None = None
) -> list[tuple[float, np.ndarray]]:
    """Outcome probabilities with K_j = rho^(1/2) E'_j^dag E'_j rho^(1/2) / p(j).

    Outcomes with p(j) below the floor are omitted: their conditional states
    are undefined. The kept pairs satisfy sum_j p(j) K_j = rho up to the
    dropped mass.
    """
    rho = _check_state(channel, rho)
    refined, probs = _branches(channel, rho, meas)
    kept, states = _conditional(rho, refined, probs)
    return [(float(probs[j]), k) for j, k in zip(kept, states)]


def build_correction(
    channel: KrausChannel, rho, meas: ProbeMeasurement | None = None
) -> KrausChannel:
    """The corrected channel sum_j C_j(E'_j . E'_j^dag) as one Kraus family.

    C_j conjugates by the adjoint of the unitary polar factor V_j of E'_j rho,
    so each corrected operator is V_j^dag E'_j. Its entanglement fidelity at
    rho equals the assisted bound; for rank-deficient E'_j rho any valid polar
    completion gives the same corrected fidelity. Every V_j comes from one
    stacked kernel call.
    """
    rho = _check_state(channel, rho)
    refined = _refined(channel, meas)
    v = numerics._polar_factors(refined @ rho)[1]
    return kraus_channel(numerics.dagger(v) @ refined)


@dataclass(frozen=True)
class ErasureReport:
    """Every quantity of the two inequality chains for one configuration.

    Slacks are the per-link margins, each nonnegative up to -1e-9 for valid
    inputs. The converse fields (gamma, slack_converse) are present only when
    the report was produced with an informationally complete ensemble.
    """

    f_e: float
    f_ea: float
    mutual_info: float
    beta: float
    gamma: float | None
    slack_fidelity_trace: float
    slack_measurement_l1: float
    slack_pinsker: float
    slack_total: float
    slack_converse: float | None
    sum_pj_trace_sq: float
    sum_pj_l1_sq: float
    rho_invertible: bool

    def slacks(self) -> dict[str, float]:
        out = {
            "slack_fidelity_trace": self.slack_fidelity_trace,
            "slack_measurement_l1": self.slack_measurement_l1,
            "slack_pinsker": self.slack_pinsker,
            "slack_total": self.slack_total,
        }
        if self.slack_converse is not None:
            out["slack_converse"] = self.slack_converse
        return out

    def worst_slack(self) -> float:
        return min(self.slacks().values())

    def assert_ok(self) -> None:
        """Tripwire for fuzzing: name the offending link and its slack."""
        for link, value in self.slacks().items():
            assert value >= SLACK_FLOOR, f"{link} = {value:.6e} below {SLACK_FLOOR:.0e}"

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _chain_quantities(channel, rho, ens, meas):
    """Shared plumbing for both verification chains.

    Returns the kept outcomes' probabilities, conditional-state trace
    distances and classical l1 distances as aligned arrays, then F_e, F_ea
    and the mutual information.
    """
    refined, probs = _branches(channel, rho, meas)
    joint = _joint(ens.stack, refined)
    kept, states = _conditional(rho, refined, probs)
    trace_dists = np.array([numerics.trace_norm(rho - k) for k in states])
    p_out = joint.sum(axis=0)
    classical_l1 = np.abs(ens.weights[:, None] - joint[:, kept] / p_out[kept]).sum(axis=0)

    f_e = entanglement_fidelity(channel, rho)
    f_ea = float(sum(numerics.trace_norm(b) ** 2 for b in refined @ rho))
    info = mutual_information(joint)
    return probs[kept], trace_dists, classical_l1, f_e, f_ea, info


def verify_direct(
    channel: KrausChannel,
    rho,
    ens: Ensemble,
    meas: ProbeMeasurement | None = None,
) -> ErasureReport:
    """Evaluate the direct chain link by link and report every slack.

    The chain descends from F_ea through the conditional-state trace
    distances, the measured (classical) l1 distances under the ensemble POVM
    {rho^(-1/2) rho_i rho^(-1/2)}, and the Pinsker bound, ending at
    1 - beta I / 4 <= 1 with beta = min_i p(i).
    """
    rho = _check_state(channel, rho)
    meas = _resolve_meas(channel, meas)
    _check_members(channel, ens)
    mismatch = float(np.abs(ens.average - rho).max())
    if mismatch > 1e-9:
        raise EnsembleMismatch(
            f"ensemble average deviates from rho by {mismatch:.3e} (tolerance 1e-09)"
        )
    probs, trace_dists, classical_l1, f_e, f_ea, info = _chain_quantities(
        channel, rho, ens, meas
    )
    beta = ens.beta
    sum_trace_sq = float((probs * trace_dists**2).sum())
    sum_l1_sq = float((probs * classical_l1**2).sum())
    # links below the first are taken directly, not as differences of terms near 1
    return ErasureReport(
        f_e=f_e,
        f_ea=f_ea,
        mutual_info=info,
        beta=beta,
        gamma=None,
        slack_fidelity_trace=1 - sum_trace_sq / 4 - f_ea,
        slack_measurement_l1=(sum_trace_sq - sum_l1_sq) / 4,
        slack_pinsker=(sum_l1_sq - beta * info) / 4,
        slack_total=beta * info / 4,
        slack_converse=None,
        sum_pj_trace_sq=sum_trace_sq,
        sum_pj_l1_sq=sum_l1_sq,
        rho_invertible=numerics.support_rank(rho) == channel.dim,
    )


def verify_converse(
    channel: KrausChannel,
    rho,
    meas: ProbeMeasurement | None = None,
    members: int | None = None,
    seed=0,
) -> ErasureReport:
    """Evaluate the converse chain on a seeded informationally complete ensemble.

    The chain climbs from 1 - sqrt2 |Gamma| sqrt(I) through the reconstruction
    bound 1 - |Gamma| sum_ij p(j)|p(i) - p(i|j)| up to F_ea; the reported
    slack_converse is the worst of the three links. Direct-chain slacks for
    the same IC ensemble are reported alongside.
    """
    rho = _check_state(channel, rho)
    meas = _resolve_meas(channel, meas)
    if members is None:
        members = numerics.support_rank(rho) ** 2
    ic = ic_ensemble(rho, members, seed)
    report = verify_direct(channel, rho, ic.base, meas)

    probs, trace_dists, classical_l1, _, f_ea, info = _chain_quantities(
        channel, rho, ic.base, meas
    )
    b1 = 1 - float((probs * trace_dists).sum())
    b2 = 1 - ic.gamma * float((probs * classical_l1).sum())
    b3 = 1 - np.sqrt(2) * ic.gamma * np.sqrt(info)
    slack_converse = float(min(f_ea - b1, b1 - b2, b2 - b3))
    return replace(report, gamma=ic.gamma, slack_converse=slack_converse)
