"""Cross-check code the tests compare the package against.

None of this is package API: each function is an independent computation
path (a dilation, a purification, a frame reconstruction, a plain Kraus sum)
for a quantity the package computes another way, or a test helper such as
the phase-insensitive measurement comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from erasurekit import numerics
from erasurekit.channels import COMPLETENESS_ATOL, KrausChannel, _check_state, validate
from erasurekit.optimizer import ERASURE_INFO_TOL
from erasurekit.probes import OUTCOME_FLOOR, ICEnsemble, ProbeMeasurement
from erasurekit.serialize import encode_matrix

# Two measurements are equal when their rows agree within this, up to phase.
MEASUREMENT_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class DilationIsometry:
    """Isometry V = sum_k E_k (x) |k> from the system into system (x) environment."""

    matrix: np.ndarray
    dim: int
    env_dim: int


def apply(channel: KrausChannel, rho) -> np.ndarray:
    """Channel action sum_k E_k rho E_k^dag on a density matrix."""
    rho = _check_state(channel, rho)
    out = np.zeros_like(rho)
    for e in channel.operators:
        out += e @ rho @ numerics.dagger(e)
    return numerics.hermitize(out)


def dilation(channel: KrausChannel) -> DilationIsometry:
    """Isometry V = sum_k E_k (x) |k> realizing the channel as an interaction.

    Row (i, k) of V (flat index i*K + k) is system index i, environment
    index k, so slicing rows k::K recovers E_k exactly. The environment
    dimension equals the number of Kraus operators: the minimal dilation.
    """
    validate(channel)
    d, kk = channel.dim, channel.kraus_count
    v = np.zeros((d * kk, d), dtype=complex)
    for k, e in enumerate(channel.operators):
        v[k::kk, :] = e
    return DilationIsometry(matrix=v, dim=d, env_dim=kk)


def complementary_apply(channel: KrausChannel, rho) -> np.ndarray:
    """Environment output state: entry (k, l) = Tr[E_l^dag E_k rho]."""
    rho = _check_state(channel, rho)
    ops = channel.stack
    env = np.einsum("kab,bc,lac->kl", ops, rho, ops.conj())
    return numerics.hermitize(env)


def dual_effect(channel: KrausChannel, j: int) -> np.ndarray:
    """Pullback of the environment projector |j><j| to the system: E_j^dag E_j."""
    e = channel.stack[j]
    return numerics.hermitize(numerics.dagger(e) @ e)


def dual_apply(channel: KrausChannel, observable) -> np.ndarray:
    """Adjoint action on observables: sum_k E_k^dag O E_k (unit-preserving)."""
    obs = numerics.as_matrix(observable)
    out = np.zeros_like(obs)
    for e in channel.operators:
        out += numerics.dagger(e) @ obs @ e
    return out


def entanglement_fidelity_purification(channel: KrausChannel, rho) -> float:
    """F_e via the canonical purification |O> = (rho^(1/2) (x) I) sum_i |ii>.

    Builds the doubled-space output state explicitly and takes the overlap;
    an independent computation path for the Kraus formula.
    """
    rho = _check_state(channel, rho)
    d = channel.dim
    omega = (numerics.psd_power(rho, 0.5) @ np.eye(d)).reshape(-1)
    eye = np.eye(d, dtype=complex)
    out = np.zeros((d * d, d * d), dtype=complex)
    for e in channel.operators:
        v = np.kron(e, eye) @ omega
        out += np.outer(v, v.conj())
    return float(np.real(omega.conj() @ out @ omega))


def measurements_equal(a: ProbeMeasurement, b: ProbeMeasurement) -> bool:
    """Row-wise equality up to a phase per row (the unphysical gauge)."""
    if a.mixing.shape != b.mixing.shape:
        return False
    for ra, rb in zip(a.mixing, b.mixing):
        inner = complex(np.vdot(ra, rb))
        phase = inner / abs(inner) if abs(inner) > 0 else 1.0
        if float(np.abs(ra * phase - rb).max()) > MEASUREMENT_ATOL:
            return False
    return True


def reconstruct(ic: ICEnsemble, observable) -> np.ndarray:
    """Rebuild an operator on supp(rho) from its frame expectations."""
    obs = numerics.as_matrix(observable)
    out = np.zeros_like(obs)
    for effect, dual in zip(ic.frame_effects, ic.dual_frame):
        out = out + np.trace(obs @ effect) * dual
    return out


def choi_sum(channel: KrausChannel) -> np.ndarray:
    """Unnormalized Choi matrix as a sum of outer products of the row-major vectorized E_k."""
    return sum(np.outer(e.reshape(-1), e.reshape(-1).conj()) for e in channel.operators)


def channel_to_dict(channel: KrausChannel) -> dict:
    """The explicit-operator JSON form that ``serialize.channel_from_dict`` reads."""
    return {"dim": channel.dim, "kraus": [encode_matrix(e) for e in channel.operators]}


def unitality_gap(channel: KrausChannel) -> float:
    """||sum_k E_k E_k^dag - I||_2, a Kraus sum at a time; zero for every mixture of unitaries."""
    deviation = sum(e @ e.conj().T for e in channel.operators) - np.eye(channel.dim)
    return float(np.abs(np.linalg.eigvalsh(deviation)).max())


def certificate_bound(dim: int, outcomes: int) -> float:
    """The largest unitality gap a true random-unitary verdict allows (see
    ``detect_random_unitary``): d times the residual limit sqrt(ERASURE_INFO_TOL) / d,
    plus (d + 1) m OUTCOME_FLOOR + COMPLETENESS_ATOL."""
    return np.sqrt(ERASURE_INFO_TOL) + (dim + 1) * outcomes * OUTCOME_FLOOR + COMPLETENESS_ATOL


def branch_residual(channel: KrausChannel, mixing) -> float:
    """max |N_j^dag N_j - I| over the branches E'_j = sum_k W[j,k] E_k of probability
    p(j) = Tr[E'_j^dag E'_j] / d >= OUTCOME_FLOOR at the maximally mixed state,
    with N_j = E'_j / sqrt(p(j)), one branch at a time."""
    d = channel.dim
    worst = 0.0
    for row in np.asarray(mixing):
        branch = sum(w * e for w, e in zip(row, channel.operators))
        p = float(np.trace(branch.conj().T @ branch).real) / d
        if p >= OUTCOME_FLOOR:
            n = branch / np.sqrt(p)
            worst = max(worst, float(np.abs(n.conj().T @ n - np.eye(d)).max()))
    return worst
