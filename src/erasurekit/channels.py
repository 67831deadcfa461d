"""Quantum channels as finite Kraus families, their Choi matrices, and presets.

A channel E(rho) = sum_k E_k rho E_k^dag is stored as the concrete operator
family {E_k}, not as an abstract map: the family fixes which indirect
measurement realizes the channel, so two Kraus decompositions of the same
map are different probe configurations even though they are channel-equal
(equality is decided on Choi matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatch,
    NotTracePreserving,
    ParamOutOfRange,
    UnknownPreset,
)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Kraus operators below this Frobenius norm are dropped at construction:
# they only produce zero-probability outcomes downstream.
ZERO_OPERATOR_NORM = 1e-12

COMPLETENESS_ATOL = 1e-9

# Channels are equal when their Choi matrices are within this in trace norm.
CHOI_ATOL = 1e-9

# Largest complex array a request may build, in entries (256 MiB): the random
# preset's (d K) x d isometry, or the optimizer's m x K mixings and m x d x d
# branches. Sizes are checked in integer arithmetic before anything is allocated.
_MAX_ENTRIES = 2**24


# Every preset name, mapped to the parameter the CLI's --param sets, or None
# when --param does not apply (identity and random take --dim/--kraus).
PRESETS = {
    "identity": None,
    "dephasing": "p",
    "depolarizing": "p",
    "amplitude_damping": "gamma",
    "eraser_cnot": None,
    "partial_teleportation": "lam0",
    "random": None,
}


def _check_entries(entries: int, what: str) -> None:
    if entries > _MAX_ENTRIES:
        raise ParamOutOfRange(
            f"{what} needs {entries} complex entries, above the cap {_MAX_ENTRIES}"
        )


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel as a family of d x d Kraus operators with sum E_k^dag E_k = I.

    ``stack`` holds the operators as one read-only K x d x d array, and
    ``operators`` gives its slices, so no caller can change the channel.
    """

    dim: int
    stack: np.ndarray

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack)

    @property
    def kraus_count(self) -> int:
        return self.stack.shape[0]


def kraus_channel(operators, *, drop_zero: bool = True) -> KrausChannel:
    """Build a channel from an operator family, dropping numerically zero members.

    Completeness is *not* checked here (see ``validate``): invalid families
    must be constructible so they can be diagnosed.
    """
    ops = [numerics.as_matrix(e) for e in operators]
    if not ops:
        raise DimensionMismatch("a channel needs at least one Kraus operator")
    d = ops[0].shape[0]
    for e in ops:
        if e.shape != (d, d):
            raise DimensionMismatch(f"Kraus operators must all be {d} x {d}, got {e.shape}")
    if drop_zero:
        kept = [e for e in ops if np.linalg.norm(e) >= ZERO_OPERATOR_NORM]
        ops = kept or ops[:1]
    return KrausChannel(dim=d, stack=numerics._read_only(np.stack(ops)))


def validate(channel: KrausChannel) -> None:
    """Raise NotTracePreserving unless sum_k E_k^dag E_k = I within 1e-9."""
    ops = channel.stack
    total = np.einsum("kba,kbc->ac", ops.conj(), ops)
    deviation = float(np.abs(total - np.eye(channel.dim)).max())
    if deviation > COMPLETENESS_ATOL:
        raise NotTracePreserving(deviation)


def _check_state(channel: KrausChannel, rho) -> np.ndarray:
    """Validate ``rho`` as a density matrix on the channel's input space."""
    rho = numerics.ensure_density(rho)
    if rho.shape != (channel.dim, channel.dim):
        raise DimensionMismatch(
            f"state is {rho.shape}, channel acts on dimension {channel.dim}"
        )
    return rho


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Unnormalized Choi matrix sum_k |E_k>><<E_k| (row-major vectorization)."""
    d = channel.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for e in channel.operators:
        v = e.reshape(-1)
        c += np.outer(v, v.conj())
    return c


def choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Trace-norm distance between Choi matrices (decomposition independent)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"channel dimensions differ: {a.dim} vs {b.dim}")
    return numerics.trace_norm(choi_matrix(a) - choi_matrix(b))


def channels_equal(a: KrausChannel, b: KrausChannel) -> bool:
    return choi_distance(a, b) <= CHOI_ATOL


def _check_integer(name: str, value) -> int:
    """``value`` as an int; an integral float passes, anything else is refused."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParamOutOfRange(f"{name} must be an integer, got {value!r}")


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ParamOutOfRange(f"{name} must lie in [0, 1], got {value}")
    return value


def preset(name: str, **params) -> KrausChannel:
    """Named channel constructions.

    identity(dim=2)
        The ideal channel {I}.
    dephasing(p=0.5)
        Phase flip of strength p, stored in the which-path decomposition
        {(aI + bZ)/sqrt2, (aI - bZ)/sqrt2} with a = sqrt(1-p), b = sqrt(p),
        so the probe-canonical readout is the which-path one and the
        Hadamard mixing recovers the unitary branches {aI, bZ}. At p = 1/2
        the operators are exactly the projectors {|0><0|, |1><1|}.
    depolarizing(p=0.5)
        {sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}.
    amplitude_damping(gamma=0.5)
        {[[1,0],[0,sqrt(1-g)]], [[0,sqrt(g)],[0,0]]}; the zero operator at
        g = 0 is dropped, leaving the identity channel.
    eraser_cnot()
        {|0><0|, |1><1|}: the system dephased by a CNOT onto the probe.
    partial_teleportation(lam0=0.5)
        E_j = D sigma_j / sqrt2 over the four Paulis, D = diag(sqrt(lam0),
        sqrt(1-lam0)); completeness is exact since lam0 + (1-lam0) = 1.
    random(dim=2, kraus=2, seed=0)
        Seeded Ginibre blocks orthonormalized into an isometry, then split.
    """
    if name not in PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")

    def take(allowed: dict):
        extra = set(params) - set(allowed)
        if extra:
            raise ParamOutOfRange(
                f"unexpected parameter(s) {sorted(extra)} for preset {name!r}"
            )
        return {k: params.get(k, v) for k, v in allowed.items()}

    if name == "identity":
        p = take({"dim": 2})
        d = _check_integer("dim", p["dim"])
        if d < 1:
            raise ParamOutOfRange(f"dim must be >= 1, got {d}")
        _check_entries(d * d, f"identity(dim={d})")
        return kraus_channel([np.eye(d, dtype=complex)])
    if name == "dephasing":
        p = _check_unit_interval("p", take({"p": 0.5})["p"])
        a, b = np.sqrt(1 - p), np.sqrt(p)
        return kraus_channel(
            [(a * PAULI_I + b * PAULI_Z) / np.sqrt(2), (a * PAULI_I - b * PAULI_Z) / np.sqrt(2)]
        )
    if name == "depolarizing":
        p = _check_unit_interval("p", take({"p": 0.5})["p"])
        weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
        paulis = [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]
        return kraus_channel([np.sqrt(w) * s for w, s in zip(weights, paulis)])
    if name == "amplitude_damping":
        g = _check_unit_interval("gamma", take({"gamma": 0.5})["gamma"])
        e0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
        e1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        return kraus_channel([e0, e1])
    if name == "eraser_cnot":
        take({})
        return kraus_channel([np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)])
    if name == "partial_teleportation":
        lam0 = _check_unit_interval("lam0", take({"lam0": 0.5})["lam0"])
        dd = np.diag([np.sqrt(lam0), np.sqrt(1 - lam0)]).astype(complex)
        paulis = [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]
        return kraus_channel([dd @ s / np.sqrt(2) for s in paulis])
    p = take({"dim": 2, "kraus": 2, "seed": 0})
    d, kk = _check_integer("dim", p["dim"]), _check_integer("kraus", p["kraus"])
    if d < 1 or kk < 1:
        raise ParamOutOfRange(f"random preset needs dim >= 1 and kraus >= 1, got {d}, {kk}")
    _check_entries(d * d * kk, f"random(dim={d}, kraus={kk})")
    v = numerics.haar_isometry(d * kk, d, p["seed"])
    return kraus_channel([v[k * d : (k + 1) * d, :] for k in range(kk)], drop_zero=False)
