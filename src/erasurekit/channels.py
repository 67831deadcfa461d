"""Quantum channels as finite Kraus families, their Choi matrices, and presets.

A channel E(rho) = sum_k E_k rho E_k^dag is stored as the concrete operator
family {E_k}, not as an abstract map: the family fixes which indirect
measurement realizes the channel, so two Kraus decompositions of the same
map are different probe configurations even though they are channel-equal
(equality is decided on Choi matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

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
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)

COMPLETENESS_ATOL = 1e-9

# Channels are equal when their Choi matrices are within this in trace norm.
CHOI_ATOL = 1e-9

# Largest complex array a request may build, in entries (256 MiB): the random
# preset's (d K) x d isometry, or the optimizer's m x K mixings and m x d x d
# branches. Sizes are checked in integer arithmetic before anything is allocated.
_MAX_ENTRIES = 2**24


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


def kraus_channel(operators) -> KrausChannel:
    """Build a channel from an operator family, keeping each operator as given.

    A zero operator stays: it is an outcome that never occurs. Completeness
    is *not* checked here (see ``validate``): invalid families must be
    constructible so they can be diagnosed.
    """
    ops = [numerics.as_matrix(e) for e in operators]
    if not ops:
        raise DimensionMismatch("a channel needs at least one Kraus operator")
    d = ops[0].shape[0]
    for e in ops:
        if e.shape != (d, d):
            raise DimensionMismatch(f"Kraus operators must all be {d} x {d}, got {e.shape}")
    return KrausChannel(dim=d, stack=numerics._read_only(np.stack(ops)))


def validate(channel: KrausChannel) -> None:
    """Raise NotTracePreserving unless sum_k E_k^dag E_k = I within 1e-9."""
    ops = channel.stack
    total = np.einsum("kba,kbc->ac", ops.conj(), ops)
    deviation = float(np.abs(total - np.eye(channel.dim)).max())
    if deviation > COMPLETENESS_ATOL:
        raise NotTracePreserving(f"Kraus completeness violated: max deviation {deviation:.3e}")


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


def _count(name: str, value) -> int:
    """``value`` as an int >= 1; an integral float passes, anything else is refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, Integral) and not isinstance(value, bool) and value >= 1:
        return int(value)
    raise ParamOutOfRange(f"{name} must be an integer >= 1, got {value!r}")


def _is_real(x) -> bool:
    """A number that converts to a float; bools and integers past the float range are not."""
    if isinstance(x, bool) or not isinstance(x, Real):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _unit_interval(name: str, value) -> float:
    if _is_real(value) and 0.0 <= float(value) <= 1.0:
        return float(value)
    raise ParamOutOfRange(f"{name} must be a number in [0, 1], got {value!r}")


def _seed(name: str, value):
    """A Generator, a non-negative integer or a list of them (numpy's seed forms)."""
    if isinstance(value, np.random.Generator):
        return value
    parts = value if isinstance(value, list) else [value]
    if all(isinstance(v, Integral) and not isinstance(v, bool) and v >= 0 for v in parts):
        return value
    raise ParamOutOfRange(
        f"{name} must be a Generator, a non-negative integer or a list of them, got {value!r}"
    )


def _identity(dim: int) -> KrausChannel:
    _check_entries(dim * dim, f"identity(dim={dim})")
    return kraus_channel([np.eye(dim, dtype=complex)])


def _dephasing(p: float) -> KrausChannel:
    a, b = np.sqrt(1 - p), np.sqrt(p)
    return kraus_channel([(a * PAULI_I + sign * b * PAULI_Z) / np.sqrt(2) for sign in (1, -1)])


def _depolarizing(p: float) -> KrausChannel:
    weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    return kraus_channel([np.sqrt(w) * s for w, s in zip(weights, PAULIS)])


def _amplitude_damping(gamma: float) -> KrausChannel:
    e0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    e1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return kraus_channel([e0, e1])


def _eraser_cnot() -> KrausChannel:
    return kraus_channel([np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)])


def _partial_teleportation(lam0: float) -> KrausChannel:
    dd = np.diag([np.sqrt(lam0), np.sqrt(1 - lam0)]).astype(complex)
    return kraus_channel([dd @ s / np.sqrt(2) for s in PAULIS])


def _random(dim: int, kraus: int, seed) -> KrausChannel:
    _check_entries(dim * dim * kraus, f"random(dim={dim}, kraus={kraus})")
    v = numerics.haar_isometry(dim * kraus, dim, seed)
    return kraus_channel([v[k * dim : (k + 1) * dim, :] for k in range(kraus)])


# Every preset: its parameters with their defaults, and the function that
# builds its channel from them.
PRESETS = {
    "identity": ({"dim": 2}, _identity),
    "dephasing": ({"p": 0.5}, _dephasing),
    "depolarizing": ({"p": 0.5}, _depolarizing),
    "amplitude_damping": ({"gamma": 0.5}, _amplitude_damping),
    "eraser_cnot": ({}, _eraser_cnot),
    "partial_teleportation": ({"lam0": 0.5}, _partial_teleportation),
    "random": ({"dim": 2, "kraus": 2, "seed": 0}, _random),
}

# The checker for each parameter, one per kind: the unit interval, an integer
# >= 1, and a seed.
_CHECKS = {
    "p": _unit_interval,
    "gamma": _unit_interval,
    "lam0": _unit_interval,
    "dim": _count,
    "kraus": _count,
    "seed": _seed,
}


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
        {[[1,0],[0,sqrt(1-g)]], [[0,sqrt(g)],[0,0]]}.
    eraser_cnot()
        {|0><0|, |1><1|}: the system dephased by a CNOT onto the probe.
    partial_teleportation(lam0=0.5)
        E_j = D sigma_j / sqrt2 over the four Paulis, D = diag(sqrt(lam0),
        sqrt(1-lam0)); completeness is exact since lam0 + (1-lam0) = 1.
    random(dim=2, kraus=2, seed=0)
        Seeded Ginibre blocks orthonormalized into an isometry, then split.

    p, gamma and lam0 are real numbers in [0, 1]; dim and kraus integers
    >= 1 (an integral float such as 2.0 passes); seed a numpy Generator, a
    non-negative integer or a list of them. Anything else, or a parameter the
    preset does not take, raises ParamOutOfRange.
    """
    if not isinstance(name, str) or name not in PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    defaults, build = PRESETS[name]
    extra = set(params) - set(defaults)
    if extra:
        raise ParamOutOfRange(f"unexpected parameter(s) {sorted(extra)} for preset {name!r}")
    return build(**{k: _CHECKS[k](k, params.get(k, v)) for k, v in defaults.items()})
