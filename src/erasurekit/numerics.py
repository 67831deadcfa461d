"""Dense complex matrix decompositions, distances, and entropy primitives.

All functions operate on plain numpy arrays and are pure: randomness flows
only through explicit seeds into the package's one complex Gaussian draw,
``_complex_normal`` (item by item, all real parts and then all imaginary
parts), and everything is safe to call from any number of threads.
Entropic quantities use the natural logarithm (nats) throughout; the
constants in the Pinsker-type bounds hold as written only in that
convention.

One bounded cache sits under ``psd_eigh``, because one verify trial
decomposes the same few matrices (the state above all) many times over. It
is a two-entry LRU (``functools.lru_cache``, which is thread-safe) keyed by
the exact matrix, its shape and its bytes. So each entry keeps a copy of
its d x d input next to its eigenvalues and d x d eigenvectors, about twice
what the results alone take.
Only an exact byte-for-byte repeat hits, errors are never cached, and a hit
returns what the computation returns, so results do not depend on call
history. ``psd_eigh`` hands out read-only arrays, since a hit shares them
between callers.

Qubit work takes its small decompositions in closed form, because for a
2 x 2 matrix a LAPACK call costs far more than its arithmetic: on a 2-core
x86 host with OpenBLAS, a stacked 2 x 2 SVD takes about 15 us per call plus
4 us per matrix, the closed-form polar factor about 30 us per call plus
under 0.5 us per matrix. ``_trace_norms`` (``trace_norm``'s kernel) and
``_polar_factors`` give each 2 x 2 matrix's trace norm and unitary
polar factor without an SVD, and ``_orthonormalize`` writes out the QR of
a 2 x 2 Ginibre draw. Each selects its path by shape, and a lone matrix gets
the bits it gets in a stack; every other shape takes LAPACK, and the closed
forms agree with LAPACK to a few ulps.

The closed forms write out their sums over a matrix's four entries or a
column's two as explicit adds, in the order numpy's ``sum`` takes them, so
the bits are the same. numpy reduces a short trailing axis one output at a
time, and on a stack of 4,096 matrices the adds take under half the time of
that reduction. The complex Gaussian draws are likewise written part by part
into one preallocated array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BetaZero,
    DimensionMismatch,
    DivergentRelativeEntropy,
    NotDensity,
    NotFinite,
    NotPSD,
)

# Eigenvalues of nominally-PSD matrices in [-PSD_VIOLATION, 0) are float noise
# and are clamped to zero; anything lower is refused as a genuine violation.
PSD_VIOLATION = 1e-8

# Rank cutoff for every on-support pseudo-power (rho**(+-1/2) and friends).
RANK_CUTOFF = 1e-10

# A density matrix's trace must be one within this.
TRACE_ATOL = 1e-9

# An accepted state whose trace is further than this from one is renormalized.
TRACE_ROUNDING = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite complex 2-D array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NotFinite("matrix contains NaN or Inf entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (last two axes)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average away the anti-Hermitian float noise of a nominally Hermitian matrix.

    Works matrix by matrix on a stack (the last two axes).
    """
    return (a + a.conj().swapaxes(-1, -2)) / 2


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _complex_normal(
    rng: np.random.Generator, count: int, shape: tuple[int, ...], scale: float = 1.0
) -> np.ndarray:
    """``count`` complex Gaussian arrays of ``shape``, times ``scale``: item by item, all real
    parts and then all imaginary parts, so a seeded item does not depend on how many follow it."""
    return _complex_parts(rng.normal(size=(count, 2, *shape)), scale)


def _complex_parts(x: np.ndarray, scale: float) -> np.ndarray:
    """``scale * (x[:, 0] + 1j * x[:, 1])``, each part written into one complex array.

    numpy divides a complex array by a real d as a multiply of both parts by
    1 / d, so a ``scale`` of 1 / d gives that division's bits.
    """
    z = np.empty((len(x), *x.shape[2:]), dtype=complex)
    np.multiply(x[:, 0], scale, out=z.real)
    np.multiply(x[:, 1], scale, out=z.imag)
    return z


def _ginibre(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    # one item of ``shape``, so a seeded draw depends on the whole ``shape``
    return _complex_normal(rng, 1, shape, 1 / np.sqrt(2))[0]


def ginibre(rows: int, cols: int, seed) -> np.ndarray:
    """Standard complex Gaussian matrix (independent N(0, 1/2) real and imag parts)."""
    return _ginibre((rows, cols), _rng(seed))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Two entries hold every repeat a verify trial makes (its state and the
# matrix decomposed between two of its uses), and bound the memory kept.
@lru_cache(maxsize=2)
def _cached_psd_eigh(shape: tuple[int, int], data: bytes) -> tuple[np.ndarray, np.ndarray]:
    p = np.frombuffer(data, dtype=complex).reshape(shape)
    herm_dev = float(np.abs(p - dagger(p)).max(initial=0.0))
    if herm_dev > 1e-10:
        raise NotPSD(f"matrix is not Hermitian: max |P - P^dag| = {herm_dev:.3e}")
    w, v = np.linalg.eigh(hermitize(p))
    low = float(w.min(initial=0.0))
    if low < -PSD_VIOLATION:
        raise NotPSD(f"negative eigenvalue {low:.3e} below tolerance -{PSD_VIOLATION:.0e}")
    return _read_only(np.clip(w, 0.0, None)), _read_only(v)


def psd_eigh(p) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix with noise clamping.

    Rejects matrices that are not Hermitian within 1e-10 or have an eigenvalue
    below ``-PSD_VIOLATION``; negative eigenvalues above it are clamped to zero.
    The returned arrays are read-only: a repeat of the same matrix gets the
    same arrays from the module's cache.
    """
    p = as_matrix(p)
    if p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {p.shape}")
    return _cached_psd_eigh(p.shape, p.tobytes())


def psd_sqrt(p) -> np.ndarray:
    """Positive-semidefinite square root, with eigenvalue noise clamped to zero."""
    w, v = psd_eigh(p)
    return hermitize((v * np.sqrt(w)) @ dagger(v))


def psd_power(p, exponent: float) -> np.ndarray:
    """PSD matrix power restricted to the support (eigenvalues above ``RANK_CUTOFF``).

    Negative exponents give the pseudo-inverse power on the support, which is
    how every rho**(+-1/2) in this package is taken.
    """
    w, v = psd_eigh(p)
    keep = w > RANK_CUTOFF
    vk = v[:, keep]
    return hermitize((vk * w[keep] ** exponent) @ dagger(vk))


def support_rank(p) -> int:
    """Number of eigenvalues of a PSD matrix above ``RANK_CUTOFF``."""
    w, _ = psd_eigh(p)
    return int((w > RANK_CUTOFF).sum())


def trace_norm(a) -> float:
    """Trace norm ||a||_1 = sum of singular values, by the kernel ``_trace_norms``."""
    return float(_trace_norms(as_matrix(a)))


def _det_and_trace_norm(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and trace norm sqrt(||A||_F^2 + 2 |det A|) of each 2 x 2 matrix."""
    squares = stack.real**2
    squares += stack.imag**2
    # numpy's sum over the four entries, in its order; with the matrix axes
    # first, a lone matrix's entries are scalars, and .T restores batch axes
    s = squares.T
    frobenius_sq = (s[0, 0] + s[1, 0] + s[0, 1] + s[1, 1]).T
    del squares, s  # freed before the determinant's temporaries
    det = stack[..., 0, 0] * stack[..., 1, 1] - stack[..., 0, 1] * stack[..., 1, 0]
    return det, np.sqrt(frobenius_sq + 2 * np.abs(det))


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix over the last two axes of ``stack``, unchecked.

    2 x 2 matrices take the closed form (s1 + s2)^2 = ||A||_F^2 + 2 |det A|,
    which is exact and matches the singular-value sum to a few ulps; any
    other shape takes the values-only SVD.
    """
    if stack.shape[-2:] != (2, 2):
        return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
    return _det_and_trace_norm(stack)[1]


def _divide(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Complex ``x`` over positive real ``n``, one rounding per real component.

    ``n`` broadcasts against the real view of ``x``, whose last axis holds
    the real and imaginary parts side by side, so its own last axis has
    length 1. Dividing by ``n`` as a complex number rounds twice and leaves a
    unit vector a few ulps further from unit norm.
    """
    return (np.ascontiguousarray(x).view(np.float64) / n).view(np.complex128)


def _polar_factors(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norm t and unitary polar factor U of each matrix over the last two axes, unchecked.

    Re Tr[U^dag A] = t = ||A||_1 for every matrix. Square 2 x 2 matrices take
    the closed form U = S / t with S = A + e^{i arg det A} adj(A)^dag (Higham,
    SIAM J. Sci. Stat. Comput. 7, 1160 (1986)); the phase is 1 when det A = 0,
    which gives a valid completion of a rank-deficient A, and U = I when
    A = 0. Since ||S||_F = sqrt(2) t exactly, S is divided by its own
    ||S||_F / sqrt(2), which keeps U unitary to a few ulps; t is the formula of
    ``_trace_norms``. Any other shape takes the SVD, U = X Y^dag.
    """
    if stack.shape[-2:] != (2, 2):
        x, s, yh = np.linalg.svd(stack, full_matrices=False)
        return s.sum(axis=-1), x @ yh
    det, t = _det_and_trace_norm(stack)
    abs_det = np.abs(det)
    phase = np.divide(det, abs_det, out=np.ones_like(det), where=abs_det > 0)
    # adj(A)^dag of A = [[a, b], [c, d]] is [[d*, -c*], [-b*, a*]]
    adjoint = stack[..., ::-1, ::-1].conj()
    adjoint[..., 0, 1] *= -1
    adjoint[..., 1, 0] *= -1
    summed = np.ascontiguousarray(stack + phase[..., None, None] * adjoint)
    scale = np.sqrt(np.square(summed.view(np.float64)).sum(axis=(-2, -1)) / 2)
    if not scale.all():
        zero = scale == 0  # A = 0, so S = 0
        summed[zero], scale[zero] = np.eye(2), 1.0
    return t, _divide(summed, scale[..., None, None])


def ensure_density(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD within noise, unit trace within ``TRACE_ATOL``.

    A state with an eigenvalue clamped to zero, or a trace off one by more than
    TRACE_ROUNDING, is returned as its projection V diag(w / sum w) V^dag.
    """
    rho = as_matrix(rho)
    try:
        w, v = psd_eigh(rho)
    except NotPSD as exc:
        raise NotDensity(str(exc)) from exc
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise NotDensity(f"trace is {tr:.12g}, expected 1 within {TRACE_ATOL:.0e}")
    if w[0] == 0 or abs(tr - 1.0) > TRACE_ROUNDING:  # w ascends, so w[0] is the least
        return hermitize((v * (w / w.sum())) @ dagger(v))
    return rho


def uhlmann_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Both arguments must be density matrices of the same dimension (else
    NotDensity or DimensionMismatch). The result lies in [0, 1] up to float
    noise and is symmetric in its arguments.
    """
    rho = ensure_density(rho)
    sigma = ensure_density(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"state shapes differ: {rho.shape} vs {sigma.shape}")
    s = psd_sqrt(rho)
    w, _ = psd_eigh(s @ sigma @ s)
    return float(np.sqrt(w).sum())


def _as_weights(w) -> np.ndarray:
    w = np.asarray(w, dtype=float).reshape(-1)
    if not np.all(np.isfinite(w)):
        raise NotFinite("probability vector contains NaN or Inf entries")
    return w


def _entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each vector over the last axis, unchecked, with 0 ln 0 = 0."""
    return -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=-1)


def shannon_entropy(p) -> float:
    """Shannon entropy in nats, with the 0 ln 0 = 0 convention."""
    return float(_entropy(_as_weights(p)))


def relative_entropy(r, s) -> float:
    """Relative entropy D(r||s) = sum r(k) ln(r(k)/s(k)) in nats.

    Entries where r(k) = 0 contribute nothing regardless of s(k); an entry
    with r(k) > 0 but s(k) = 0 makes the divergence infinite and raises
    DivergentRelativeEntropy instead of returning a value.
    """
    r = _as_weights(r)
    s = _as_weights(s)
    if r.shape != s.shape:
        raise DimensionMismatch(f"length mismatch: {r.size} vs {s.size}")
    mask = r > 0
    if np.any(s[mask] <= 0):
        raise DivergentRelativeEntropy("s(k) = 0 on an outcome with r(k) > 0")
    rm = r[mask]
    return float((rm * np.log(rm / s[mask])).sum())


@dataclass(frozen=True)
class EntropyBounds:
    """l1 distance, divergence, and the slack of each Pinsker-type bound."""

    l1: float
    divergence: float
    lower_slack: float
    upper_slack: float


def verify_entropy_bounds(r, s) -> EntropyBounds:
    """Check (1/2)||r-s||_1^2 <= D(r||s) <= (1/beta)||r-s||_1^2, beta = min_k s(k).

    Returns the two slacks (each nonnegative up to float noise for valid
    inputs); ``s`` must be entrywise strictly positive for the upper bound.
    """
    r = _as_weights(r)
    s = _as_weights(s)
    if r.shape != s.shape:
        raise DimensionMismatch(f"length mismatch: {r.size} vs {s.size}")
    beta = float(s.min(initial=np.inf))
    if beta <= 0:
        raise BetaZero("upper bound needs min_k s(k) > 0")
    l1 = float(np.abs(r - s).sum())
    div = relative_entropy(r, s)
    return EntropyBounds(
        l1=l1,
        divergence=div,
        lower_slack=div - 0.5 * l1**2,
        upper_slack=l1**2 / beta - div,
    )


def _unit(v: np.ndarray) -> np.ndarray:
    """Each 2-vector over the last axis of ``v`` divided by its Euclidean norm."""
    squares = v.real**2 + v.imag**2
    return _divide(v, np.sqrt(squares[..., :1] + squares[..., 1:]))


def _haar(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Haar isometries of the last two axes of ``shape``: orthonormalized Ginibre draws."""
    return _orthonormalize(_ginibre(shape, rng))


def _haar_each(shape: tuple[int, int], rngs: list[np.random.Generator]) -> np.ndarray:
    """The stack of ``_haar(shape, rng)`` for each generator in ``rngs``: each draws its
    own normals, and all of them are assembled and orthonormalized in one call."""
    x = np.stack([rng.normal(size=(2, *shape)) for rng in rngs])
    return _orthonormalize(_complex_parts(x, 1 / np.sqrt(2)))


def _orthonormalize(g: np.ndarray) -> np.ndarray:
    """The Q of each G = QR over the last two axes of ``g``, R's diagonal real and positive.

    On complex Ginibre matrices this is the exact Haar distribution (Mezzadri,
    Notices AMS 54, 592 (2007)). 2 x 2 matrices write that Q out: q1 = g1 / |g1|,
    and q2 is the unit vector w orthogonal to q1 times the phase z / |z| of
    z = w^dag g2. Every other shape takes LAPACK's QR, per matrix of a stack,
    and normalizes the phases of R's diagonal. A lone matrix is a stack of
    one, so it gets the same bits as at any position in a stack.
    """
    if g.ndim == 2:
        return _orthonormalize(g[None])[0]
    if g.shape[-2:] == (2, 2):
        q = np.empty_like(g)
        q[..., 0] = _unit(g[..., 0])
        # w = (-b*, a*) for q1 = (a, b); w z is g2 less its component along
        # q1, and |w z| = |z|
        a, b = q[..., 0, 0], q[..., 1, 0]
        z = a * g[..., 1, 1] - b * g[..., 0, 1]
        q[..., 0, 1] = -b.conj() * z
        q[..., 1, 1] = a.conj() * z
        q[..., 1] = _unit(q[..., 1])
        return q
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_isometry(rows: int, cols: int, seed) -> np.ndarray:
    """Haar-distributed isometry (orthonormal columns) of shape rows x cols.

    Deterministic for a fixed seed.
    """
    if cols < 1 or rows < cols:
        raise DimensionMismatch(f"need rows >= cols >= 1, got {rows} x {cols}")
    return _haar((rows, cols), _rng(seed))


def random_density(d: int, seed, *, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a normalized Ginibre product (full rank by default)."""
    if d < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {d}")
    r = d if rank is None else rank
    if not 1 <= r <= d:
        raise DimensionMismatch(f"rank must be in [1, {d}], got {r}")
    g = ginibre(d, r, seed)
    p = g @ dagger(g)
    return hermitize(p / np.trace(p).real)
