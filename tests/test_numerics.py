import numpy as np
import pytest

from erasurekit import (
    haar_isometry,
    numerics,
    psd_sqrt,
    random_density,
    relative_entropy,
    shannon_entropy,
    trace_norm,
    uhlmann_fidelity,
    verify_entropy_bounds,
)
from erasurekit.errors import (
    BetaZero,
    DimensionMismatch,
    DivergentRelativeEntropy,
    NotDensity,
    NotFinite,
    NotPSD,
)
from erasurekit.numerics import _haar, _polar_factors, _trace_norms, ginibre

Z = np.diag([1.0, -1.0]).astype(complex)


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_scaled_identity(self):
        assert np.allclose(psd_sqrt(np.eye(2) / 2), np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_reconstruction_seed13(self):
        g = ginibre(4, 4, 13)
        p = g @ g.conj().T
        s = psd_sqrt(p)
        assert np.abs(s @ s - p).max() < 1e-10

    def test_square_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            g = ginibre(d, int(rng.integers(1, d + 1)), rng)
            p = g @ g.conj().T
            s = psd_sqrt(p)
            assert np.abs(s @ s - p).max() < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1e-6]))

    def test_clamps_noise(self):
        s = psd_sqrt(np.diag([1.0, -5e-11]))
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-5)


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_nilpotent(self):
        assert trace_norm(np.array([[0, 1], [0, 0]])) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_pauli(self):
        assert trace_norm((np.eye(2) / 2) @ (Z / np.sqrt(2))) == pytest.approx(
            2**-0.5, abs=1e-12
        )

    def test_norm_axioms(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            a, b = ginibre(d, d, rng), ginibre(d, d, rng)
            c = rng.normal() + 1j * rng.normal()
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
            assert abs(trace_norm(c * a) - abs(c) * trace_norm(a)) < 1e-10

    def test_rejects_nan(self):
        with pytest.raises(NotFinite):
            trace_norm(np.array([[np.nan, 0], [0, 0]]))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (2, 3)])
    def test_is_the_stacked_kernel_bit_for_bit(self, shape):
        # one kernel per trace norm, so f_ea and the chain's trace distances
        # agree in every bit with assisted_fidelity's stacked call
        for seed in range(40):
            a = ginibre(*shape, [44, seed])
            assert trace_norm(a) == float(_trace_norms(numerics.as_matrix(a)))

    def test_qubit_takes_no_svd(self, monkeypatch):
        numerics._cached_trace_norm.cache_clear()
        real = np.linalg.svd
        seen = []

        def spy(a, *args, **kwargs):
            seen.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for seed in range(5):
            trace_norm(ginibre(2, 2, [45, seed]))
        assert seen == []
        trace_norm(ginibre(3, 3, 46))
        assert seen == [(3, 3)]


def _svd_trace_norms(stack):
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


def _assert_within_8_eps(stack):
    got, want = _trace_norms(stack), _svd_trace_norms(stack)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)


class TestTraceNorms:
    def test_haar_and_ginibre_stacks(self):
        rng = np.random.default_rng(40)
        _assert_within_8_eps(_haar((512, 3, 2, 2), rng))
        g = ginibre(4096, 2, rng).reshape(2048, 2, 2)
        _assert_within_8_eps(g * rng.exponential(size=(2048, 1, 1)))

    def test_rank_one_stacks(self):
        rng = np.random.default_rng(41)
        u, v = ginibre(1024, 2, rng), ginibre(1024, 2, rng)
        _assert_within_8_eps(u[:, :, None] * v.conj()[:, None, :])

    @pytest.mark.parametrize("ratio", [10.0**-k for k in range(4, 17)])
    def test_near_rank_one_stacks(self, ratio):
        rng = np.random.default_rng([42, int(-np.log10(ratio))])
        u, v = _haar((256, 2, 2), rng), _haar((256, 2, 2), rng)
        s1 = rng.exponential(size=256)
        stack = (u * np.stack([s1, ratio * s1], axis=-1)[:, None, :]) @ v
        _assert_within_8_eps(stack)

    def test_zero_matrices(self):
        zeros = np.zeros((5, 2, 2), dtype=complex)
        assert np.array_equal(_trace_norms(zeros), np.zeros(5))

    @pytest.mark.parametrize("d", [3, 4])
    def test_other_shapes_are_the_svd_bit_for_bit(self, d):
        rng = np.random.default_rng(43 + d)
        stack = ginibre(64 * 3 * d, d, rng).reshape(64, 3, d, d)
        assert np.array_equal(_trace_norms(stack), _svd_trace_norms(stack))


EPS = np.finfo(float).eps


def _unitarity(u):
    return np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))


def _near_rank_one(ratio, count, seed):
    rng = np.random.default_rng(seed)
    u, v = _haar((count, 2, 2), rng), _haar((count, 2, 2), rng)
    s1 = rng.exponential(size=count)
    return (u * np.stack([s1, ratio * s1], axis=-1)[:, None, :]) @ v


def _pad(a):
    """``a`` as the top-left block of a 3 x 3 matrix with a 1 below it, so it takes LAPACK."""
    out = np.eye(3, dtype=complex)
    out[:2, :2] = a
    return out


def assert_polar_factor(a):
    """U is unitary and U (U^dag A) = A with U^dag A Hermitian PSD, whichever path ``a`` takes."""
    d = a.shape[-1]
    _, u = _polar_factors(a)
    assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10
    p = u.conj().T @ a
    scale = max(float(np.linalg.norm(a)), 1.0)
    assert np.abs(p - p.conj().T).max() < 1e-10 * scale
    assert np.linalg.eigvalsh((p + p.conj().T) / 2).min() > -1e-10 * scale
    assert np.abs(u @ p - a).max() < 1e-9


class TestPolarFactors:
    def assert_closed_form_holds(self, stack):
        t, u = _polar_factors(stack)
        frobenius = np.linalg.norm(stack, axis=(-2, -1))
        assert t.shape == stack.shape[:-2] and u.shape == stack.shape
        assert np.all(np.abs(t - _svd_trace_norms(stack)) <= 8 * EPS * frobenius)
        assert np.all(_unitarity(u) <= 4 * EPS)
        overlap = np.einsum("...ab,...ab->...", u.conj(), stack).real
        assert np.all(np.abs(overlap - t) <= 8 * EPS * frobenius)
        assert np.array_equal(t, _trace_norms(stack))

    def test_ginibre_stacks(self):
        rng = np.random.default_rng(50)
        g = ginibre(8192, 2, rng).reshape(4096, 2, 2)
        self.assert_closed_form_holds(g * rng.exponential(size=(4096, 1, 1)))
        self.assert_closed_form_holds(ginibre(4 * 3 * 2, 2, rng).reshape(4, 3, 2, 2))
        self.assert_closed_form_holds(g[::2].swapaxes(-1, -2))  # a strided view

    def test_rank_one_stacks(self):
        rng = np.random.default_rng(51)
        u, v = ginibre(1024, 2, rng), ginibre(1024, 2, rng)
        self.assert_closed_form_holds(u[:, :, None] * v.conj()[:, None, :])

    @pytest.mark.parametrize("ratio", [10.0**-k for k in range(4, 17)])
    def test_near_rank_one_stacks(self, ratio):
        self.assert_closed_form_holds(_near_rank_one(ratio, 512, [52, int(-np.log10(ratio))]))

    def test_zero_matrices_get_the_identity(self):
        stack = ginibre(12, 2, 53).reshape(6, 2, 2)
        stack[[1, 4]] = 0
        t, u = _polar_factors(stack)
        assert np.array_equal(t[[1, 4]], np.zeros(2))
        assert np.array_equal(u[[1, 4]], np.broadcast_to(np.eye(2), (2, 2, 2)))
        self.assert_closed_form_holds(stack)

    def test_identity(self):
        for d in (2, 3):
            t, u = _polar_factors(np.eye(d, dtype=complex))
            assert t == d and np.array_equal(u, np.eye(d))
            assert_polar_factor(np.eye(d, dtype=complex))

    def test_real_diagonal(self):
        t, u = _polar_factors(np.diag([2.0, -3.0]).astype(complex))
        assert t == 5.0
        assert np.abs(u - np.diag([1.0, -1.0])).max() <= EPS

    def test_real_diagonal_positive_part(self):
        # U = diag(1, -1) and U^dag A = diag(2, 3), on both paths
        a = np.diag([2.0, -3.0]).astype(complex)
        for stack, u_want, p_want in (
            (a, np.diag([1.0, -1.0]), np.diag([2.0, 3.0])),
            (_pad(a), np.diag([1.0, -1.0, 1.0]), np.diag([2.0, 3.0, 1.0])),
        ):
            _, u = _polar_factors(stack)
            assert np.abs(u - u_want).max() < 1e-12
            assert np.abs(u.conj().T @ stack - p_want).max() < 1e-12
            assert_polar_factor(stack)

    def test_rank_deficient_completion(self):
        # U on the null space of U^dag A is not fixed by A; any unitary
        # completion must give back A
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        for stack in (a, _pad(a)):
            assert_polar_factor(stack)
        assert np.abs(_polar_factors(a)[1].conj().T @ a - np.diag([0.0, 1.0])).max() <= EPS

    def test_reconstruction_sweep(self):
        # 500 seeded random square matrices, d = 1..6, on both paths
        rng = np.random.default_rng(100)
        for _ in range(500):
            d = int(rng.integers(1, 7))
            assert_polar_factor(ginibre(d, d, rng) * rng.uniform(0.1, 10))

    @pytest.mark.parametrize("shape", [(64, 3, 3), (16, 2, 4, 4), (64, 3, 2), (64, 2, 3)])
    def test_other_shapes_are_the_svd_bit_for_bit(self, shape):
        rng = np.random.default_rng([54, *shape])
        stack = ginibre(int(np.prod(shape[:-1])), shape[-1], rng).reshape(shape)
        t, u = _polar_factors(stack)
        x, s, yh = np.linalg.svd(stack, full_matrices=False)
        assert np.array_equal(t, s.sum(axis=-1))
        assert np.array_equal(u, x @ yh)


class TestUhlmannFidelity:
    def test_identical(self):
        rho = random_density(3, 2)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure(self):
        assert uhlmann_fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_mixed_vs_pure(self):
        assert uhlmann_fidelity(np.eye(2) / 2, np.diag([1.0, 0.0])) == pytest.approx(
            2**-0.5, abs=1e-12
        )

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_density(3, rng), random_density(3, rng)
            assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            uhlmann_fidelity(np.eye(2) / 2, np.eye(3) / 3)

    @pytest.mark.parametrize(
        "bad", [np.diag([1.5, -0.5]), np.eye(2), np.array([[0.5, 0.1], [0.0, 0.5]])]
    )
    def test_either_argument_must_be_a_density(self, bad):
        for args in ((bad, np.eye(2) / 2), (np.eye(2) / 2, bad)):
            with pytest.raises(NotDensity):
                uhlmann_fidelity(*args)

    def test_fidelity_trace_norm_bounds(self):
        # the two relations the inequality chains lean on
        rng = np.random.default_rng(17)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            a, b = random_density(d, rng), random_density(d, rng)
            f = uhlmann_fidelity(a, b)
            t = trace_norm(a - b)
            assert f**2 <= 1 - t**2 / 4 + 1e-10
            assert f**2 >= 1 - t - 1e-10


class TestEntropies:
    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_fair_bit(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.random(int(rng.integers(1, 10)))
            assert shannon_entropy(p / p.sum()) >= 0.0

    def test_relative_entropy_self(self):
        p = np.array([0.3, 0.2, 0.5])
        assert relative_entropy(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_relative_entropy_point_vs_fair(self):
        assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            np.log(2), abs=1e-12
        )

    def test_relative_entropy_divergent(self):
        with pytest.raises(DivergentRelativeEntropy):
            relative_entropy([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy([1.0], [0.5, 0.5])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: numerics.as_matrix(np.ones(3)), DimensionMismatch, "ndim=1"),
        (lambda: numerics.psd_eigh(np.zeros((2, 3))), DimensionMismatch, "square"),
        (lambda: shannon_entropy([0.5, np.nan]), NotFinite, "NaN"),
        (lambda: verify_entropy_bounds([1.0], [0.5, 0.5]), DimensionMismatch, "1 vs 2"),
    ],
    ids=["matrix-ndim", "eigh-not-square", "weight-nan", "bounds-lengths"],
)
def test_malformed_arrays_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("d, rank", [(0, None), (-1, None), (2, 0), (2, 3)])
def test_random_density_refuses_a_bad_dimension_or_rank(d, rank):
    with pytest.raises(DimensionMismatch):
        random_density(d, 0, rank=rank)


class TestEntropyBounds:
    def test_coincident(self):
        b = verify_entropy_bounds([0.5, 0.5], [0.5, 0.5])
        assert b.l1 == 0.0 and b.divergence == 0.0
        assert b.lower_slack == 0.0 and b.upper_slack == 0.0

    def test_point_vs_fair(self):
        b = verify_entropy_bounds([1.0, 0.0], [0.5, 0.5])
        assert b.l1 == pytest.approx(1.0, abs=1e-12)
        assert b.divergence == pytest.approx(np.log(2), abs=1e-12)
        assert b.lower_slack == pytest.approx(np.log(2) - 0.5, abs=1e-12)
        assert b.upper_slack == pytest.approx(2 - np.log(2), abs=1e-12)

    def test_beta_zero(self):
        with pytest.raises(BetaZero):
            verify_entropy_bounds([0.5, 0.5], [1.0, 0.0])

    def test_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            s = rng.random(n) + 1e-3
            s = (1 - n * 1e-4) * (s / s.sum()) + 1e-4
            r = rng.random(n)
            b = verify_entropy_bounds(r / r.sum(), s)
            assert b.lower_slack >= -1e-12
            assert b.upper_slack >= -1e-12


class TestHaarUnitary:
    def test_scalar_phase(self):
        u = haar_isometry(1, 1, 5)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_isometry(self):
        for seed in range(10):
            d = 2 + seed % 5
            u = haar_isometry(d, d, seed)
            assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10

    def test_deterministic(self):
        assert np.array_equal(haar_isometry(3, 3, 42), haar_isometry(3, 3, 42))

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (4, 4), (16, 16), (8, 3)])
    def test_bit_identical_to_the_ginibre_qr_draw(self, rows, cols):
        # the isometry as it was drawn before it shared numerics._haar; a
        # 2 x 2 draw writes out that QR, so it agrees to rounding, scaled by
        # the conditioning of the Ginibre matrix
        g = ginibre(rows, cols, [rows, cols])
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        reference = q * (d / np.abs(d))
        drawn = haar_isometry(rows, cols, [rows, cols])
        if (rows, cols) == (2, 2):
            bound = 8 * EPS * np.linalg.norm(g) / abs(r[1, 1])
            assert np.abs(drawn - reference).max() <= bound
        else:
            assert np.array_equal(drawn, reference)

    def test_2x2_stacks_are_the_qr_draw_of_the_same_ginibre_matrices(self):
        # the closed form replaces LAPACK's QR, never the random draw
        g = numerics._ginibre((8192, 2, 2), np.random.default_rng(60))
        q = _haar((8192, 2, 2), np.random.default_rng(60))
        assert _unitarity(q).max() <= 4 * EPS
        r = q.conj().swapaxes(-1, -2) @ g
        frobenius = np.linalg.norm(g, axis=(-2, -1))
        assert np.all(np.abs(r[:, 1, 0]) <= 4 * EPS * frobenius)
        diagonal = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.all(diagonal.real > 0)
        assert np.all(np.abs(diagonal.imag) <= 4 * EPS * frobenius[:, None])
        q_ref, r_ref = np.linalg.qr(g)
        d = np.diagonal(r_ref, axis1=-2, axis2=-1)
        reference = q_ref * (d / np.abs(d))[:, None, :]
        bound = 8 * EPS * frobenius / np.abs(r_ref[:, 1, 1])
        assert np.all(np.abs(q - reference).max(axis=(-2, -1)) <= bound)

    @pytest.mark.parametrize("shape", [(5, 2, 2), (3, 4, 2, 2)])
    def test_2x2_stacks_of_any_batch_shape(self, shape):
        q = _haar(shape, np.random.default_rng(61))
        assert q.shape == shape and _unitarity(q).max() <= 4 * EPS

    def test_zero_dim_rejected(self):
        with pytest.raises(DimensionMismatch):
            haar_isometry(0, 0, 1)

    def test_trace_moment_statistics(self):
        # E|Tr U|^2 = 1 for the Haar measure on U(d); a grossly biased sampler
        # (e.g. QR without the phase fix) lands far from 1
        rng = np.random.default_rng(314)
        samples = [abs(np.trace(haar_isometry(3, 3, rng))) ** 2 for _ in range(4000)]
        assert abs(np.mean(samples) - 1.0) < 0.1
