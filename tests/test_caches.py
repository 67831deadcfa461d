"""The bounded cache under ``psd_eigh``, ``trace_norm``, and the operator stack.

The references below call numpy directly, with no cache, and do the same
arithmetic as the package's functions, so results must be bitwise equal.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from erasurekit import kraus_channel, numerics, preset
from erasurekit.cli import main
from erasurekit.errors import NotPSD


def _ref_psd_eigh(p):
    w, v = np.linalg.eigh((p + p.conj().T) / 2)
    return np.clip(w, 0.0, None), v


def _ref_trace_norm(a):
    # the arithmetic of numerics._trace_norms: the closed form
    # sqrt(||A||_F^2 + 2 |det A|) for 2 x 2, the singular-value sum otherwise
    if a.shape == (2, 2):
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        return float(np.sqrt((a.real**2 + a.imag**2).sum() + 2 * np.abs(det)))
    return float(np.linalg.svd(a, compute_uv=False).sum())


def _clear():
    numerics._cached_psd_eigh.cache_clear()


@pytest.fixture(autouse=True)
def empty_caches():
    _clear()
    yield
    _clear()


def _seeded_matrices(count):
    """``count`` (density, general) matrix pairs at dimensions 2..6."""
    out = []
    for i in range(count):
        d = 2 + i % 5
        out.append((numerics.random_density(d, [17, i]), numerics.ginibre(d, d, [18, i])))
    return out


def test_bitwise_equal_to_the_uncached_reference_through_evictions_and_hits():
    mats = _seeded_matrices(80)  # more than the cache holds
    order = np.random.default_rng(5).integers(0, len(mats), size=600)
    for i in order:
        rho, a = mats[i]
        w, v = numerics.psd_eigh(rho)
        w_ref, v_ref = _ref_psd_eigh(rho)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
        assert numerics.trace_norm(a) == _ref_trace_norm(a)
        assert numerics.trace_norm(rho) == _ref_trace_norm(rho)
    info = numerics._cached_psd_eigh.cache_info()
    # repeats inside the window hit; repeats after an eviction recompute
    assert info.hits > 0 and info.misses > len(mats)
    assert info.currsize == info.maxsize


def test_threads_sharing_the_caches_get_the_reference_results():
    mats = _seeded_matrices(20)
    expected = [(_ref_psd_eigh(rho), _ref_trace_norm(a)) for rho, a in mats]
    wrong = []

    def work(seed):
        for i in np.random.default_rng(seed).integers(0, len(mats), size=300):
            rho, a = mats[i]
            (w_ref, v_ref), t_ref = expected[i]
            w, v = numerics.psd_eigh(rho)
            ok = np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
            if not (ok and numerics.trace_norm(a) == t_ref):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),  # not Hermitian
        np.diag([1.1, -0.1]).astype(complex),  # negative eigenvalue
    ],
)
def test_a_rejected_matrix_raises_on_every_call(bad):
    for n in range(1, 4):
        with pytest.raises(NotPSD):
            numerics.psd_eigh(bad)
        info = numerics._cached_psd_eigh.cache_info()
        assert (info.misses, info.currsize) == (n, 0)


def test_psd_violation_bounds_the_clamp():
    p = np.diag([1 + 5e-9, -5e-9]).astype(complex)
    w, _ = numerics.psd_eigh(p)
    assert w[0] == 0.0
    with pytest.raises(NotPSD):
        numerics.psd_eigh(np.diag([1 + 2e-8, -2e-8]).astype(complex))


def test_an_input_edited_in_place_gets_its_new_result():
    rho = numerics.random_density(3, 4)
    a = numerics.ginibre(3, 3, 5)
    numerics.psd_eigh(rho)
    numerics.trace_norm(a)
    rho *= 0.5
    a[0, 0] += 1.0
    w, v = numerics.psd_eigh(rho)
    w_ref, v_ref = _ref_psd_eigh(rho)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert numerics.trace_norm(a) == _ref_trace_norm(a)


def test_an_entry_keeps_no_reference_to_its_input():
    a = numerics.ginibre(64, 64, 6)
    alive = weakref.ref(a)
    numerics.trace_norm(a)
    numerics.psd_eigh(a @ a.conj().T)
    del a
    gc.collect()
    assert alive() is None
    assert numerics._cached_psd_eigh.cache_info().currsize == 1


def test_shared_outputs_are_read_only():
    w, v = numerics.psd_eigh(numerics.random_density(2, 7))
    ch = preset("depolarizing", p=0.3)
    assert ch.stack.shape == (4, 2, 2)
    for array in (w, v, ch.stack, ch.operators[0]):
        with pytest.raises(ValueError):
            array[0] = 0


def test_channel_operators_are_slices_of_its_one_stack():
    ops = [e.copy() for e in preset("random", dim=3, kraus=4, seed=2).stack]
    ch = kraus_channel(ops)
    assert ch.kraus_count == 4
    for k, e in enumerate(ch.operators):
        assert np.shares_memory(e, ch.stack)
        assert np.array_equal(e, ops[k]) and np.array_equal(ch.stack[k], ops[k])
    ops[0][0, 0] += 1.0  # the channel keeps its own copy
    assert not np.array_equal(ch.operators[0], ops[0])


def test_verify_output_does_not_depend_on_call_history(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    argv = ["verify", "--trials", "50", "--seed", "3", "--out", str(out)]

    def run():
        assert main(argv) == 0
        return out.read_bytes(), capsys.readouterr().out

    first = run()
    _clear()
    assert run() == first
    other = tmp_path / "other"
    assert main(["analyze", "--preset", "random", "--dim", "3", "--out", f"{other}.json"]) == 0
    assert main(["optimize", "--preset", "amplitude_damping", "--restarts", "2",
                 "--out", f"{other}.json"]) == 0
    assert main(["scenario", "--name", "eraser", "--grid", "5", "--out", f"{other}.csv"]) == 0
    assert main(["verify", "--trials", "7", "--seed", "9", "--out", f"{other}.csv"]) == 0
    capsys.readouterr()
    assert run() == first
