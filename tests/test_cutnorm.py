import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphonlab import (
    Kernel,
    StepFunction,
    apply_permutation,
    bilinear_form,
    cutnorm_bracket,
    cutnorm_exact,
    cutnorm_heuristic,
    decompose,
    kernel_from_matrix,
    operator_norm_upper,
    spectral_radius,
    tail_truncate,
    expand_step,
    DiscreteSpace,
)
from graphonlab import cutnorm
from graphonlab.cutnorm import EXACT_CEILING, _ascend, _best_signs, _search_matrix, _sign
from graphonlab.errors import DimensionMismatchError, TooLargeError
from graphonlab.spectral import gap_midpoints, spectrum

from conftest import random_symmetric


def brute_force_cutnorm(kernel):
    """Independent oracle: every one of the 2^n x 2^n sign pairs, no vertex
    shortcut, evaluated as one big bilinear table."""
    n = kernel.n
    w = kernel.space.weights
    a = kernel.values * np.outer(w, w)
    codes = np.arange(1 << n, dtype=np.int64)
    signs = np.empty((codes.size, n))
    for bit in range(n):
        signs[:, bit] = np.where((codes >> bit) & 1, -1.0, 1.0)
    r = signs @ a  # rows f^T A
    best = 0.0
    for off in range(0, signs.shape[0], 512):
        v = r @ signs[off : off + 512].T
        np.abs(v, out=v)
        best = max(best, float(v.max()))
    return best


class TestBilinearForm:
    def test_all_ones_on_constant(self):
        k = kernel_from_matrix(np.full((3, 3), 0.4))
        assert bilinear_form(np.ones(3), k, np.ones(3)) == pytest.approx(0.4, abs=1e-15)

    def test_zero_vector(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 4))
        assert bilinear_form(np.zeros(4), k, np.ones(4)) == 0.0

    def test_matches_double_loop_oracle(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 5), weights=[0.1, 0.2, 0.3, 0.2, 0.2])
        f = rng.uniform(-1, 1, 5)
        g = rng.uniform(-1, 1, 5)
        expected = 0.0
        w = k.space.weights
        for x in range(5):
            for y in range(5):
                expected += w[x] * w[y] * f[x] * k.values[x, y] * g[y]
        assert bilinear_form(f, k, g) == pytest.approx(expected, abs=1e-14)

    def test_dimension_mismatch(self):
        k = kernel_from_matrix(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            bilinear_form(np.ones(2), k, np.ones(3))


def float32_starts(n, restarts, seed):
    """The start block of cutnorm_heuristic: one +-1 column per seed stream."""
    return np.column_stack([
        np.random.default_rng(c).integers(0, 2, size=n) * 2 - 1
        for c in np.random.SeedSequence(seed).spawn(restarts)
    ]).astype(np.float32)


def sequential_ascent(a, starts):
    """Reference for the batched ascent on the search matrix a: one restart
    at a time, one matrix-vector product per half sweep, the value
    recomputed as f.(Ag). Returns the (value, f, g) fixed point of every
    start column."""
    out = []
    for g in starts.T:
        value, f = -1.0, None
        while True:
            f_new = np.where(a @ g >= 0, 1, -1).astype(a.dtype)
            g_new = np.where(a @ f_new >= 0, 1, -1).astype(a.dtype)
            new_value = float(f_new @ (a @ g_new))
            if new_value <= value:
                break
            f, g, value = f_new, g_new, new_value
        out.append((value, f, g))
    return out


class TestSign:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_is_positive_and_dtype_is_kept(self, dtype):
        s = _sign(np.array([0.0, -0.0, 2.5, -1e-30], dtype=dtype))
        assert s.dtype == dtype
        assert s.tolist() == [1.0, 1.0, 1.0, -1.0]


class TestExact:
    def test_zero_kernel(self):
        est = cutnorm_exact(kernel_from_matrix(np.zeros((4, 4))))
        assert est.lower == est.upper == 0.0
        assert est.method == "exact"

    def test_constant_kernel(self):
        est = cutnorm_exact(kernel_from_matrix(np.full((5, 5), 0.3)))
        assert est.lower == pytest.approx(0.3, abs=1e-15)
        assert np.all(est.witness_f == 1.0)
        assert np.all(est.witness_g == 1.0)

    def test_two_atom_hand_case(self):
        # all four sign pairs by hand: f = g = (1, -1) attains 1
        est = cutnorm_exact(kernel_from_matrix([[1.0, -1.0], [-1.0, 1.0]]))
        assert est.lower == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(est.witness_g, [1.0, -1.0])
        assert np.array_equal(est.witness_f, [1.0, -1.0])

    def test_witness_attains_value(self, rng):
        for n in (1, 8, 17):
            w = rng.uniform(0.5, 1.5, n)
            for weights in (None, w / w.sum()):
                k = kernel_from_matrix(random_symmetric(rng, n), weights=weights)
                est = cutnorm_exact(k)
                assert est.lower == bilinear_form(est.witness_f, k, est.witness_g)

    def test_matches_brute_force(self, rng):
        for n in (2, 3, 5, 8, 10):
            k = kernel_from_matrix(random_symmetric(rng, n))
            est = cutnorm_exact(k)
            assert est.lower == pytest.approx(brute_force_cutnorm(k), abs=1e-12)

    def test_weighted_matches_brute_force(self, rng):
        w = rng.uniform(0.5, 1.5, 6)
        w /= w.sum()
        k = kernel_from_matrix(random_symmetric(rng, 6), weights=w)
        assert cutnorm_exact(k).lower == pytest.approx(brute_force_cutnorm(k), abs=1e-12)

    def test_too_large(self, monkeypatch):
        # refused before the enumeration starts
        monkeypatch.setattr(cutnorm, "_best_signs", None)
        n = EXACT_CEILING + 1
        with pytest.raises(TooLargeError):
            cutnorm_exact(kernel_from_matrix(np.zeros((n, n))))

    def test_bracket_never_enumerates_past_the_ceiling(self, monkeypatch):
        # the largest exact_limit leaves a kernel one atom past the ceiling
        # to the heuristic, never to a 2^(n-1) enumeration
        monkeypatch.setattr(cutnorm, "_best_signs", None)
        n = EXACT_CEILING + 1
        est = cutnorm_bracket(kernel_from_matrix(np.zeros((n, n))), exact_limit=EXACT_CEILING)
        assert est.method.startswith("heuristic")

    @pytest.mark.parametrize("limit", [-3, EXACT_CEILING + 1, 40])
    def test_config_rejects_exact_limit_outside_the_ceiling(self, limit):
        # 3 atoms would run at any limit; the limit is refused all the same
        with pytest.raises(ValueError):
            cutnorm_bracket(kernel_from_matrix(np.eye(3)), exact_limit=limit)

    def test_at_most_spectral_radius(self, rng):
        for _ in range(10):
            k = kernel_from_matrix(random_symmetric(rng, 7))
            assert cutnorm_exact(k).lower <= spectral_radius(decompose(k)) + 1e-10

    def test_permutation_invariance(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 7))
        kp = apply_permutation(k, rng.permutation(7))
        assert cutnorm_exact(kp).lower == pytest.approx(cutnorm_exact(k).lower, abs=1e-12)

    def test_triangle_inequality(self, rng):
        a = kernel_from_matrix(random_symmetric(rng, 6))
        b = kernel_from_matrix(random_symmetric(rng, 6))
        ab = kernel_from_matrix(a.values + b.values)
        assert cutnorm_exact(ab).lower <= (
            cutnorm_exact(a).lower + cutnorm_exact(b).lower + 1e-10
        )


def chunked_reference(a):
    """The enumeration the engine replaced: +-1 rows of 2^16 codes at a
    time, g_0 = +1, the first code attaining the largest ||a g||_1 kept.
    Returns (value, code)."""
    n = a.shape[0]
    total = 1 << (n - 1)
    best, best_code = -1.0, None
    for offset in range(0, total, 1 << 16):
        codes = np.arange(offset, min(offset + (1 << 16), total))
        gs = np.ones((codes.size, n))
        for bit in range(n - 1):
            gs[:, bit + 1] = np.where((codes >> bit) & 1, -1.0, 1.0)
        vals = np.abs(gs @ a.T).sum(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_code = float(vals[i]), int(codes[i])
    return best, best_code


def code_signs(code, n):
    return np.array([1.0] + [-1.0 if (code >> bit) & 1 else 1.0 for bit in range(n - 1)])


class TestSignEngine:
    def test_matches_brute_force(self, rng):
        for n in range(1, 13):
            w = rng.uniform(0.2, 2.0, n)
            for weights in (None, w / w.sum()):
                k = kernel_from_matrix(random_symmetric(rng, n), weights=weights)
                a = k.values * np.outer(k.space.weights, k.space.weights)
                value, code = _best_signs(a[None])
                assert value[0] == pytest.approx(brute_force_cutnorm(k), abs=1e-12)
                assert np.abs(a @ code_signs(int(code[0]), n)).sum() == pytest.approx(
                    value[0], abs=1e-12)

    def test_stack_equals_per_matrix_calls(self, rng):
        for n in (1, 5, 18):
            stack = np.stack([random_symmetric(rng, n) for _ in range(4)])
            values, codes = _best_signs(stack)
            for j in range(4):
                value, code = _best_signs(stack[j : j + 1])
                assert values[j] == value[0]
                assert codes[j] == code[0]

    @pytest.mark.parametrize("n", [17, 18, 22])
    def test_across_the_16_bit_split_matches_chunked_reference(self, rng, n):
        # small integer entries: every sum is exact, so ties are exact and
        # the first code attaining the maximum is the same on both sides
        a = rng.integers(-3, 4, (n, n)).astype(float)
        a = a + a.T
        value, code = _best_signs(a[None])
        assert (value[0], int(code[0])) == chunked_reference(a)
        # float entries: equal values up to rounding, and the code attains it
        a = random_symmetric(rng, n)
        value, code = _best_signs(a[None])
        ref_value, _ = chunked_reference(a)
        assert value[0] == pytest.approx(ref_value, rel=1e-13)
        assert np.abs(a @ code_signs(int(code[0]), n)).sum() == pytest.approx(
            ref_value, rel=1e-13)

    @pytest.mark.parametrize("kind, n, chunk_bytes", [
        ("random", 5, None), ("random", 12, None), ("random", 18, None),
        ("random", 22, None), ("constant", 5, None), ("constant", 19, None),
        ("integer", 5, None), ("integer", 12, None), ("integer", 20, None),
        # small chunks: many of them even at small n
        ("random", 5, 256), ("random", 12, 4096), ("random", 18, 1 << 16),
        ("constant", 12, 4096), ("integer", 12, 4096), ("integer", 18, 1 << 16),
    ])
    def test_chunked_walk_equals_the_untiled_loop(self, rng, monkeypatch, kind, n,
                                                  chunk_bytes):
        # constant and small-integer stacks tie exactly; the first code must win
        if chunk_bytes is not None:
            monkeypatch.setattr(cutnorm, "_CHUNK_BYTES", chunk_bytes)
        if kind == "random":
            stack = np.stack([random_symmetric(rng, n) for _ in range(3)])
        elif kind == "constant":
            stack = np.stack([np.full((n, n), c) for c in (0.0, 0.25, -1.0)])
        else:
            stack = rng.integers(-2, 3, (3, n, n)).astype(float)
            stack = stack + stack.transpose(0, 2, 1)
        best, code = _best_signs(stack)
        ref_best, ref_code = untiled_reference(stack)
        assert best.tobytes() == ref_best.tobytes()
        assert np.array_equal(code, ref_code)


def untiled_reference(a):
    """The engine before its table was walked in chunks: each high pattern
    adds its column to the whole (b, n, 2^16) table at once."""
    b, n, _ = a.shape
    low = min(n - 1, 16)
    high_bits = n - 1 - low
    table = a[:, :, 1 : low + 1] @ cutnorm._signs(np.arange(1 << low), low).T
    buf = np.empty_like(table)
    best = np.full(b, -1.0)
    best_code = np.zeros(b, dtype=np.int64)
    for high, pattern in enumerate(cutnorm._signs(np.arange(1 << high_bits), high_bits)):
        col = a[:, :, 0] + a[:, :, low + 1 :] @ pattern
        np.add(table, col[:, :, None], out=buf)
        vals = np.abs(buf, out=buf).sum(axis=1)
        top = vals.max(axis=1)
        up = top > best
        best[up] = top[up]
        best_code[up] = (high << low) + vals[up].argmax(axis=1)
    return best, best_code


class TestHeuristic:
    def test_never_exceeds_exact(self, rng):
        for n in (4, 7, 10):
            k = kernel_from_matrix(random_symmetric(rng, n))
            exact = cutnorm_exact(k).lower
            heur = cutnorm_heuristic(k, restarts=8, seed=3)
            assert heur.lower <= exact + 1e-12
            assert heur.lower <= heur.upper

    def test_constant_closes_bracket(self):
        k = kernel_from_matrix(np.full((6, 6), 0.4))
        est = cutnorm_heuristic(k, restarts=4, seed=0)
        assert est.lower == pytest.approx(0.4, abs=1e-12)
        assert est.upper == pytest.approx(0.4, abs=1e-12)

    def test_centered_block_identity(self):
        # two equal parts, block [[1,0],[0,1]] minus its mean 0.5; oracle:
        # enumerate the four sign pairs on the 2-block quotient, where the
        # best assignment aligns f = g with the parts
        quotient = np.array([[0.5, -0.5], [-0.5, 0.5]])
        oracle = 0.0
        for f in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            for g in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
                val = abs(sum(
                    0.25 * f[x] * quotient[x, y] * g[y]
                    for x in range(2) for y in range(2)
                ))
                oracle = max(oracle, val)
        sf = StepFunction(DiscreteSpace.uniform(4), [0, 0, 1, 1], quotient)
        k = expand_step(sf)
        est = cutnorm_heuristic(k, restarts=8, seed=1)
        assert est.lower == pytest.approx(oracle, abs=1e-12)
        assert est.upper == pytest.approx(oracle, abs=1e-12)
        # the witness is aligned with the parts
        assert abs(float(est.witness_f @ est.witness_g)) == 4.0

    def test_deterministic_per_seed(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 12))
        a = cutnorm_heuristic(k, restarts=6, seed=42)
        b = cutnorm_heuristic(k, restarts=6, seed=42)
        assert a.lower == b.lower
        assert np.array_equal(a.witness_g, b.witness_g)

    def test_batched_matches_sequential_reference(self, rng):
        # same float32 search matrix, same start vectors, same fixed point
        # per restart; only the summation order of the products differs, so
        # values agree to float32 rounding
        for n in (15, 40, 90):
            k = kernel_from_matrix(random_symmetric(rng, n))
            a = _search_matrix(k)
            ref = sequential_ascent(a, float32_starts(n, 8, n))
            fs, gs, values = _ascend(a, float32_starts(n, 8, n))
            for r, (value, f, g) in enumerate(ref):
                assert values[r] == pytest.approx(value, rel=1e-5)
                assert np.array_equal(fs[:, r], f)
                assert np.array_equal(gs[:, r], g)
            est = cutnorm_heuristic(k, restarts=8, seed=n)
            best = int(np.argmax(values))
            assert np.array_equal(est.witness_f, fs[:, best])
            assert np.array_equal(est.witness_g, gs[:, best])

    def test_search_is_scale_free(self, rng, monkeypatch):
        # the ascent reads A = K o ww^T scaled by a power of two into
        # [0.5, 1) and cast to float32; an unscaled cast would overflow
        # 2^1000 K and flush 2^-1000 K to zero
        received = []

        def recording(a, gs):
            received.append((a.dtype, gs.dtype))
            return _ascend(a, gs)

        monkeypatch.setattr(cutnorm, "_ascend", recording)
        values = random_symmetric(rng, 30)
        base = cutnorm_heuristic(kernel_from_matrix(values), restarts=8, seed=5)
        for power in (1000, -1000):
            est = cutnorm_heuristic(kernel_from_matrix(np.ldexp(values, power)),
                                    restarts=8, seed=5)
            assert np.array_equal(est.witness_f, base.witness_f)
            assert np.array_equal(est.witness_g, base.witness_g)
            assert est.lower == np.ldexp(base.lower, power)
        assert received == [(np.float32, np.float32)] * 3

    def test_corpus_below_exact_and_attained(self, rng):
        # random, weighted and low-rank kernels up to the default exact
        # limit; distinct witnesses of one optimum may round apart by ulps
        for n in (2, 5, 9, 14, 18, 22):
            w = rng.uniform(0.2, 2.0, n)
            x = rng.standard_normal((n, 2))
            low_rank = x @ np.diag([1.0, -0.6]) @ x.T
            kernels = [
                kernel_from_matrix(random_symmetric(rng, n)),
                kernel_from_matrix(random_symmetric(rng, n, 0.0, 1.0), weights=w / w.sum()),
                kernel_from_matrix((low_rank + low_rank.T) / 2.0),
            ]
            for k in kernels:
                est = cutnorm_heuristic(k, restarts=8, seed=n)
                assert est.lower <= cutnorm_exact(k).lower * (1.0 + 1e-12)
                assert est.lower == bilinear_form(est.witness_f, k, est.witness_g)
                for v in (est.witness_f, est.witness_g):
                    assert v.dtype == np.float64
                    assert set(np.unique(v)) <= {-1.0, 1.0}

    def test_lower_is_witness_value(self, rng):
        for n in (5, 30):
            w = rng.uniform(0.5, 1.5, n)
            k = kernel_from_matrix(random_symmetric(rng, n), weights=w / w.sum())
            est = cutnorm_heuristic(k, restarts=6, seed=2)
            assert est.lower == bilinear_form(est.witness_f, k, est.witness_g)
            assert set(np.unique(np.concatenate([est.witness_f, est.witness_g]))) <= {-1.0, 1.0}

    def test_upper_bounds_exact(self, rng):
        for n in range(1, 13):
            weights = [None, rng.uniform(0.2, 2.0, n)]
            for w in weights:
                k = kernel_from_matrix(random_symmetric(rng, n),
                                       weights=None if w is None else w / w.sum())
                est = cutnorm_heuristic(k, restarts=4, seed=n)
                assert est.upper >= cutnorm_exact(k).lower
                assert est.upper <= operator_norm_upper(k)

    def test_upper_never_nan(self, rng):
        # entries near the float range: squaring them overflows, yet the
        # radius bound stays finite and the bracket stays ordered
        k = kernel_from_matrix(np.sign(random_symmetric(rng, 30)) * 1e300)
        est = cutnorm_heuristic(k, restarts=4, seed=0)
        assert not np.isnan(est.upper)
        assert est.lower <= est.upper
        top = spectral_radius(spectrum(k))
        assert top <= operator_norm_upper(k) < np.inf

    def test_upper_is_min_of_bounds(self, rng):
        from graphonlab import weighted_norm

        k = kernel_from_matrix(random_symmetric(rng, 9))
        est = cutnorm_heuristic(k, restarts=4, seed=0)
        rad = spectral_radius(decompose(k))
        l1 = weighted_norm(k, "L1")
        assert est.upper == pytest.approx(max(min(rad, l1), est.lower), abs=1e-14)
        assert est.method in ("heuristic+spectral", "heuristic+L1")


class TestBracket:
    def test_dispatch_exact_small(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 10))
        assert cutnorm_bracket(k).method == "exact"

    def test_dispatch_heuristic_large(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 30))
        est = cutnorm_bracket(k, seed=5)
        assert est.method.startswith("heuristic")

    def test_truncation_tail_bounded_by_threshold(self, rng):
        # removing everything above alpha leaves cut norm at most alpha
        k = kernel_from_matrix(random_symmetric(rng, 10) / 6.0)
        dec = decompose(k)
        for alpha in gap_midpoints(dec)[:4]:
            tail = Kernel(k.space, k.values - tail_truncate(dec, alpha).values)
            est = cutnorm_bracket(tail)
            assert est.upper <= alpha + 1e-9
            assert est.lower <= alpha + 1e-9

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**9))
    def test_bracket_sandwich(self, n, seed):
        rng = np.random.default_rng(seed)
        k = kernel_from_matrix(random_symmetric(rng, n))
        est = cutnorm_bracket(k)
        assert 0.0 <= est.lower <= est.upper + 1e-12
