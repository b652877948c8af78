import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from graphonlab import (
    Kernel,
    PermutationAction,
    apply_permutation,
    cutnorm_heuristic,
    cycle_density_spectral,
    decompose,
    kernel_from_matrix,
    operator_norm_upper,
    quotient_average,
    spectral_radius,
    spectrum,
    spectrum_distribution,
    tail_truncate,
    truncation_quotient,
    weighted_norm,
)
from graphonlab import experiments
from graphonlab.cli import canonical_json
from graphonlab import spectral
from graphonlab.core import expand_step, weighted_mean
from graphonlab.ensembles import ProfileFunction, cayley_kernel, sphere_kernel, w_random_sample
from graphonlab.errors import (
    AllZeroSpectrum,
    DimensionMismatchError,
    EigenSolverError,
    EigenvectorsNotKept,
    ThresholdSplitsCluster,
)
from graphonlab.regularity import cluster_eigenvectors
from graphonlab.spectral import (
    SpectralDecomposition,
    _validate,
    gap_midpoints,
)

from conftest import random_symmetric


def power_iteration_radius(kernel, iters=6000, seed=0):
    """Independent oracle for the spectral radius of the weighted operator:
    power iteration on K^2 D ... actually on (KD)^2 to kill sign flips."""
    rng = np.random.default_rng(seed)
    op = kernel.values * kernel.space.weights[None, :]  # matrix of K D
    v = rng.standard_normal(kernel.n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = op @ (op @ v)
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(np.sqrt(np.linalg.norm(op @ (op @ v))))


class TestDecompose:
    def test_zero_kernel(self):
        dec = decompose(kernel_from_matrix(np.zeros((4, 4))))
        assert np.all(dec.eigenvalues == 0.0)

    def test_constant_kernel_rank_one(self):
        dec = decompose(kernel_from_matrix(np.full((5, 5), 0.6)))
        assert dec.eigenvalues[0] == pytest.approx(0.6, abs=1e-12)
        assert np.max(np.abs(dec.eigenvalues[1:])) < 1e-12
        # eigenvector is the constant-one function in the weighted norm
        f0 = dec.eigenvectors[:, 0]
        assert np.allclose(np.abs(f0), 1.0, atol=1e-10)

    def test_cayley_z8_matches_dft_oracle(self):
        f = np.array([0.0, 1.0, 0.0, 0.5, 0.25, 0.5, 0.0, 1.0])
        k = cayley_kernel(8, f)
        dec = decompose(k)
        # oracle: circulant eigenvalues are the DFT of the profile, here
        # real since f is even; the weighted operator divides by n
        dft = np.real(np.fft.fft(f)) / 8.0
        assert np.allclose(np.sort(dec.eigenvalues), np.sort(dft), atol=1e-12)
        # frequencies j and 8-j pair up: every eigenvalue away from
        # frequencies {0, 4} appears with multiplicity >= 2
        for j in (1, 2, 3):
            matches = np.sum(np.abs(dec.eigenvalues - dft[j]) < 1e-10)
            assert matches >= 2

    def test_weighted_orthonormality(self, rng):
        w = rng.uniform(0.5, 1.5, 9)
        w /= w.sum()
        k = kernel_from_matrix(random_symmetric(rng, 9), weights=w)
        dec = decompose(k)
        gram = (dec.eigenvectors * w[:, None]).T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10

    def test_reconstruction(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 8))
        dec = decompose(k)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        diff = kernel_from_matrix(recon, None).values - k.values
        w = k.space.weights
        assert np.sqrt(w @ (diff * diff) @ w) < 1e-9

    def test_sorted_by_magnitude(self, rng):
        dec = decompose(kernel_from_matrix(random_symmetric(rng, 10)))
        mags = np.abs(dec.eigenvalues)
        assert np.all(mags[:-1] >= mags[1:] - 1e-15)

    def test_energy_additivity(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 11))
        dec = decompose(k)
        assert np.sum(dec.eigenvalues**2) == pytest.approx(
            weighted_norm(k, "L2") ** 2, abs=1e-10
        )

    def test_eigenvalue_decay_bound(self, rng):
        # |lambda_j| <= 1/sqrt(j) whenever the weighted L2 norm is at most 1
        a = random_symmetric(rng, 12)
        k = kernel_from_matrix(a)
        if weighted_norm(k, "L2") > 1.0:
            k = kernel_from_matrix(a / weighted_norm(k, "L2"))
        dec = decompose(k)
        for j, lam in enumerate(dec.eigenvalues, start=1):
            assert abs(lam) <= 1.0 / np.sqrt(j) + 1e-10

    def test_eigenfunction_sup_bound(self, rng):
        # eigenvectors of a sup-bounded kernel obey ||f||_inf <= 1/|lambda|
        k = kernel_from_matrix(random_symmetric(rng, 10))
        dec = decompose(k)
        for lam, f in zip(dec.eigenvalues, dec.eigenvectors.T):
            if abs(lam) >= 1e-6:
                assert np.max(np.abs(f)) <= 1.0 / abs(lam) + 1e-8


class TestTailTruncate:
    def test_zero_threshold_reconstructs(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 7))
        dec = decompose(k)
        t = tail_truncate(dec, 0.0)
        w = k.space.weights
        diff = t.values - k.values
        assert np.sqrt(w @ (diff * diff) @ w) < 1e-9

    def test_above_top_gives_zero(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 6))
        dec = decompose(k)
        t = tail_truncate(dec, spectral_radius(dec) * 1.001)
        assert np.all(t.values == 0.0)

    def test_rank_one_projector(self, rng):
        # constant kernel plus a small perturbation: truncating between
        # |lambda_2| and |lambda_1| leaves approximately p * 1 1^T
        p = 0.8
        noise = 0.01 * random_symmetric(rng, 8)
        k = kernel_from_matrix(np.full((8, 8), p) + noise)
        dec = decompose(k)
        lam = (abs(dec.eigenvalues[0]) + abs(dec.eigenvalues[1])) / 2.0
        t = tail_truncate(dec, lam)
        assert np.max(np.abs(t.values - p)) < 0.1
        assert np.linalg.matrix_rank(t.values, tol=1e-8) == 1

    def test_split_cluster_rejected(self):
        # two eigenvalues 1e-10 apart group into one cluster (tolerance
        # 1e-8); a threshold between them must be refused
        k = kernel_from_matrix(np.diag([1.0, 1.0 + 2e-10]))
        dec = decompose(k)  # weighted eigenvalues 0.5 and 0.5 + 1e-10
        assert dec.clusters == ((0, 2),)
        with pytest.raises(ThresholdSplitsCluster):
            tail_truncate(dec, 0.5 + 5e-11)

    def test_threshold_below_degenerate_cluster_keeps_both(self):
        k = kernel_from_matrix([[0.0, 1.0], [1.0, 0.0]])
        dec = decompose(k)  # eigenvalues +-1/2 form one cluster
        t = tail_truncate(dec, 0.5 - 1e-6)
        assert np.max(np.abs(t.values - k.values)) < 1e-12

    def test_exact_eigenvalue_threshold_excludes(self):
        # strict inequality: threshold at an isolated |eigenvalue| drops it
        dec = decompose(kernel_from_matrix(np.full((3, 3), 0.5)))
        t = tail_truncate(dec, 0.5)
        assert np.all(t.values == 0.0)

    def test_invariance_under_automorphism(self):
        f = np.array([0.0, 1.0, 0.5, 0.25, 0.5, 1.0])
        k = cayley_kernel(6, f)
        dec = decompose(k)
        shift = (np.arange(6) + 1) % 6
        assert np.array_equal(apply_permutation(k, shift).values, k.values)
        for lam in gap_midpoints(dec):
            t = tail_truncate(dec, lam)
            moved = apply_permutation(t, shift)
            assert np.max(np.abs(moved.values - t.values)) < 1e-9

    @pytest.mark.parametrize("n", [7, 600])
    def test_values_are_the_symmetrized_product(self, rng, n):
        # (P + P^T) / 2 of P = F_k diag(lambda_k) F_k^T, bit for bit; n = 600
        # takes tiles of 256, 256 and 88 rows
        dec = decompose(kernel_from_matrix(random_symmetric(rng, n)))
        t = gap_midpoints(dec)[n // 3]
        k = dec.rank_above(t)
        f = dec.eigenvectors[:, :k]
        p = (f * dec.eigenvalues[:k]) @ f.T
        assert np.array_equal(tail_truncate(dec, t).values, (p + p.T) / 2.0)


class TestSpectralRadius:
    def test_zero(self):
        assert spectral_radius(decompose(kernel_from_matrix(np.zeros((3, 3))))) == 0.0

    def test_constant(self):
        assert spectral_radius(decompose(kernel_from_matrix(np.full((4, 4), 0.3)))) == (
            pytest.approx(0.3, abs=1e-12)
        )

    def test_matches_power_iteration(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 10))
        rad = spectral_radius(decompose(k))
        assert rad == pytest.approx(power_iteration_radius(k), abs=1e-8)


    def test_operator_norm_upper_bounds_radius(self, rng):
        for n in (1, 2, 5, 12, 40):
            w = rng.uniform(0.5, 1.5, n)
            k = kernel_from_matrix(random_symmetric(rng, n), weights=w / w.sum())
            rad = spectral_radius(decompose(k))
            upper = operator_norm_upper(k)
            assert rad <= upper <= rad + 1e-12

    def test_operator_norm_upper_near_overflow_is_finite(self, rng):
        # ||sym||_F ~ 1e300 is finite although squaring the entries overflows
        k = kernel_from_matrix(np.sign(random_symmetric(rng, 6)) * 1e300)
        top = spectral_radius(spectrum(k))
        assert top <= operator_norm_upper(k) < np.inf

    @pytest.mark.parametrize("value, n, expected", [
        (1e-300, 5, 5e-300), (1e300, 5, 5e300), (2.0**-1074, 4, 2.0**-1072),
        (1e308, 4, np.inf), (0.0, 3, 0.0),
    ])
    def test_frobenius_does_not_underflow_or_overflow(self, value, n, expected):
        assert spectral._frobenius(np.full((n, n), value)) == pytest.approx(expected, rel=1e-15)

    def test_tiny_scale_bound_covers_the_unscaled_spectrum(self):
        # 2^-990 scales exactly; the squares of ||sym||_F underflowed to 0,
        # which dropped the margins of the bound
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.uniform(0.5, 1.5, 64)
            values = random_symmetric(rng, 64)
            top = spectral_radius(spectrum(kernel_from_matrix(values, weights=w / w.sum())))
            k = kernel_from_matrix(np.ldexp(values, -990), weights=w / w.sum())
            assert np.ldexp(operator_norm_upper(k), 990) >= top


class TestValidate:
    def test_large_scale_kernel(self, rng):
        # an absolute reconstruction tolerance rejected this correct
        # decomposition ("off by 1.8e+135")
        a = random_symmetric(rng, 40)
        big = decompose(kernel_from_matrix(1e150 * a)).eigenvalues
        ref = decompose(kernel_from_matrix(a)).eigenvalues
        assert np.max(np.abs(np.sort(big) / 1e150 - np.sort(ref))) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("which", ["eigenvectors", "eigenvalues"])
    def test_nan_fails(self, which):
        # a NaN error must fail validation, not compare as within tolerance
        k = kernel_from_matrix(np.eye(3))
        vals = np.full(3, 1.0 / 3.0)  # K = I acts as f -> f/3 under weights 1/3
        vecs = np.eye(3) * np.sqrt(3.0)
        if which == "eigenvectors":
            vecs[0, 0] = np.nan
        else:
            vals[0] = np.nan
        with pytest.raises(EigenSolverError):
            _validate(SpectralDecomposition(k, vals, vecs, ((0, 3),)))
        _validate(SpectralDecomposition(k, np.full(3, 1.0 / 3.0), np.eye(3) * np.sqrt(3.0),
                                        ((0, 3),)))

    @staticmethod
    def _exact(rng, scale, weights=None):
        a = random_symmetric(rng, 30)
        dec = decompose(kernel_from_matrix(scale * a / np.abs(a).max(), weights=weights))
        assert spectral._validation_scale(dec.kernel) == max(1.0, scale)
        return dec

    @pytest.mark.parametrize("factor, rejected", [(10.0, True), (0.1, False)])
    def test_reconstruction_error_is_measured_on_the_scaled_kernel(self, rng, factor, rejected):
        # max|K| = 1e3, so s = 1e3: moving lambda_0 by d moves the weighted L2
        # reconstruction error of K / s by d / s (f_0 has weighted norm 1)
        dec = self._exact(rng, 1e3)
        vals = dec.eigenvalues.copy()
        vals[0] += factor * spectral.RECONSTRUCTION_TOL * 1e3
        off = SpectralDecomposition(dec.kernel, vals, dec.eigenvectors, dec.clusters)
        if rejected:
            with pytest.raises(EigenSolverError, match="reconstruction"):
                _validate(off)
        else:  # an absolute tolerance would reject this: the error is 1e-7 before scaling
            _validate(off)

    @pytest.mark.parametrize("factor, rejected", [(10.0, True), (0.01, False)])
    def test_weighted_orthonormality_on_nonuniform_weights(self, rng, factor, rejected):
        w = rng.uniform(0.2, 1.8, 30)
        dec = self._exact(rng, 1.0, weights=w / w.sum())
        vecs = dec.eigenvectors.copy()
        vecs[:, 3] *= 1.0 + factor * spectral.ORTHONORMALITY_TOL  # (f_3, f_3) = 1 + 2 factor tol
        off = SpectralDecomposition(dec.kernel, dec.eigenvalues, vecs, dec.clusters)
        if rejected:
            with pytest.raises(EigenSolverError, match="orthonormality"):
                _validate(off)
        else:
            _validate(off)

    @pytest.mark.parametrize("scale, weighted", [(1e3, False), (1e3, True), (1.0, True)])
    def test_exact_decompositions_pass(self, rng, scale, weighted):
        w = rng.uniform(0.2, 1.8, 30) if weighted else None
        dec = self._exact(rng, scale, weights=None if w is None else w / w.sum())
        _validate(dec)


class TestSpectrumDistribution:
    def test_point_mass(self):
        dec = decompose(kernel_from_matrix(np.full((3, 3), 0.4)))
        dist = spectrum_distribution(dec)
        assert dist.support.size == 1
        assert dist.support[0] == pytest.approx(0.4, abs=1e-12)
        assert dist.probabilities[0] == 1.0

    def test_symmetric_pair(self):
        dec = decompose(kernel_from_matrix([[0.0, 0.7], [0.7, 0.0]]))
        dist = spectrum_distribution(dec)
        assert np.allclose(np.sort(dist.probabilities), [0.5, 0.5], atol=1e-12)

    def test_probabilities_normalized(self, rng):
        dec = decompose(kernel_from_matrix(random_symmetric(rng, 9)))
        dist = spectrum_distribution(dec)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.probabilities >= 0.0)

    def test_all_zero_rejected(self):
        dec = decompose(kernel_from_matrix(np.zeros((3, 3))))
        with pytest.raises(AllZeroSpectrum):
            spectrum_distribution(dec)


class TestNonzeroRank:
    def test_one_count_splits_signal_from_noise(self, rng):
        # a rank-3 kernel: eigh leaves n - 3 eigenvalues at the rounding level
        x = rng.standard_normal((40, 3))
        dec = decompose(kernel_from_matrix(x @ x.T / 40))
        r = dec.nonzero_rank
        assert r == 3 == dec.rank_above(dec.cluster_tolerance)
        above = np.abs(dec.eigenvalues) > dec.cluster_tolerance
        assert np.array_equal(dec.eigenvalues[:r], dec.eigenvalues[above])
        assert np.array_equal(spectrum_distribution(dec).support, dec.eigenvalues[:r])
        assert [start for start, _ in dec.clusters if start < r] == [0, 1, 2]
        assert len(gap_midpoints(dec)) == 3

    def test_zero_kernel_has_none(self):
        assert decompose(kernel_from_matrix(np.zeros((3, 3)))).nonzero_rank == 0


# ---------------------------------------------------------------------------
# partial decompositions: spectrum(kernel) and decompose_leading


def _with_spectrum(rng, n, top, rest):
    """Q diag(top + rest) Q^T for a random orthogonal Q (uniform weights)."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.concatenate([top, rest])
    a = (q * lam) @ q.T
    return kernel_from_matrix(n * (a + a.T) / 2.0)


def _spiked(rng, n, spikes, weights=None):
    """Planted eigenvalues plus a bounded symmetric noise kernel."""
    u = np.linalg.qr(rng.standard_normal((n, len(spikes))))[0] * np.sqrt(n)
    return kernel_from_matrix((u * spikes) @ u.T + 0.3 * random_symmetric(rng, n),
                              weights=weights)


def _partial_corpus():
    """(name, kernel, threshold)."""
    rng = np.random.default_rng(2024)
    out = []
    k = _spiked(rng, 400, [0.8, -0.5, 0.3])
    out.append(("random", k, 0.2))
    w = rng.uniform(0.5, 1.5, 400)
    k = _spiked(rng, 400, [0.7, 0.4], weights=w / w.sum())
    out.append(("random-weighted", k, 0.2))
    # a pure noise kernel: the top eigenvalue barely leaves the bulk
    k = kernel_from_matrix(random_symmetric(rng, 300))
    lam = np.sort(np.abs(np.linalg.eigvalsh(k.values / 300)))[::-1]
    out.append(("random-noise", k, float(lam[0] + lam[1]) / 2))
    k = _with_spectrum(rng, 300, [0.6, -0.45, 0.3], np.zeros(297))
    out.append(("low-rank", k, 0.1))
    k = _with_spectrum(rng, 500, [-0.9, -0.6, -0.5], -rng.uniform(0.0, 0.05, 497))
    out.append(("negative-definite", k, 0.25))
    k = _spiked(rng, 400, [0.8, -0.5, 0.3])
    out.append(("scale-1e150", kernel_from_matrix(1e150 * k.values), 0.2e150))
    # f(x) = cos(2 pi x/n) + 0.5 cos(4 pi x/n) + even noise: frequencies j and
    # n - j give the top cluster {1/2, 1/2} and the next {1/4, 1/4}
    n = 240
    x = np.arange(n)
    noise = rng.uniform(-0.01, 0.01, n)
    f = np.cos(2 * np.pi * x / n) + 0.5 * np.cos(4 * np.pi * x / n) + (noise + noise[-x]) / 2
    out.append(("circulant-degenerate", cayley_kernel(n, f), 0.375))
    # eigenvalues 0.5 and 0.5 - 1e-6 are separate clusters
    k = _with_spectrum(rng, 300, [0.9, 0.5, 0.5 - 1e-6], rng.uniform(-0.3, 0.3, 297))
    out.append(("tiny-gap", k, 0.5 - 5e-7))
    return out


PARTIAL_CORPUS = _partial_corpus()


class TestTruncationQuotient:
    """truncation_quotient is quotient_average(tail_truncate(...)) without
    the n x n truncation."""

    def _assert_matches(self, dec, t, labels):
        got = truncation_quotient(dec, t, labels)
        ref = quotient_average(tail_truncate(dec, t), labels)
        assert np.array_equal(got.part_of, ref.part_of)
        assert np.array_equal(got.part_weights, ref.part_weights)
        assert np.array_equal(got.block, got.block.T)
        assert np.max(np.abs(got.block - ref.block)) <= 1e-12
        return got

    def test_weighted_space_and_unsorted_labels(self, rng):
        w = rng.uniform(0.2, 2.0, 40)
        dec = decompose(kernel_from_matrix(random_symmetric(rng, 40), weights=w / w.sum()))
        labels = rng.choice([7, -2, 11, 3], 40)  # mapped to 0..3 in sorted order
        for t in gap_midpoints(dec)[:6]:
            self._assert_matches(dec, t, labels)

    @pytest.mark.parametrize("case", PARTIAL_CORPUS[:2], ids=[c[0] for c in PARTIAL_CORPUS[:2]])
    def test_partial_decomposition(self, rng, case):
        _, kernel, t = case
        dec = spectral.decompose_leading(kernel, spectrum(kernel).rank_above(t), t)
        labels = rng.integers(0, 5, kernel.n)
        for lam in (dec.bulk_bound, t, 0.45):
            self._assert_matches(dec, lam, labels)

    def test_nothing_kept_gives_zero_blocks(self, rng):
        dec = decompose(kernel_from_matrix(random_symmetric(rng, 9)))
        got = self._assert_matches(dec, spectral_radius(dec) * 1.001, [2, 0, 1] * 3)
        assert np.all(got.block == 0.0)

    def test_one_part(self, rng):
        w = rng.uniform(0.2, 2.0, 12)
        dec = decompose(kernel_from_matrix(random_symmetric(rng, 12), weights=w / w.sum()))
        got = self._assert_matches(dec, gap_midpoints(dec)[2], np.full(12, 4))
        assert got.block.shape == (1, 1)

    def test_raises_as_tail_truncate(self, rng):
        dec = decompose(kernel_from_matrix(np.diag([1.0, 1.0 + 2e-10])))
        with pytest.raises(ThresholdSplitsCluster):
            truncation_quotient(dec, 0.5 + 5e-11, [0, 1])
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                truncation_quotient(dec, bad, [0, 1])
        _, kernel, t = PARTIAL_CORPUS[0]
        with pytest.raises(EigenvectorsNotKept):
            truncation_quotient(spectrum(kernel), t, np.zeros(kernel.n, dtype=int))

    def test_raises_as_quotient_average(self):
        dec = decompose(kernel_from_matrix(np.full((3, 3), 0.5)))
        with pytest.raises(DimensionMismatchError):
            truncation_quotient(dec, 0.1, [0, 1])


class TestSpectrum:
    @pytest.mark.parametrize("case", PARTIAL_CORPUS, ids=[c[0] for c in PARTIAL_CORPUS])
    def test_one_eigvalsh_in_spectral_order(self, monkeypatch, case):
        # the eigenvalues are eigvalsh's of D^1/2 K D^1/2, byte for byte
        _, kernel, _ = case
        sym, _ = spectral._symmetrized(kernel)
        vals = np.linalg.eigvalsh(sym)
        vals = vals[np.lexsort((-vals, -np.abs(vals)))]
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def counted(name, solver):
            def call(a, *args, **kwargs):
                calls.append(name)
                return solver(a, *args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
        spec = spectrum(kernel)
        assert calls == ["eigvalsh"]
        assert spec.eigenvalues.tobytes() == vals.tobytes()
        assert spec.eigenvectors.shape == (kernel.n, 0)
        assert spec.projector_error is None and spec.bulk_bound is None
        monkeypatch.undo()
        full = decompose(kernel)
        assert spec.clusters == full.clusters
        assert np.max(np.abs(spec.eigenvalues - full.eigenvalues)) <= 1e-12 * spectral_radius(full)

    def test_truncation_needs_eigenvectors(self):
        _, kernel, t = PARTIAL_CORPUS[0]
        spec = spectrum(kernel)
        radius = spectral_radius(spec)
        for lam in (radius, 10.0):
            assert np.all(tail_truncate(spec, lam).values == 0.0)
            assert np.all(truncation_quotient(spec, lam, np.zeros(kernel.n, dtype=int)).block == 0.0)
        for lam in (float(np.nextafter(radius, 0.0)), t):
            with pytest.raises(EigenvectorsNotKept, match="holds 0 eigenvectors"):
                tail_truncate(spec, lam)
            with pytest.raises(EigenvectorsNotKept):
                cluster_eigenvectors(spec, lam, 0.3)


class TestPartialDecompose:
    def test_truncation_below_bulk_bound_raises(self):
        # every unlisted |lambda| is at most bulk_bound, so the leading
        # eigenpairs serve the thresholds from there up, and no lower one
        sample, lam_mid = _wrandom_sample(800, 0)
        dec = spectral.decompose_leading(sample, 3, lam_mid)
        tau = dec.bulk_bound
        assert 0.0 < tau < lam_mid
        for lam in (float(np.nextafter(tau, 0.0)), tau / 2):
            with pytest.raises(EigenvectorsNotKept, match="bulk_bound"):
                tail_truncate(dec, lam)
            with pytest.raises(EigenvectorsNotKept):
                truncation_quotient(dec, lam, np.zeros(sample.n, dtype=int))
            with pytest.raises(EigenvectorsNotKept):
                cluster_eigenvectors(dec, lam, 0.3)
        full = decompose(sample)
        for lam in (tau, (tau + lam_mid) / 2, float(np.nextafter(lam_mid, 0.0))):
            assert full.rank_above(lam) == 3
            diff = tail_truncate(dec, lam).values - tail_truncate(full, lam).values
            assert np.max(np.abs(diff)) < 1e-9

    def test_threshold_readers_below_bulk_bound_raise(self):
        # rank_above(0.0) read 3 where the sample has 800 nonzero eigenvalues,
        # and t(C_4) came out 0.049998 for 0.050071: the unlisted bulk is not
        # zero, so every reader of the eigenvalues above a threshold refuses
        # one below tau, and those from tau up agree with decompose
        sample, lam_mid = _wrandom_sample(800, 1)
        dec = spectral.decompose_leading(sample, 3, lam_mid)
        tau = dec.bulk_bound
        reads = [lambda: dec.rank_above(0.0), lambda: dec.energy_above(tau / 2),
                 lambda: dec.nonzero_rank, lambda: gap_midpoints(dec),
                 lambda: spectrum_distribution(dec), lambda: cycle_density_spectral(dec, 4)]
        for read in reads:
            with pytest.raises(EigenvectorsNotKept, match="bulk_bound"):
                read()
        full = decompose(sample)
        for lam in (tau, lam_mid):
            assert dec.rank_above(lam) == full.rank_above(lam) == 3
            assert dec.energy_above(lam) == pytest.approx(full.energy_above(lam), rel=1e-12)

    def test_wrandom_convergence_equals_the_full_path(self, monkeypatch):
        # n = 800 takes the proven route, n = 60 falls back. Ranks, checks
        # and eigenvalues are the report bytes the full eigh gives, and only
        # the proven samples have a bulk bound. aligned_l2 differences block
        # averages near 0.5 that lie about 0.003 apart, so eigenvector
        # differences at the rounding level (8e-15 here) reach its twelfth
        # digit: it matches to 1e-10 relative, not to the byte
        taken = []

        def proven(kernel, rank, above):
            dec = spectral.decompose_leading(kernel, rank, above)
            taken.append(dec is not None)
            return dec

        args = (experiments.builtin_rank3_step(), [60, 800], [0, 1])
        monkeypatch.setattr(experiments, "decompose_leading", proven)
        fast = canonical_json(dict(zip(("results", "checks"),
                                       experiments.wrandom_convergence(*args))))
        monkeypatch.setattr(experiments, "decompose_leading", lambda *args: None)
        slow = canonical_json(dict(zip(("results", "checks"),
                                       experiments.wrandom_convergence(*args))))
        fast, slow = json.loads(fast), json.loads(slow)
        assert np.allclose(_aligned_l2_numbers(fast), _aligned_l2_numbers(slow),
                           rtol=1e-10, atol=0.0)
        bulk = [entry.pop("bulk_bounds") for entry in fast["results"]["per_count"].values()]
        assert bulk[0] == [None, None]
        assert all(0.0 < tau < fast["results"]["lambda_mid"] for tau in bulk[1])
        assert [entry.pop("bulk_bounds") for entry in slow["results"]["per_count"].values()] \
            == [[None, None]] * 2
        assert fast == slow
        assert taken == [False, False, True, True]

    def test_wrandom_takes_no_eigvalsh(self, monkeypatch):
        # n = 1600 takes the proven route, n = 100 and n = 400 fall back to eigh
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        results, _ = experiments.wrandom_convergence(
            experiments.builtin_rank3_step(), [100, 400, 1600], [0, 1])
        assert sizes == []
        assert None not in results["per_count"]["1600"]["bulk_bounds"]


def _wrandom_sample(n, seed):
    """A W-random sample of n atoms from the builtin rank-3 source, and the
    source's half-gap lam_mid, as wrandom_convergence draws and sets them."""
    source = expand_step(experiments.builtin_rank3_step())
    lam = decompose(source).eigenvalues
    lam_mid = float(np.min(np.abs(lam[:3]))) / 2.0
    return w_random_sample(source, n, seed)[0], lam_mid


class TestDecomposeLeading:
    """decompose_leading proves, without eigvalsh, that its rank Ritz
    values are the eigenvalues above the threshold and bounds the rest."""

    def test_rank_zero_and_zero_kernel_refused(self):
        kernel = kernel_from_matrix(random_symmetric(np.random.default_rng(3), 40))
        assert spectral.decompose_leading(kernel, 0, 0.5) is None
        zero = kernel_from_matrix(np.zeros((40, 40)))
        assert spectral.decompose_leading(zero, 2, 0.5) is None

    @pytest.mark.parametrize("n", [200, 800, 1600])
    @pytest.mark.parametrize("seed", range(5))
    def test_sound_against_eigvalsh(self, monkeypatch, n, seed):
        sample, lam_mid = _wrandom_sample(n, seed)
        sym, rootw = spectral._symmetrized(sample)
        # one eigh gives the reference eigenvalues and eigenvectors; it is
        # backward stable as eigvalsh is, so the same margin covers it
        eig, vecs = np.linalg.eigh(sym)
        order = spectral._spectral_order(eig)
        vals = eig[order]
        margin = spectral._eigvalsh_margin(n, spectral._frobenius(sym))
        blocks = n // (spectral.KRYLOV_BASIS_FRACTION * (3 + spectral.KRYLOV_OVERSAMPLE))
        stop = _every_block_stop(sym, 3, blocks, margin)
        grown = _count_krylov_blocks(monkeypatch)
        rayleigh = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            rayleigh.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        dec = spectral.decompose_leading(sample, 3, lam_mid)
        monkeypatch.undo()
        if n == 200:  # the bulk reaches above lam_mid
            assert abs(vals[3]) > lam_mid
            assert dec is None
            return
        # the residual checks are scheduled by its rate, yet the run stops
        # at the block where a check after every block stops it
        assert grown == [stop + 1]
        assert max(rayleigh) < n  # no eigh but of the Rayleigh matrix
        if n == 1600:
            assert len(rayleigh) <= 8  # of 19 blocks at seed 0
        tau = dec.bulk_bound
        assert tau < lam_mid
        assert np.all(np.abs(vals[3:]) <= tau + margin)
        # the trial shift sits BULK_SLACK above the leading run's estimate of
        # the bulk norm, which reads it to within 1% on these samples
        assert tau <= 1.03 * np.max(np.abs(vals[3:]))
        # each Ritz interval holds its eigvalsh counterpart
        x = dec.eigenvectors * rootw[:, None]
        radius = (np.linalg.norm(sym @ x - x * dec.eigenvalues, axis=0)
                  / np.linalg.norm(x, axis=0))
        assert np.all(np.abs(dec.eigenvalues - vals[:3]) <= radius + margin)
        assert dec.rank_above(lam_mid) == 3 == int(np.sum(np.abs(vals) > lam_mid))
        # the Davis-Kahan certificate holds against eigh's eigenvectors
        u = vecs[:, order[:3]]
        assert np.linalg.norm(x @ x.T - u @ u.T) <= dec.projector_error < 1e-9

    def test_one_krylov_run(self, monkeypatch):
        runs, grown = _driver_runs(monkeypatch), _count_krylov_blocks(monkeypatch)
        sample, lam_mid = _wrandom_sample(800, 0)
        assert spectral.decompose_leading(sample, 3, lam_mid) is not None
        assert runs == [(3, 3 + spectral.KRYLOV_OVERSAMPLE)] and len(grown) == 1

    @pytest.mark.parametrize("n, seed", [(800, 0), (1600, 1)])
    def test_scale_free_near_the_float_range(self, n, seed):
        # scaling by a power of two is exact, so the proof at 2^990 is the
        # one at scale 1, scaled; no norm squares an entry past the range
        sample, lam_mid = _wrandom_sample(n, seed)
        plain = spectral.decompose_leading(sample, 3, lam_mid)
        scaled = spectral.decompose_leading(
            Kernel(sample.space, np.ldexp(sample.values, 990)), 3, np.ldexp(lam_mid, 990))
        assert plain is not None and scaled is not None
        np.testing.assert_allclose(np.ldexp(scaled.eigenvalues, -990), plain.eigenvalues,
                                   rtol=1.5e-15, atol=0)
        assert np.ldexp(scaled.bulk_bound, -990) == pytest.approx(plain.bulk_bound, rel=1.5e-15)

    @pytest.mark.parametrize("top, proven", [([0.9, 0.5, 0.5], False),
                                             ([0.9, 0.6, 0.5], True)])
    def test_a_repeated_kept_eigenvalue_is_refused(self, top, proven):
        # the Ritz intervals of a double eigenvalue overlap, so they do not
        # prove two distinct eigenvalues; split by 0.1 they do
        rng = np.random.default_rng(11)
        kernel = _with_spectrum(rng, 800, top, rng.uniform(-0.05, 0.05, 797))
        assert (spectral.decompose_leading(kernel, 3, 0.3) is not None) == proven

    @pytest.mark.parametrize("rank", [2, 4])
    def test_a_wrong_rank_is_refused(self, rank):
        # with 2 pairs the third eigenvalue stays in the bulk, above lam_mid;
        # with 4 the fourth Ritz interval lies below lam_mid
        sample, lam_mid = _wrandom_sample(800, 0)
        assert spectral.decompose_leading(sample, rank, lam_mid) is None

    def test_bulk_above_the_threshold_falls_back_without_factorising(self, monkeypatch):
        # at n = 400, seed 3 has a fourth eigenvalue above lam_mid
        sample, lam_mid = _wrandom_sample(400, 3)
        assert decompose(sample).rank_above(lam_mid) == 4

        def refuse(*args, **kwargs):
            raise AssertionError("factorised although the bulk estimate is above lam_mid")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        grown = _count_krylov_blocks(monkeypatch)
        assert spectral.decompose_leading(sample, 3, lam_mid) is None
        # the residual's rate predicts more blocks than the cap of 14 allows
        assert grown[0] <= 4
        results, checks = experiments.wrandom_convergence(
            experiments.builtin_rank3_step(), [400], [3])
        assert results["per_count"]["400"]["ranks"] == [4]
        assert results["per_count"]["400"]["bulk_bounds"] == [None]
        assert checks[0] == ("rank_error_at_400_seed3", 1.0, 0.0, "le")

    def test_refused_proof_gives_the_eigh_path(self, monkeypatch):
        args = (experiments.builtin_rank3_step(), [60, 800], [0, 1])
        monkeypatch.setattr(experiments, "decompose_leading", lambda *args: None)
        eigh_path = canonical_json(dict(zip(("results", "checks"),
                                            experiments.wrandom_convergence(*args))))
        monkeypatch.undo()
        monkeypatch.setattr(spectral, "_certified_radius", lambda *args: None)
        refused = canonical_json(dict(zip(("results", "checks"),
                                          experiments.wrandom_convergence(*args))))
        assert refused == eigh_path
        assert all(entry["bulk_bounds"] == [None, None]
                   for entry in json.loads(refused)["results"]["per_count"].values())


@pytest.mark.parametrize("rate", [1.0, 1.5, 0.0, math.nan])
def test_blocks_needed_is_inf_for_a_residual_that_does_not_fall(rate):
    assert spectral._blocks_needed(1.0, 1e-3, rate) == math.inf


def test_blocks_needed_for_a_falling_residual():
    assert spectral._blocks_needed(1.0, 1e-3, 0.1) == pytest.approx(3.0, rel=1e-12)


def _every_block_stop(sym, r, blocks, margin):
    """The block at which _block_krylov's stopping rule first holds when
    the residual is checked after every block, or None within the cap."""
    b = r + spectral.KRYLOV_OVERSAMPLE
    floor = margin / (sym.shape[0] + 3)
    previous = math.inf
    for j, (_, rayleigh, w) in enumerate(spectral._krylov_basis(sym, b, blocks)):
        theta, y = np.linalg.eigh(rayleigh)
        y = y[:, spectral._spectral_order(theta)[:r]]
        resid = float(np.linalg.norm(y[-b:].T @ w))
        if resid <= floor or previous / 2 < resid <= margin:
            return j
        previous = resid
    return None


def _driver_runs(monkeypatch) -> list[tuple[int, int]]:
    """Wrap spectral._block_krylov; the list returned gets, per run, its
    pair count r and block width b."""
    runs = []
    block_krylov = spectral._block_krylov

    def counted(sym, r, b, target, margin):
        runs.append((r, b))
        return block_krylov(sym, r, b, target, margin)

    monkeypatch.setattr(spectral, "_block_krylov", counted)
    return runs


def _count_krylov_blocks(monkeypatch) -> list[int]:
    """Wrap spectral._krylov_basis; the list returned gets, per basis, the
    number of blocks grown."""
    grown = []
    basis = spectral._krylov_basis

    def counted(*args):
        grown.append(0)
        for block in basis(*args):
            grown[-1] += 1
            yield block

    monkeypatch.setattr(spectral, "_krylov_basis", counted)
    return grown


def _aligned_l2_numbers(report: dict) -> list[float]:
    """Remove every aligned_l2 number from a W-random report and return
    them in report order."""
    numbers = []
    for entry in report["results"]["per_count"].values():
        numbers += entry.pop("aligned_l2") + [entry.pop("median_aligned_l2")]
    for check in report["checks"]:  # (name, value, bound, op)
        if check[0] == "aligned_l2_decreases":
            numbers += check[1:3]
            del check[1:3]
    return numbers


def _centred_sphere(n, dim=2, seed=5):
    """A sampled sphere kernel minus its mean: its top eigenvalue cluster,
    the degree-1 harmonics, stands apart from the rest of the spectrum."""
    k = sphere_kernel(dim, ProfileFunction.threshold(0.0), n, seed)
    return Kernel(k.space, k.values - weighted_mean(k))


def _radius_corpus_kernel(kind, n, rng):
    w = rng.uniform(0.5, 1.5, n)
    w /= w.sum()
    kind, _, scale = kind.partition("*")
    if kind == "sphere":
        values = _centred_sphere(n).values
    elif kind == "random":
        values = random_symmetric(rng, n)
    elif kind.startswith("rank"):
        x = rng.standard_normal((n, int(kind[4:])))
        values = x @ x.T / n
    elif kind == "negative-definite":
        x = rng.standard_normal((n, n))
        values = -(x @ x.T) / n - 0.1 * np.eye(n)
    else:  # zero
        values = np.zeros((n, n))
    if scale.startswith("2^"):  # an exact scaling
        return kernel_from_matrix(np.ldexp(values, int(scale[2:])), weights=w)
    return kernel_from_matrix(values * float(scale or 1.0), weights=w)


@pytest.fixture
def proofs(monkeypatch):
    """Records every np.linalg.cholesky call as [a copy of its matrix,
    whether it succeeded], and every _certified_radius call as (trial
    shift, result)."""
    record = SimpleNamespace(factorisations=[], radii=[])
    cholesky, certified_radius = np.linalg.cholesky, spectral._certified_radius

    def spy_cholesky(a, *args, **kwargs):
        record.factorisations.append([a.copy(), False])
        factor = cholesky(a, *args, **kwargs)
        record.factorisations[-1][1] = True
        return factor

    def spy_certified_radius(sym, s, fro, allowance=0.0):
        t = certified_radius(sym, s, fro, allowance)
        record.radii.append((s, t))
        return t

    monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
    monkeypatch.setattr(spectral, "_certified_radius", spy_certified_radius)
    return record


def _assert_proven(upper, sym, proofs):
    """A finite upper bound, but the zero matrix's 0, is what the last
    _certified_radius call returned, right after two successful
    factorisations of fl(sI - A) and fl(sI + A) on that call's shift s."""
    assert not math.isnan(upper)
    if not math.isfinite(upper):
        return
    if upper == 0.0 and not sym.any():
        assert proofs.factorisations == []
        return
    s, t = proofs.radii[-1]
    assert t == upper
    (lo, lo_ok), (hi, hi_ok) = proofs.factorisations[-2:]
    assert lo_ok and hi_ok
    off = ~np.eye(sym.shape[0], dtype=bool)
    assert np.array_equal(lo[off], -sym[off]) and np.array_equal(hi[off], sym[off])
    assert np.array_equal(lo.diagonal(), s - sym.diagonal())
    assert np.array_equal(hi.diagonal(), s + sym.diagonal())


def _eigvalsh_proof(k):
    """What operator_norm_upper returns when it proves the eigvalsh
    estimate, and the largest |eigvalsh|."""
    sym, _ = spectral._symmetrized(k)
    top = spectral_radius(spectrum(k))
    fro = spectral._frobenius(sym)
    return spectral._certified_radius(sym, top + spectral._eigvalsh_margin(k.n, fro), fro), top


class TestCertifiedRadius:
    """operator_norm_upper: every finite bound is proven by two shifted
    Cholesky factorisations, on the top Ritz value of a block Krylov run,
    or after a refusal on max |eigvalsh| plus its margin."""

    @pytest.mark.parametrize("n", [8, 64, 300, 700])
    @pytest.mark.parametrize("kind", [
        "random", "rank1", "rank2", "rank3", "negative-definite", "sphere", "zero",
        "random*1e-300", "rank2*1e-300", "sphere*1e-300", "random*1e150", "rank3*1e150",
        "sphere*1e150", "random*2^-990", "rank2*2^-990", "negative-definite*2^-990",
        "random*2^990", "rank3*2^990", "sphere*2^990",
    ])
    def test_corpus_bound_is_tight_and_above_eigvalsh(self, kind, n, proofs):
        k = _radius_corpus_kernel(kind, n, np.random.default_rng(n))
        sym, _ = spectral._symmetrized(k)
        top = spectral_radius(spectrum(k))
        upper = operator_norm_upper(k)
        _assert_proven(upper, sym, proofs)
        assert top <= upper <= top * (1 + 1e-8) + spectral._eigvalsh_margin(
            n, spectral._frobenius(sym))

    @pytest.mark.parametrize("n", [300, 700])
    def test_entries_near_the_float_range(self, rng, n, proofs):
        k = kernel_from_matrix(np.sign(random_symmetric(rng, n)) * 1e300)
        sym, _ = spectral._symmetrized(k)
        upper = operator_norm_upper(k)
        _assert_proven(upper, sym, proofs)
        assert upper == math.inf or upper >= spectral_radius(spectrum(k))

    def test_certified_without_eigvalsh(self, monkeypatch):
        k = _centred_sphere(600)
        top = spectral_radius(spectrum(k))

        def refuse(*args, **kwargs):
            raise AssertionError("the certified path called eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        upper = operator_norm_upper(k)
        assert top <= upper <= top * (1 + 1e-8)

    @pytest.mark.parametrize("fail_on", [1, 2])
    def test_failed_factorisation_gives_the_eigvalsh_bound(self, monkeypatch, fail_on):
        # the work space is restored after one or two sign flips, so the
        # second proof factors the very matrix eigvalsh saw
        k = _centred_sphere(600)
        expected, top = _eigvalsh_proof(k)
        real, calls = np.linalg.cholesky, []

        def refuse_once(a, *args, **kwargs):
            calls.append(a.shape)
            if len(calls) == fail_on:
                raise np.linalg.LinAlgError("refused")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", refuse_once)
        assert operator_norm_upper(k) == expected
        assert top <= expected < math.inf
        assert calls == [(600, 600)] * (fail_on + 2)

    @pytest.mark.parametrize("n", [600, 40])
    def test_every_factorisation_refused_gives_inf(self, monkeypatch, n):
        k = _centred_sphere(n)

        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("refused")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        assert operator_norm_upper(k) == math.inf
        est = cutnorm_heuristic(k, restarts=2, seed=0)
        assert est.method == "heuristic+L1"
        assert est.upper == max(weighted_norm(k, "L1"), est.lower)

    def test_an_estimate_below_the_radius_is_not_certified(self, monkeypatch, proofs):
        # the Krylov shift is refused, then the eigvalsh estimate is proven
        k = _centred_sphere(600)
        expected, top = _eigvalsh_proof(k)
        block_krylov = spectral._block_krylov

        def lowered(*args):
            x, theta, ritz = block_krylov(*args)
            return x, 0.99 * theta, ritz

        monkeypatch.setattr(spectral, "_block_krylov", lowered)
        proofs.radii.clear()
        assert operator_norm_upper(k) == expected
        assert [t for _, t in proofs.radii] == [None, expected]
        assert top <= expected

    @pytest.mark.parametrize("fail_on", [None, 1, 2])
    def test_either_triangle_of_a_deflated_matrix(self, monkeypatch, fail_on):
        # deflating rounded pairs leaves the triangles of sym unequal; both
        # are within the allowance, so factoring either gives the same bound,
        # and sym comes back bit for bit whether the proof holds or not
        sample, _ = _wrandom_sample(400, 0)
        sym, _ = spectral._symmetrized(sample)
        vals, vecs = np.linalg.eigh(sym)
        top = spectral._spectral_order(vals)[:3]
        sym -= (vecs[:, top] * vals[top]) @ vecs[:, top].T
        assert not np.array_equal(sym, sym.T)
        other = np.ascontiguousarray(sym.T)  # sym's lower triangle as its upper
        fro = spectral._frobenius(sym)
        s = 1.05 * float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        real, factored = np.linalg.cholesky, []

        def refuse_on(a, *args, **kwargs):
            factored[-1].append(np.tril(a))  # the triangle cholesky reads
            if len(factored[-1]) == fail_on:
                raise np.linalg.LinAlgError("refused")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", refuse_on)
        bounds = []
        for matrix in (sym, other):
            factored.append([])
            before = matrix.tobytes()
            bounds.append(spectral._certified_radius(matrix, s, fro, 1e-12))
            assert matrix.tobytes() == before
            assert len(factored[-1]) == (fail_on or 2)
        if fail_on is None:
            assert bounds[0] == bounds[1] is not None
            assert bounds[0] >= s + 1e-12
            for mine, theirs in zip(*factored):
                assert not np.array_equal(mine, theirs)
        else:
            assert bounds == [None, None]

    def test_allowance_adds_to_the_bound(self):
        k = _centred_sphere(300)
        sym, _ = spectral._symmetrized(k)
        fro = spectral._frobenius(sym)
        s = float(np.max(np.abs(spectral._eigenvalues(sym)))) * 1.01
        plain = spectral._certified_radius(sym, s, fro)
        assert spectral._certified_radius(sym, s, fro, 0.0) == plain
        assert spectral._certified_radius(sym, s, fro, 1e-6) >= plain + 1e-6

    def test_below_one_block_no_krylov_two_factorisations(self, monkeypatch, rng, proofs):
        # one atom short of a block: the basis cap of n / KRYLOV_BASIS_FRACTION
        # vectors holds no block of RADIUS_BLOCK vectors
        n = spectral.KRYLOV_BASIS_FRACTION * spectral.RADIUS_BLOCK - 1
        k = kernel_from_matrix(np.ones((n, n)) + 0.01 * random_symmetric(rng, n))
        expected, top = _eigvalsh_proof(k)
        grown = _count_krylov_blocks(monkeypatch)
        proofs.factorisations.clear()
        assert operator_norm_upper(k) == expected
        assert top <= expected
        assert grown == [0]
        assert [(a.shape, ok) for a, ok in proofs.factorisations] == [((n, n), True)] * 2

    def test_no_block_draws_nothing(self, monkeypatch, rng):
        # below one block the run is refused before a start block is drawn
        # or factored, and the bound is the eigvalsh proof's, as before
        n = spectral.KRYLOV_BASIS_FRACTION * spectral.RADIUS_BLOCK - 1
        k = kernel_from_matrix(random_symmetric(rng, n))
        expected, _ = _eigvalsh_proof(k)
        sym, _ = spectral._symmetrized(k)

        def no_start_block(*args, **kwargs):
            raise AssertionError("a start block was drawn or factored")

        monkeypatch.setattr(np.random, "default_rng", no_start_block)
        monkeypatch.setattr(np.linalg, "qr", no_start_block)
        assert spectral._block_krylov(sym, 1, spectral.RADIUS_BLOCK, 1.0, 0.0) is None
        assert operator_norm_upper(k).hex() == expected.hex()

    @pytest.mark.parametrize("n", [40, 48, 60])
    @pytest.mark.parametrize("centred", [False, True])
    def test_one_block_proves_a_large_top_eigenspace(self, monkeypatch, n, centred, proofs):
        # the one block the cap holds below 2 KRYLOV_BASIS_FRACTION RADIUS_BLOCK
        # atoms succeeds when the top eigenspace holds nearly every vector
        k = kernel_from_matrix(np.eye(n) - (1.0 / n if centred else 0.0))
        top = spectral_radius(spectrum(k))
        grown = _count_krylov_blocks(monkeypatch)

        def no_eigvalsh(sym):
            raise AssertionError("the eigvalsh fallback ran")

        monkeypatch.setattr(spectral, "_eigenvalues", no_eigvalsh)
        upper = operator_norm_upper(k)
        assert grown == [1]
        assert top <= upper <= top * (1 + 1e-9)
        _assert_proven(upper, spectral._symmetrized(k)[0], proofs)

    def test_two_blocks_prove_a_low_rank_shift(self, monkeypatch, rng, proofs):
        # with two blocks the basis holds the range of a rank-2 kernel
        n = 2 * spectral.KRYLOV_BASIS_FRACTION * spectral.RADIUS_BLOCK
        x = rng.standard_normal((n, 2))
        k = kernel_from_matrix(x @ x.T / n)
        top = spectral_radius(spectrum(k))
        grown = _count_krylov_blocks(monkeypatch)
        proofs.radii.clear()
        upper = operator_norm_upper(k)
        assert grown == [2]
        assert len(proofs.radii) == 1
        _assert_proven(upper, spectral._symmetrized(k)[0], proofs)
        assert top <= upper <= top * (1 + 1e-9)

    def test_one_krylov_run(self, monkeypatch):
        # the driver decompose_leading runs, for one pair
        runs, grown = _driver_runs(monkeypatch), _count_krylov_blocks(monkeypatch)
        operator_norm_upper(_centred_sphere(600))
        assert runs == [(1, spectral.RADIUS_BLOCK)] and len(grown) == 1
