import numpy as np
import pytest

from graphonlab import (
    PermutationAction,
    apply_permutation,
    decompose,
    kernel_from_matrix,
    operator_norm_upper,
    spectral_radius,
    spectrum_distribution,
    tail_truncate,
    weighted_norm,
)
from graphonlab.ensembles import cayley_kernel
from graphonlab.errors import AllZeroSpectrum, EigenSolverError, ThresholdSplitsCluster
from graphonlab.spectral import SpectralDecomposition, _validate, gap_midpoints

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

    def test_operator_norm_upper_overflow_is_inf(self, rng):
        k = kernel_from_matrix(np.sign(random_symmetric(rng, 6)) * 1e300)
        assert operator_norm_upper(k) == np.inf


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
