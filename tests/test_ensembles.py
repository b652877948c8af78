import math

import numpy as np
import pytest

from graphonlab import (
    DiscreteSpace,
    Kernel,
    PermutationAction,
    apply_permutation,
    cayley_kernel,
    circle_halfplane_kernel,
    cycle_density_spectral,
    decompose,
    dilation_perm,
    invariant_dimension_report,
    kernel_from_matrix,
    spectral_radius,
    sphere_kernel,
    w_random_graph,
    weighted_mean,
    weighted_norm,
    ProfileFunction,
)
from graphonlab.ensembles import w_random_sample
from graphonlab.errors import (
    ActionDoesNotStabilizeError,
    NotCoprimeError,
    ParameterError,
    WeightMismatchError,
)
from graphonlab.homdensity import hom_density_step
from graphonlab import cycle_graph, quotient_average


def shift_perm(n):
    return (np.arange(n) + 1) % n


class TestCayley:
    def test_constant_profile(self):
        k = cayley_kernel(5, np.full(5, 0.3))
        assert np.all(k.values == 0.3)

    def test_z4_dft_oracle(self):
        f = np.array([0.0, 1.0, 0.0, 1.0])
        k = cayley_kernel(4, f)
        dec = decompose(k)
        dft = np.real(np.fft.fft(f)) / 4.0  # (0.5, 0, -0.5, 0)
        assert np.allclose(np.sort(dec.eigenvalues), np.sort(dft), atol=1e-12)

    def test_multiplicity_pairing(self):
        # frequencies j and n - j share an eigenvalue for j not in {0, n/2}
        n = 8
        f = np.array([0.1, 0.9, 0.3, 0.2, 0.7, 0.2, 0.3, 0.9])
        k = cayley_kernel(n, f)
        dec = decompose(k)
        dft = np.real(np.fft.fft(f)) / n
        for j in range(1, n // 2):
            count = np.sum(np.abs(dec.eigenvalues - dft[j]) < 1e-10)
            assert count >= 2

    def test_shift_invariance_exact(self):
        k = cayley_kernel(6, np.array([0.0, 0.5, 0.2, 0.9, 0.2, 0.5]))
        moved = apply_permutation(k, shift_perm(6))
        assert np.array_equal(moved.values, k.values)

    def test_odd_profile_rejected(self):
        with pytest.raises(ParameterError, match="even"):
            cayley_kernel(4, np.array([0.0, 1.0, 0.0, 0.5]))

    @pytest.mark.parametrize("f", [[math.nan, 0.0, math.nan], [0.0, math.inf, math.inf],
                                   [math.inf, 0.0, 0.0]])
    def test_nonfinite_profile_rejected(self, f):
        # NaN - NaN passes a "skew > 1e-12" test; the kernel's own finiteness
        # check then raised NonFiniteError
        with pytest.raises(ParameterError, match="finite"):
            cayley_kernel(3, f)

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_group_rejected(self, n):
        # n = 0 passed the shape check with f = [] and numpy's max of the
        # empty evenness gap raised a bare ValueError
        with pytest.raises(ParameterError, match="at least 1"):
            cayley_kernel(n, [])


class TestCircle:
    def test_n4_is_identity(self):
        assert np.array_equal(circle_halfplane_kernel(4).values, np.eye(4))

    def test_row_count_near_half(self):
        for n in (8, 16, 64):
            k = circle_halfplane_kernel(n)
            ones = k.values[0].sum()
            assert abs(ones - n / 2) <= 1.0

    def test_is_circulant(self):
        k = circle_halfplane_kernel(12)
        moved = apply_permutation(k, shift_perm(12))
        assert np.array_equal(moved.values, k.values)

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            circle_halfplane_kernel(10)


class TestDilation:
    def test_identity(self):
        assert np.array_equal(dilation_perm(8, 1), np.arange(8))

    def test_example_n8_k3(self):
        assert np.array_equal(dilation_perm(8, 3), [0, 3, 6, 1, 4, 7, 2, 5])

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            dilation_perm(8, 2)

    def test_negation_leaves_circle_invariant(self):
        n = 16
        k = circle_halfplane_kernel(n)
        moved = apply_permutation(k, dilation_perm(n, n - 1))
        assert np.array_equal(moved.values, k.values)

    def test_densities_agree_but_cut_norm_separates(self):
        # dilations keep every cycle density while moving the kernel far
        # away in cut norm: the finite shadow of non-compactness
        from graphonlab import cutnorm_exact, cutnorm_heuristic, DiscreteSpace

        n = 64
        k = circle_halfplane_kernel(n)
        perm = dilation_perm(n, 3)
        moved = apply_permutation(k, perm)
        d1, d2 = decompose(k), decompose(moved)
        for j in range(3, 9):
            assert cycle_density_spectral(d1, j).value == pytest.approx(
                cycle_density_spectral(d2, j).value, abs=1e-9
            )
        diff = Kernel(k.space, moved.values - k.values)
        heur = cutnorm_heuristic(diff, restarts=16, seed=0)
        # certified exact lower bound from the 16-atom quotient
        quoted = quotient_average(diff, (np.arange(n) * 16) // n)
        small = Kernel(DiscreteSpace(quoted.part_weights), quoted.block)
        exact16 = cutnorm_exact(small)
        assert max(heur.lower, exact16.lower) >= 0.05


class TestSphere:
    def test_constant_profile(self):
        f = ProfileFunction.from_table([0.4, 0.4, 0.4])
        k = sphere_kernel(2, f, 50, seed=0)
        assert np.all(k.values == 0.4)

    def test_identity_profile_eigenvalue_cluster(self):
        # the inner-product kernel has population eigenvalues 1/(n+1) with
        # multiplicity n+1 (the coordinate functions)
        dim = 3
        k = sphere_kernel(dim, ProfileFunction.linear(), 2000, seed=5)
        dec = decompose(k)
        top = dec.eigenvalues[: dim + 1]
        assert np.all(np.abs(top - 1.0 / (dim + 1)) <= 0.2 / (dim + 1))
        # and the rest is far smaller
        assert abs(dec.eigenvalues[dim + 1]) < 0.5 / (dim + 1)

    def test_threshold_density_near_half(self):
        k = sphere_kernel(2, ProfileFunction.threshold(0.0), 1200, seed=3)
        assert abs(weighted_mean(k) - 0.5) < 0.06

    def test_diagonal_is_f_of_one(self):
        f = ProfileFunction.threshold(0.5)
        k = sphere_kernel(2, f, 40, seed=1)
        assert np.all(np.diagonal(k.values) == 1.0)

    def test_deterministic_per_seed(self):
        f = ProfileFunction.threshold(0.0)
        a = sphere_kernel(2, f, 60, seed=9)
        b = sphere_kernel(2, f, 60, seed=9)
        assert np.array_equal(a.values, b.values)


class TestWRandom:
    def test_constant_one_complete(self):
        k = kernel_from_matrix(np.ones((3, 3)))
        g = w_random_graph(k, 6, seed=0)
        assert np.array_equal(g.values, np.ones((6, 6)) - np.eye(6))

    def test_constant_zero_empty(self):
        k = kernel_from_matrix(np.zeros((3, 3)))
        g = w_random_graph(k, 6, seed=0)
        assert np.all(g.values == 0.0)

    def test_half_density_spectrum(self):
        k = kernel_from_matrix(np.full((4, 4), 0.5))
        g = w_random_graph(k, 500, seed=2)
        dec = decompose(g)
        assert abs(dec.eigenvalues[0] - 0.5) <= 0.1
        # semicircle scale: second eigenvalue about 2 sqrt(p(1-p)/N),
        # asserted with three times that estimate
        scale = 2.0 * math.sqrt(0.25 / 500)
        assert abs(dec.eigenvalues[1]) <= 3.0 * scale

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            w_random_graph(kernel_from_matrix(np.full((2, 2), 1.5)), 5, seed=0)

    def test_c4_density_converges(self):
        from graphonlab import DiscreteSpace, StepFunction, expand_step

        sf = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[0.8, 0.3], [0.3, 0.6]])
        src = expand_step(sf)
        target = cycle_density_spectral(decompose(src), 4).value
        errs = {}
        for N in (100, 400):
            gaps = []
            for seed in range(10):
                g = w_random_graph(src, N, seed=seed)
                val = cycle_density_spectral(decompose(g), 4).value
                gaps.append(abs(val - target))
            errs[N] = float(np.median(gaps))
        assert errs[400] < errs[100]

    def test_atoms_are_the_weighted_choice_stream(self):
        rng = np.random.default_rng(4)
        w = rng.random(9) + 1e-3
        k = kernel_from_matrix(np.full((9, 9), 0.5), w / w.sum())
        g, atoms = w_random_sample(k, 300, seed=6)
        ref = np.random.default_rng(6)
        assert np.array_equal(atoms, ref.choice(9, size=300, p=k.space.weights))
        coins = ref.random((300, 300))  # the edge coins follow from the same stream
        upper = np.triu(coins < 0.5, k=1)
        assert np.array_equal(g.values, (upper | upper.T).astype(float))


class TestInvariantDimensionReport:
    def _normalized_cayley(self, p, fvals):
        fvals = np.asarray(fvals, dtype=float)
        fvals = fvals - fvals.mean()
        k = cayley_kernel(p, fvals)
        l2 = weighted_norm(k, "L2")
        return Kernel(k.space, k.values / l2)

    def test_cayley_zp_min_dimension_two(self):
        for p, base in ((7, [0, 1, -1, 0.5, 0.5, -1, 1]),
                        (11, [0, 1, 0, -1, 0.5, 0.25, 0.25, 0.5, -1, 0, 1])):
            k = self._normalized_cayley(p, base)
            action = PermutationAction(k.space, (shift_perm(p),))
            rep = invariant_dimension_report(k, action)
            assert rep.kernel_report.d >= 2
            assert rep.kernel_report.spectral_radius <= 1.0 / math.sqrt(2) + 1e-9
            assert rep.kernel_report.bound_holds

    @pytest.mark.parametrize("centre", [True, False])
    @pytest.mark.parametrize("p, base", [
        (7, [0, 1, -1, 0.5, 0.5, -1, 1]),
        (11, [0, 1, 0, -1, 0.5, 0.25, 0.25, 0.5, -1, 0, 1]),
        (13, [0, 1, 0.2, -1, 0.5, -0.3, 0.25, 0.25, -0.3, 0.5, -1, 0.2, 1]),
    ])
    def test_centered_cut_within_its_bound(self, p, base, centre):
        # the cut-norm bracket of K - p against ||K - p||_2 / sqrt(d)
        fvals = np.asarray(base, dtype=float)
        k = cayley_kernel(p, fvals - fvals.mean() if centre else fvals)
        k = Kernel(k.space, k.values / weighted_norm(k, "L2"))
        rep = invariant_dimension_report(k, PermutationAction(k.space, (shift_perm(p),)))
        assert rep.centered_cut_holds
        assert rep.centered_cut_bound == rep.centered_report.bound
        assert rep.centered_cut.upper <= rep.centered_cut_bound + 1e-9

    def test_constant_kernel_centered_report_empty(self):
        k = kernel_from_matrix(np.full((5, 5), 0.4))
        action = PermutationAction(k.space, (shift_perm(5),))
        rep = invariant_dimension_report(k, action)
        assert rep.centered_report.d is None
        assert rep.centered_cut is None

    def test_rejects_non_stabilizing_action(self):
        vals = np.array([
            [0.0, 0.1, 0.2],
            [0.1, 0.5, 0.3],
            [0.2, 0.3, 0.9],
        ])
        k = kernel_from_matrix(vals)
        action = PermutationAction(k.space, (shift_perm(3),))
        with pytest.raises(ActionDoesNotStabilizeError):
            invariant_dimension_report(k, action)

    def test_rejects_an_action_on_a_space_of_other_weights(self):
        k = kernel_from_matrix(np.full((3, 3), 0.4))
        other = DiscreteSpace(np.array([0.25, 0.25, 0.5]))
        action = PermutationAction(other, ((1, 0, 2),))
        with pytest.raises(WeightMismatchError, match="another space"):
            invariant_dimension_report(k, action)

    def test_rejects_an_action_whose_second_generator_moves_the_kernel(self):
        # the reflection x -> -x mod 6 fixes this kernel; the shift does not
        vals = np.array([[0.9, 0.3, 0.1, 0.0, 0.1, 0.3]] * 6)
        vals[1:, 0] = vals[0, 1:]
        vals[1:, 1:] = 0.2
        k = kernel_from_matrix(vals)
        reflect = (-np.arange(6)) % 6
        assert np.array_equal(apply_permutation(k, reflect).values, k.values)
        with pytest.raises(ActionDoesNotStabilizeError):
            invariant_dimension_report(k, PermutationAction(k.space, (reflect, shift_perm(6))))
        rep = invariant_dimension_report(k, PermutationAction(k.space, (reflect,)))
        assert rep.kernel_report.d is not None

    def test_sphere_quasirandom_bound(self):
        # threshold sphere kernel: centered cut norm under 1/sqrt(dim+1)
        dim = 3
        k = sphere_kernel(dim, ProfileFunction.threshold(0.0), 800, seed=4)
        from graphonlab import cutnorm_heuristic

        p = weighted_mean(k)
        centered = Kernel(k.space, k.values - p)
        est = cutnorm_heuristic(centered, restarts=16, seed=4)
        assert est.lower <= 1.0 / math.sqrt(dim + 1) + 0.05
