from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphonlab import (
    DiscreteSpace,
    Kernel,
    PermutationAction,
    StepFunction,
    apply_permutation,
    builtin_graph,
    cycle_graph,
    expand_step,
    kernel_from_matrix,
    quotient_average,
    weighted_norm,
)
from graphonlab import core
from graphonlab.core import SYMMETRY_TILE, _symmetrize_in_place, symmetric_kernel
from graphonlab.errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    EmptyPartError,
    InvalidSpaceError,
    NonFiniteError,
    SymmetrizedWarning,
    WeightMismatchError,
)

from conftest import random_symmetric


class TestDiscreteSpace:
    def test_uniform(self):
        sp = DiscreteSpace.uniform(4)
        assert sp.n == 4
        assert np.allclose(sp.weights, 0.25)

    def test_rejects_nonnormalized(self):
        with pytest.raises(InvalidSpaceError):
            DiscreteSpace(np.array([0.5, 0.6]))

    def test_rejects_tiny_weight(self):
        with pytest.raises(InvalidSpaceError):
            DiscreteSpace(np.array([1e-16, 1.0 - 1e-16]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(InvalidSpaceError):
            DiscreteSpace(np.array([bad, 0.5]))

    def test_rejects_no_atoms(self):
        with pytest.raises(InvalidSpaceError, match="nonempty"):
            DiscreteSpace(np.array([]))
        with pytest.raises(InvalidSpaceError, match="positive"):
            DiscreteSpace.uniform(0)

    def test_immutable(self):
        sp = DiscreteSpace.uniform(3)
        with pytest.raises(ValueError):
            sp.weights[0] = 0.5


class TestKernelConstruction:
    def test_degenerate_space(self):
        k = kernel_from_matrix([[0.5]])
        assert k.n == 1
        assert k.values[0, 0] == 0.5
        assert k.space.weights[0] == 1.0

    def test_values_must_match_the_space(self):
        with pytest.raises(DimensionMismatchError, match="does not match space size 3"):
            Kernel(DiscreteSpace.uniform(3), np.zeros((2, 2)))

    def test_symmetric_input(self):
        k = kernel_from_matrix([[0, 1], [1, 0]])
        assert np.array_equal(k.values, [[0, 1], [1, 0]])

    def test_small_skew_symmetrized_with_warning(self):
        # skew 1e-10 sits between the silent and hard tolerances
        with pytest.warns(SymmetrizedWarning):
            k = kernel_from_matrix([[0, 1], [0.9999999999, 0]])
        assert k.values[0, 1] == k.values[1, 0] == pytest.approx(0.99999999995, abs=0)

    @pytest.mark.parametrize("n", [SYMMETRY_TILE - 1, 2 * SYMMETRY_TILE + 37])
    def test_asymmetry_in_the_last_tile_rejected(self, rng, n):
        # n is no multiple of the tile, so the last tiles are ragged
        v = random_symmetric(rng, n)
        Kernel(DiscreteSpace.uniform(n), v)
        for i, j in ((n - 1, n - 2), (n - 2, n - 1), (n - 1, 0)):
            bad = v.copy()
            bad[i, j] = np.nextafter(bad[i, j], 2.0)
            with pytest.raises(AsymmetricMatrixError):
                Kernel(DiscreteSpace.uniform(n), bad)
            # a step block goes through the same check
            with pytest.raises(AsymmetricMatrixError):
                StepFunction(DiscreteSpace.uniform(n), np.arange(n), bad)
        StepFunction(DiscreteSpace.uniform(n), np.arange(n), v)

    @pytest.mark.parametrize("n", [1, SYMMETRY_TILE - 1, 2 * SYMMETRY_TILE + 37])
    def test_symmetric_kernel_is_the_whole_matrix_average(self, rng, n):
        # the tiled in-place (v + v^T) / 2 gives the bits of the whole-matrix
        # one, ragged last tiles included
        v = rng.uniform(-1.0, 1.0, (n, n))
        expected = (v + v.T) / 2.0
        skew = np.max(np.abs(v - v.T))
        w = v.copy()
        assert _symmetrize_in_place(w) == skew
        assert np.array_equal(w, expected)
        assert np.array_equal(symmetric_kernel(v, DiscreteSpace.uniform(n)).values, expected)
        # a second pass finds nothing to remove
        assert _symmetrize_in_place(w) == 0.0
        assert np.array_equal(w, expected)

    def test_symmetrizing_leaves_equal_tile_pairs_unwritten(self):
        # entries past half the float range overflow when averaged with
        # themselves; their tile pair is equal, so it keeps them
        t = SYMMETRY_TILE
        v = np.full((t + 3, t + 3), 0.5)
        v[:t, :t] = 1e308
        v[-1, -2] = 0.25
        assert _symmetrize_in_place(v) == 0.25
        assert np.all(v[:t, :t] == 1e308)
        assert v[-1, -2] == v[-2, -1] == 0.375

    def test_large_skew_rejected(self):
        with pytest.raises(AsymmetricMatrixError):
            kernel_from_matrix([[0, 1], [0.9, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(Exception):
            kernel_from_matrix(np.ones((2, 3)))

    @pytest.mark.parametrize("m", [
        [[np.inf, 0], [0, 1]],
        [[np.nan, 0], [0, 1]],
        [[0, -np.inf], [-np.inf, 0]],
    ])
    def test_non_finite_rejected(self, m):
        with pytest.raises(NonFiniteError):
            kernel_from_matrix(m)
        with pytest.raises(NonFiniteError):
            Kernel(DiscreteSpace.uniform(2), np.array(m, dtype=float))

    def test_huge_symmetric_entries_kept(self, rng):
        # (v + v.T) / 2 overflowed to inf for finite entries above ~9e307
        v = np.sign(random_symmetric(rng, 6)) * 1.7e308
        assert np.array_equal(kernel_from_matrix(v).values, v)

    @pytest.mark.parametrize("skew", [0.0, 1e-13])
    def test_input_array_stays_writable_and_unshared(self, rng, skew):
        big = np.zeros((8, 8))
        big[:6, :6] = random_symmetric(rng, 6)
        big[0, 1] += skew
        for a in (big[:6, :6], big[:6, :6].copy()):
            k = kernel_from_matrix(a)
            kept = k.values.copy()
            a += 0.5  # raised 'assignment destination is read-only' at zero skew
            big[2, 3] = 9.0
            assert np.array_equal(k.values, kept)

    def test_custom_weights(self):
        k = kernel_from_matrix([[1, 0], [0, 1]], weights=[0.25, 0.75])
        assert np.allclose(k.space.weights, [0.25, 0.75])


class TestStepFunctions:
    def test_expand_constant(self):
        sf = StepFunction(DiscreteSpace.uniform(3), [0, 0, 0], [[0.4]])
        k = expand_step(sf)
        assert np.all(k.values == 0.4)

    def test_non_finite_block_rejected(self):
        with pytest.raises(NonFiniteError):
            StepFunction(DiscreteSpace.uniform(2), [0, 1], [[np.inf, 0.0], [0.0, 1.0]])

    def test_expand_block_identity(self):
        sf = StepFunction(DiscreteSpace.uniform(4), [0, 0, 1, 1], [[1.0, 0.0], [0.0, 1.0]])
        k = expand_step(sf)
        expected = np.zeros((4, 4))
        expected[:2, :2] = 1.0
        expected[2:, 2:] = 1.0
        assert np.array_equal(k.values, expected)

    def test_expand_quotient_round_trip_exact(self):
        rng = np.random.default_rng(7)
        labels = np.array([0, 1, 2, 0, 1, 2, 2])
        block = random_symmetric(rng, 3)
        sf = StepFunction(
            DiscreteSpace(np.array([0.1, 0.1, 0.2, 0.2, 0.15, 0.15, 0.1])), labels, block
        )
        back = quotient_average(expand_step(sf), labels)
        assert np.array_equal(back.block, sf.block)
        assert np.array_equal(expand_step(back).values, expand_step(sf).values)

    def test_quotient_constant_kernel(self):
        k = kernel_from_matrix(np.full((5, 5), 0.3))
        sf = quotient_average(k, [0, 0, 1, 1, 1])
        assert np.all(sf.block == 0.3)

    def test_quotient_single_part_average(self):
        k = kernel_from_matrix([[1.0, 0.0], [0.0, 1.0]])
        sf = quotient_average(k, [0, 0])
        assert sf.block[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_quotient_matches_double_sum_oracle(self, rng):
        # independent oracle: direct double summation over atom pairs
        k = kernel_from_matrix(random_symmetric(rng, 6), weights=np.full(6, 1 / 6))
        labels = np.array([0, 1, 2, 0, 1, 2])
        sf = quotient_average(k, labels)
        w = k.space.weights
        for p in range(3):
            for q in range(3):
                num = 0.0
                den = 0.0
                for a in range(6):
                    for b in range(6):
                        if labels[a] == p and labels[b] == q:
                            num += w[a] * w[b] * k.values[a, b]
                            den += w[a] * w[b]
                assert sf.block[p, q] == pytest.approx(num / den, abs=1e-14)

    def test_empty_part_rejected(self):
        k = kernel_from_matrix(np.eye(3))
        with pytest.raises(EmptyPartError):
            StepFunction(k.space, [0, 0, 0], [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("labels, block, error", [
        ([0, 1], np.eye(2), DimensionMismatchError),  # one label short
        ([0, 1, 1], np.zeros((2, 3)), DimensionMismatchError),  # block not square
        ([0, 0, 0], 0.5, DimensionMismatchError),  # a 0-d block raised IndexError
        ([0, 0, 0], [0.5], DimensionMismatchError),
        ([0, 1, 2], np.eye(2), EmptyPartError),  # label outside [0, s)
        ([0, 1, -1], np.eye(2), EmptyPartError),
        ([0, 1, 1], [[0.0, 0.5], [0.25, 0.0]], AsymmetricMatrixError),
    ])
    def test_malformed_step_function_rejected(self, labels, block, error):
        with pytest.raises(error):
            StepFunction(DiscreteSpace.uniform(3), labels, block)

    def test_part_weights_are_the_summed_atom_weights(self):
        space = DiscreteSpace(np.array([0.1, 0.2, 0.3, 0.4]))
        sf = StepFunction(space, [1, 0, 1, 0], np.eye(2))
        assert list(sf.part_weights) == pytest.approx([0.6, 0.4], abs=1e-15)
        assert not sf.part_weights.flags.writeable


class TestPermutations:
    def test_identity(self):
        k = kernel_from_matrix([[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(apply_permutation(k, [0, 1]).values, k.values)

    def test_swap(self):
        k = kernel_from_matrix([[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(apply_permutation(k, [1, 0]).values, [[0.0, 0.0], [0.0, 1.0]])

    def test_weight_mismatch_rejected(self):
        k = kernel_from_matrix(np.eye(2), weights=[0.3, 0.7])
        with pytest.raises(WeightMismatchError):
            apply_permutation(k, [1, 0])

    def test_norms_invariant(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 7))
        g = rng.permutation(7)
        kp = apply_permutation(k, g)
        for norm in ("L1", "L2", "Linf"):
            assert weighted_norm(kp, norm) == pytest.approx(
                weighted_norm(k, norm), abs=1e-12
            )

    def test_action_validates_generators(self):
        sp = DiscreteSpace.uniform(3)
        with pytest.raises(WeightMismatchError):
            PermutationAction(sp, (np.array([0, 0, 1]),))

    @pytest.mark.parametrize("perm,what", [
        ([0, 0, 1], "not a bijection"),
        ([0, 1], "not a bijection"),
        ([1, 0, 2], "does not preserve the atom weights"),
    ])
    def test_action_and_apply_check_alike(self, perm, what):
        # one check: the same permutation fails both the same way
        k = kernel_from_matrix(np.eye(3), weights=[0.25, 0.5, 0.25])
        with pytest.raises(WeightMismatchError, match=what):
            apply_permutation(k, perm)
        with pytest.raises(WeightMismatchError, match=what):
            PermutationAction(k.space, ([0, 1, 2], perm))


class TestWeightedNorms:
    def test_constant_kernel(self):
        k = kernel_from_matrix(np.full((4, 4), 0.7))
        assert weighted_norm(k, "L1") == pytest.approx(0.7, abs=1e-15)
        assert weighted_norm(k, "L2") == pytest.approx(0.7, abs=1e-15)
        assert weighted_norm(k, "Linf") == 0.7

    def test_plus_minus_one(self):
        k = kernel_from_matrix([[1.0, -1.0], [-1.0, 1.0]])
        assert weighted_norm(k, "L2") == pytest.approx(1.0, abs=1e-15)
        assert weighted_norm(k, "Linf") == 1.0

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError, match="unknown norm 'L3'"):
            weighted_norm(kernel_from_matrix(np.eye(2)), "L3")

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_norm_ordering(self, n, seed):
        # weighted Cauchy-Schwarz: L1 <= L2 <= Linf
        rng = np.random.default_rng(seed)
        k = kernel_from_matrix(random_symmetric(rng, n, -2.0, 2.0))
        l1 = weighted_norm(k, "L1")
        l2 = weighted_norm(k, "L2")
        linf = weighted_norm(k, "Linf")
        assert l1 <= l2 + 1e-12
        assert l2 <= linf + 1e-12


class TestTemplateGraphs:
    @pytest.mark.parametrize("name,k,edges", [
        ("edge", 2, {(1, 2)}),
        ("triangle", 3, {(1, 2), (2, 3), (1, 3)}),
        ("K4", 4, {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}),
        ("path_3", 3, {(1, 2), (2, 3)}),
        ("path_1", 1, set()),
        ("cycle_5", 5, set(cycle_graph(5).edges)),
    ])
    def test_builtin_names(self, name, k, edges):
        g = builtin_graph(name)
        assert g.k == k
        assert g.edges == frozenset(edges)

    @pytest.mark.parametrize("name", ["cycle_2", "path_0", "k4", "cycle_", "cycle_3x",
                                      "graph.txt"])
    def test_unknown_or_invalid_name(self, name):
        with pytest.raises(ValueError):
            builtin_graph(name)


@pytest.mark.parametrize("path", sorted(Path(core.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_freezing_and_symmetrizing_live_in_core_only(path):
    # core._frozen is the one setflags call and core._symmetrize_in_place
    # the one average of a matrix with its transpose
    if path.name != "core.py":
        text = path.read_text(encoding="utf-8")
        assert "setflags(" not in text
        assert ".T) / 2" not in text
