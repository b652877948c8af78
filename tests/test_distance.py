import itertools

import numpy as np
import pytest

from graphonlab import DiscreteSpace, StepFunction, distance
from graphonlab.distance import (
    _density_gap_lower,
    common_refinement,
    delta_bracket,
)
from graphonlab.errors import IrrationalWeightsError

from conftest import random_symmetric


def two_part(weights, block):
    n = len(weights)
    space = DiscreteSpace(np.asarray(weights))
    labels = [0] * (n // 2) + [1] * (n - n // 2)
    return StepFunction(space, labels, np.asarray(block, dtype=float))


def brute_force_min_norm(v1, v2, norm):
    """Oracle: direct loop over every permutation of the refined atoms."""
    m = v1.shape[0]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    best = np.inf
    for perm in itertools.permutations(range(m)):
        p = np.array(perm)
        diff = v1[np.ix_(p, p)] - v2
        if norm == "L1":
            val = np.abs(diff).mean()
        elif norm == "cut":  # every sign pair (f, g)
            val = np.abs(signs @ diff @ signs.T).max() / (m * m)
        else:
            val = np.sqrt((diff * diff).mean())
        best = min(best, val)
    return float(best)


class TestCommonRefinement:
    def test_aligned_uniform_parts(self):
        sf1 = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[1.0, 0.0], [0.0, 0.5]])
        sf2 = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[0.2, 0.1], [0.1, 0.9]])
        space, k1, k2 = common_refinement(sf1, sf2)
        assert space.n == 2

    def test_thirds_vs_halves(self):
        sf1 = StepFunction(DiscreteSpace(np.array([1 / 3, 2 / 3])), [0, 1],
                            [[1.0, 0.0], [0.0, 1.0]])
        sf2 = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        space, _, _ = common_refinement(sf1, sf2)
        assert space.n == 6

    def test_identical_step_functions_expand_equal(self):
        sf = StepFunction(DiscreteSpace(np.array([0.25, 0.75])), [0, 1],
                           [[0.3, 0.6], [0.6, 0.1]])
        _, k1, k2 = common_refinement(sf, sf)
        assert np.array_equal(k1.values, k2.values)

    def test_irrational_weights_rejected(self):
        w = np.array([1 / np.sqrt(2), 1 - 1 / np.sqrt(2)])
        sf1 = StepFunction(DiscreteSpace(w), [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        sf2 = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(IrrationalWeightsError):
            common_refinement(sf1, sf2, max_atoms=50)


class TestDeltaBracket:
    def test_self_distance_zero(self):
        sf = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[0.9, 0.2], [0.2, 0.4]])
        for norm in ("L1", "L2", "cut"):
            b = delta_bracket(sf, sf, norm)
            assert b.upper == pytest.approx(0.0, abs=1e-14)
            assert b.lower == pytest.approx(0.0, abs=1e-14)

    def test_relabeled_found_by_search(self):
        space = DiscreteSpace.uniform(4)
        sf1 = StepFunction(space, [0, 0, 1, 1], [[0.9, 0.1], [0.1, 0.3]])
        sf2 = StepFunction(space, [0, 0, 1, 1], [[0.3, 0.1], [0.1, 0.9]])
        b = delta_bracket(sf1, sf2, "L2")
        assert b.regime == "exact"
        assert b.upper == pytest.approx(0.0, abs=1e-14)

    def test_constant_vs_constant(self):
        cp = StepFunction(DiscreteSpace.uniform(1), [0], [[0.3]])
        cq = StepFunction(DiscreteSpace.uniform(1), [0], [[0.8]])
        for norm in ("L1", "L2", "cut"):
            b = delta_bracket(cp, cq, norm)
            assert b.upper == pytest.approx(0.5, abs=1e-14)
            assert b.lower <= b.upper + 1e-12

    def test_exact_regime_matches_enumeration_oracle(self, rng):
        space = DiscreteSpace.uniform(3)
        sf1 = StepFunction(space, [0, 1, 2], random_symmetric(rng, 3, 0.0, 1.0))
        sf2 = StepFunction(space, [0, 1, 2], random_symmetric(rng, 3, 0.0, 1.0))
        for norm in ("L1", "L2", "cut"):
            b = delta_bracket(sf1, sf2, norm)
            assert b.regime == "exact"
            _, k1, k2 = common_refinement(sf1, sf2)
            assert b.upper == pytest.approx(
                brute_force_min_norm(k1.values, k2.values, norm), abs=1e-12
            )

    def test_pseudometric_symmetry(self, rng):
        space = DiscreteSpace.uniform(4)
        sf1 = StepFunction(space, [0, 0, 1, 1], random_symmetric(rng, 2, 0.0, 1.0))
        sf2 = StepFunction(space, [0, 0, 1, 1], random_symmetric(rng, 2, 0.0, 1.0))
        ab = delta_bracket(sf1, sf2, "L1")
        ba = delta_bracket(sf2, sf1, "L1")
        assert ab.regime == "exact"
        assert ab.upper == pytest.approx(ba.upper, abs=1e-12)

    def test_cut_upper_at_most_l1_upper(self, rng):
        space = DiscreteSpace.uniform(4)
        sf1 = StepFunction(space, [0, 0, 1, 1], random_symmetric(rng, 2, 0.0, 1.0))
        sf2 = StepFunction(space, [0, 0, 1, 1], random_symmetric(rng, 2, 0.0, 1.0))
        cut = delta_bracket(sf1, sf2, "cut")
        l1 = delta_bracket(sf1, sf2, "L1")
        assert cut.upper <= l1.upper + 1e-10

    def test_relabel_invariance(self, rng):
        space = DiscreteSpace.uniform(4)
        block = random_symmetric(rng, 2, 0.0, 1.0)
        sf1 = StepFunction(space, [0, 0, 1, 1], block)
        flipped = StepFunction(space, [1, 1, 0, 0], block[::-1, ::-1].copy())
        target = StepFunction(space, [0, 1, 0, 1], random_symmetric(rng, 2, 0.0, 1.0))
        a = delta_bracket(sf1, target, "L2")
        b = delta_bracket(flipped, target, "L2")
        assert a.upper == pytest.approx(b.upper, abs=1e-12)

    def test_heuristic_regime_recovers_relabeling(self):
        # weights (0.3, 0.3, 0.4) refine to 10 atoms, beyond the exact
        # enumeration limit, and the relabeled copy must still align to 0
        space = DiscreteSpace(np.array([0.3, 0.3, 0.4]))
        block = np.array([
            [0.9, 0.1, 0.5],
            [0.1, 0.4, 0.2],
            [0.5, 0.2, 0.7],
        ])
        sf1 = StepFunction(space, [0, 1, 2], block)
        order = np.array([2, 0, 1])
        space2 = DiscreteSpace(np.array([0.4, 0.3, 0.3]))
        sf2 = StepFunction(space2, [0, 1, 2], block[np.ix_(order, order)])
        b = delta_bracket(sf1, sf2, "L2", max_atoms=16)
        assert b.regime == "heuristic"
        assert b.refinement_size == 10
        assert b.upper == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("limit", [-3, 27, 40])
    def test_exact_limit_outside_the_ceiling_rejected_in_every_regime(self, limit):
        # 2 atoms take the exact permutation regime, which never reads the
        # limit; it is refused all the same
        sf = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[0.3, 0.6], [0.6, 0.1]])
        with pytest.raises(ValueError):
            delta_bracket(sf, sf, "cut", exact_limit=limit)

    def test_exact_regime_never_reads_the_exact_limit(self, rng):
        # up to 8 atoms every permutation is scored by the exact sign engine,
        # whatever the limit on the cut norms of larger refinements
        space = DiscreteSpace.uniform(8)
        sf1 = StepFunction(space, range(8), random_symmetric(rng, 8, 0.0, 1.0))
        sf2 = StepFunction(space, range(8), random_symmetric(rng, 8, 0.0, 1.0))
        default = delta_bracket(sf1, sf2, "cut")
        zero = delta_bracket(sf1, sf2, "cut", exact_limit=0)
        assert default.regime == zero.regime == "exact"
        assert (zero.lower, zero.upper) == (default.lower, default.upper)
        assert np.array_equal(zero.alignment, default.alignment)

    def test_bracket_sandwich_and_certificate_label(self, rng):
        space = DiscreteSpace.uniform(4)
        sf1 = StepFunction(space, [0, 0, 1, 1], random_symmetric(rng, 2, 0.0, 1.0))
        sf2 = StepFunction(space, [0, 0, 1, 1], random_symmetric(rng, 2, 0.0, 1.0))
        b = delta_bracket(sf1, sf2, "cut")
        assert 0.0 <= b.lower <= b.upper + 1e-12
        assert b.lower_certificate == "counting-lemma"
        assert b.norm == "cut"


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.5), (-3.0, 3.0)])
def test_counting_lemma_lower_is_below_the_exact_distance(lo, hi):
    # small refinements give the exact minimum over alignments;
    # the raw lower bound, before the min clamp of delta_bracket, must stay
    # below it (up to float noise: a constant shift attains equality)
    rng = np.random.default_rng([7, int(10 * hi)])
    for labels1, labels2 in [([0, 0, 1, 1], [0, 1, 1, 1]),
                             ([0, 1, 2, 2, 2, 2], [0, 0, 0, 1, 1, 2]),
                             ([0, 1, 1, 2, 3, 3], [0, 0, 1, 1, 2, 2])]:
        for _ in range(4):
            space = DiscreteSpace.uniform(len(labels1))
            sf1 = StepFunction(space, labels1, random_symmetric(rng, max(labels1) + 1, lo, hi))
            sf2 = StepFunction(space, labels2, random_symmetric(rng, max(labels2) + 1, lo, hi))
            b = delta_bracket(sf1, sf2, "cut")
            assert b.regime == "exact"
            raw = _density_gap_lower(sf1, sf2)
            assert 0.0 <= raw <= b.upper * (1 + 1e-12) + 1e-15, (raw, b.upper)


def test_counting_lemma_constant_shift_is_tight():
    # t(edge, .) is the mean, so for W and W + c the edge gap is exactly |c|,
    # the cut distance
    space = DiscreteSpace.uniform(2)
    block = np.array([[0.3, 0.6], [0.6, 0.1]])
    b = delta_bracket(StepFunction(space, [0, 1], block),
                      StepFunction(space, [0, 1], block + 0.25), "cut")
    assert b.lower == pytest.approx(0.25, rel=1e-12)
    assert b.upper == pytest.approx(0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# the swap descent against full re-evaluation


def full_swap_descent(v1, v2, norm, perm, rng):
    """Oracle: the plain swap descent, which re-evaluates every pair in
    turn."""
    best = distance._descent_objective(distance._apply(v1, perm) - v2, norm)
    m = perm.size
    for _ in range(distance._DESCENT_ROUNDS):
        improved = False
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        rng.shuffle(pairs)
        for i, j in pairs:
            cand = perm.copy()
            cand[i], cand[j] = cand[j], cand[i]
            val = distance._descent_objective(distance._apply(v1, cand) - v2, norm)
            if val < best - 1e-15:
                best = val
                perm = cand
                improved = True
                break
        if not improved:
            break
    return perm


def expanded_block(rng, m, parts, lo=0.0, hi=1.0):
    """An m x m step kernel: random block values over parts of random size,
    so atoms of one part have equal rows."""
    labels = np.sort(rng.integers(0, parts, m))
    return random_symmetric(rng, parts, lo, hi)[np.ix_(labels, labels)]


def descent_inputs(rng, m):
    yield "distinct rows", random_symmetric(rng, m, 0.0, 1.0), random_symmetric(rng, m, 0.0, 1.0)
    yield "repeated rows", expanded_block(rng, m, m // 3), expanded_block(rng, m, m // 4)
    # quarter-valued blocks against two constant blocks: most swaps change
    # nothing, or change the objective by an exact tie
    v1 = np.round(4.0 * expanded_block(rng, m, 3)) / 4.0
    v2 = np.full((m, m), 0.5)
    v2[: m // 2, : m // 2] = 0.25
    yield "constant blocks", v1, v2
    yield "one constant", np.full((m, m), 0.75), expanded_block(rng, m, 2)


@pytest.mark.parametrize("m", [9, 12, 24, 60])
def test_swap_descent_equals_full_reevaluation(m):
    for seed in range(3):
        rng = np.random.default_rng([m, seed])
        for label, v1, v2 in descent_inputs(rng, m):
            for norm in ("L1", "L2", "cut"):
                start = rng.permutation(m)
                r_full, r_fast = np.random.default_rng(seed), np.random.default_rng(seed)
                want = full_swap_descent(v1, v2, norm, start.copy(), r_full)
                got = distance._swap_descent(v1, v2, norm, start.copy(), r_fast)
                assert np.array_equal(got, want), (label, norm, seed)
                # the same random stream, so later starts draw the same orders
                assert r_fast.random() == r_full.random(), (label, norm, seed)


def perfbench_like_pair(seed, m=60, parts=24):
    """Two step kernels on a uniform m-atom grid with parts parts each."""
    rng = np.random.default_rng(seed)
    return expanded_block(rng, m, parts), expanded_block(rng, m, parts)


def test_swap_descent_skips_all_but_few_exact_evaluations(monkeypatch):
    # counts work, not time: full re-evaluation makes 3483 exact
    # evaluations over the 640 rounds of this input, about 5.4 per round
    v1, v2 = perfbench_like_pair(3)
    calls = 0
    objective = distance._descent_objective

    def counted(diff, norm):
        nonlocal calls
        calls += 1
        return objective(diff, norm)

    class RoundCounter:  # one permutation of the pairs per round
        def __init__(self, rng):
            self.rng, self.rounds = rng, 0

        def permutation(self, n):
            self.rounds += 1
            return self.rng.permutation(n)

    monkeypatch.setattr(distance, "_descent_objective", counted)
    rng = RoundCounter(np.random.default_rng(0))
    for _ in range(distance._DESCENT_STARTS):
        distance._swap_descent(v1, v2, "cut", rng.rng.permutation(60), rng)
    assert rng.rounds >= 400
    assert calls <= 2 * rng.rounds, (calls, rng.rounds)


def test_descent_is_scale_equivariant():
    # at the unscaled size the objective is below the descent's 1e-15
    # improvement step, so without rescaling no swap would be taken
    v1, v2 = perfbench_like_pair(1, m=30, parts=10)
    space = DiscreteSpace.uniform(30)
    sf1, sf2 = StepFunction(space, range(30), v1), StepFunction(space, range(30), v2)
    tiny1 = StepFunction(space, range(30), v1 * 2.0**-50)
    tiny2 = StepFunction(space, range(30), v2 * 2.0**-50)
    for norm in ("L2", "cut"):
        b = delta_bracket(sf1, sf2, norm, max_atoms=30)
        tiny = delta_bracket(tiny1, tiny2, norm, max_atoms=30)
        assert b.regime == tiny.regime == "heuristic"
        assert np.array_equal(tiny.alignment, b.alignment), norm
        assert tiny.upper == pytest.approx(b.upper * 2.0**-50, rel=1e-12)


def test_swap_descent_takes_a_pair_inside_the_rounding_margin():
    # Swapping atoms 0 and 1 improves the L2 objective by just over the
    # 1e-15 step: the exact evaluation beats the threshold, while the
    # estimated sum rounds above the sum the threshold allows. Found by
    # scanning v2[0, 0] in steps of 1e-17 across the point where the
    # improvement equals the step; every other swap is worse.
    v1 = np.array([
        [0.7482179590766121, 0.7479616682163523, 0.5291627822385288, 0.633849713937989],
        [0.7479616682163523, 0.7479616682163523, 0.5284180236115209, 0.6332947276698815],
        [0.5291627822385288, 0.5284180236115209, 0.8060357075271236, 0.3284011521737253],
        [0.633849713937989, 0.6332947276698815, 0.3284011521737253, 0.4468129517344519],
    ])
    v2 = np.array([
        [0.7371399433062045, 0.7482107040167953, 0.5297371989120453, 0.633994861732363],
        [0.7482107040167953, 0.7484263898910035, 0.5282711146374506, 0.6333562375696273],
        [0.5297371989120453, 0.5282711146374506, 0.8051861297507524, 0.3288932395597989],
        [0.633994861732363, 0.6333562375696273, 0.3288932395597989, 0.44703611119519554],
    ])
    start, swapped = np.arange(4), np.array([1, 0, 2, 3])
    diff = v1 - v2
    threshold = distance._descent_objective(diff, "L2") - 1e-15
    estimate = float(np.square(diff).sum()) + distance._swap_gains(
        v1, v2, np.array([0]), np.array([1]), np.square)[0]
    assert estimate > 16 * threshold * threshold
    assert distance._descent_objective(distance._apply(v1, swapped) - v2, "L2") < threshold
    want = full_swap_descent(v1, v2, "L2", start.copy(), np.random.default_rng(0))
    got = distance._swap_descent(v1, v2, "L2", start.copy(), np.random.default_rng(0))
    assert np.array_equal(want, swapped)
    assert np.array_equal(got, want)
