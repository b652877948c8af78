import itertools
import signal

import numpy as np
import pytest

from graphonlab import (
    DiscreteSpace,
    Kernel,
    StepFunction,
    apply_permutation,
    automorphisms,
    choose_threshold,
    cluster_eigenvectors,
    decompose,
    expand_step,
    group_order,
    kernel_from_matrix,
    regularity_decompose,
    symmetry_decompose,
    tail_truncate,
    weighted_norm,
)
from graphonlab.ensembles import cayley_kernel
from graphonlab.errors import GridOverflowError, NonDecreasingF, ParameterError, TooLargeError
import graphonlab.regularity as regularity_module
from graphonlab.regularity import _threshold_schedule, decomposition_report
from graphonlab.spectral import gap_midpoints

from conftest import cycle_adjacency, petersen_adjacency, random_symmetric


def F_quarter(lam, eps):
    return 0.25 * lam * eps


def normalized_l2(rng, n, scale=1.0):
    a = random_symmetric(rng, n)
    k = kernel_from_matrix(a)
    l2 = weighted_norm(k, "L2")
    if l2 > scale:
        k = kernel_from_matrix(a * (scale / l2))
    return k


class TestChooseThreshold:
    def test_rank_one_lands_below_top(self):
        k = kernel_from_matrix(np.full((6, 6), 0.8))
        dec = decompose(k)
        lam, lam_next = choose_threshold(dec, lambda l, e: e * l, 0.1)
        # first gap below |lambda_1| = 0.8 is its midpoint down to zero
        assert lam == pytest.approx(0.4, abs=1e-12)
        assert lam_next < lam
        assert dec.energy_above(lam_next) - dec.energy_above(lam) == 0.0

    def test_zero_kernel(self):
        dec = decompose(kernel_from_matrix(np.zeros((4, 4))))
        lam, lam_next = choose_threshold(dec, F_quarter, 0.2)
        assert lam == 1.0  # nothing to snap to
        assert lam_next == pytest.approx(min(F_quarter(1.0, 0.2), 0.5), abs=1e-15)

    def test_random_kernel_certificates(self, rng):
        # oracle: recompute the energies from the eigenvalues directly
        k = normalized_l2(rng, 16)
        dec = decompose(k)
        eps = 0.3
        lam, lam_next = choose_threshold(dec, F_quarter, eps)
        assert lam_next <= F_quarter(lam, eps) + 1e-15
        lams = dec.eigenvalues
        e_hi = float(np.sum(lams[np.abs(lams) > lam] ** 2))
        e_lo = float(np.sum(lams[np.abs(lams) > lam_next] ** 2))
        assert e_lo - e_hi <= eps**2 + 1e-12

    def test_thresholds_are_cluster_safe(self, rng):
        k = normalized_l2(rng, 12)
        dec = decompose(k)
        lam, lam_next = choose_threshold(dec, F_quarter, 0.25)
        tail_truncate(dec, lam)
        tail_truncate(dec, lam_next)  # must not raise

    def test_nonpositive_F_rejected(self, rng):
        dec = decompose(normalized_l2(rng, 6))
        with pytest.raises(NonDecreasingF):
            choose_threshold(dec, lambda l, e: 0.0, 0.3)

    def test_energy_above_one_rejected(self):
        # the constant kernel 2 has the one eigenvalue 2, energy 4
        dec = decompose(kernel_from_matrix(np.full((4, 4), 2.0)))
        with pytest.raises(ValueError, match="energy 4.000000"):
            choose_threshold(dec, F_quarter, 0.3)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_F_rejected(self, rng, value):
        # an infinite F let the schedule run on, and the report compared
        # F_at_run = inf with its rounded string 'inf' (TypeError)
        dec = decompose(normalized_l2(rng, 6))
        with pytest.raises(NonDecreasingF, match="positive and finite"):
            choose_threshold(dec, lambda l, e: value, 0.3)

    def test_increasing_F_rejected(self, rng):
        dec = decompose(normalized_l2(rng, 8))
        with pytest.raises(NonDecreasingF):
            choose_threshold(dec, lambda l, e: e / max(l, 1e-9), 0.3)

    def test_floor_below_lambda(self, rng):
        dec = decompose(normalized_l2(rng, 10))
        sched = _threshold_schedule(dec, F_quarter, 0.3)
        assert sched.delta_floor <= sched.lam_next <= sched.lam

    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.05, 0.02, 0.01])
    def test_small_eps(self, eps):
        # probing past the smallest nonzero |lambda| let F = eps*lambda/4
        # underflow to 0 for every eps <= ~0.07 (NonDecreasingF)
        a = random_symmetric(np.random.default_rng(40), 40)
        dec = decompose(kernel_from_matrix(a))
        sched = _threshold_schedule(dec, F_quarter, eps)
        assert sched.delta_floor == sched.probes[-1]
        assert dec.rank_above(sched.probes[-2]) == dec.rank_above(0.0)
        assert sched.lam_next <= F_quarter(sched.lam, eps)
        assert dec.energy_above(sched.lam_next) - dec.energy_above(sched.lam) <= eps**2
        reg = regularity_decompose(dec.kernel, F_quarter, eps)
        assert reg.certificates.E_l2 <= eps
        assert reg.certificates.R_cut.upper <= F_quarter(reg.lam, eps)


class TestLowRankSchedule:
    @pytest.mark.parametrize("F", [lambda l, e: 1e-17 * l, lambda l, e: 1e-30 * l**3,
                                   lambda l, e: 3e-18])
    def test_probes_never_split_the_noise_cluster(self, F):
        # the 8-cycle's zero eigenspace comes out of eigh as one cluster of
        # noise, -2.9e-17 and -9.9e-20; an F that drives a probe into it must
        # not cut the cluster apart
        dec = decompose(kernel_from_matrix(cycle_adjacency(8)))
        sched = _threshold_schedule(dec, F, 0.3)
        for t in sched.probes:
            tail_truncate(dec, t)  # must not raise

    def test_noise_gets_no_midpoint(self):
        dec = decompose(kernel_from_matrix(cycle_adjacency(8)))
        assert min(gap_midpoints(dec)) > dec.cluster_tolerance


class TestRegularityDecompose:
    def test_constant_kernel(self):
        k = kernel_from_matrix(np.full((5, 5), 0.6))
        reg = regularity_decompose(k, F_quarter, 0.2)
        assert np.max(np.abs(reg.S.values - 0.6)) < 1e-12
        assert np.max(np.abs(reg.E.values)) < 1e-12
        assert np.max(np.abs(reg.R.values)) < 1e-12
        assert not reg.certificates.clamped
        assert not reg.certificates.epsilon_violated

    def test_step_kernel_rank_two_exact_capture(self):
        sf = StepFunction(DiscreteSpace.uniform(6), [0, 0, 0, 1, 1, 1],
                           [[0.9, 0.2], [0.2, 0.5]])
        k = expand_step(sf)
        reg = regularity_decompose(k, F_quarter, 0.2)
        # finite rank: once lambda' drops below the smallest nonzero
        # eigenvalue, R vanishes
        assert np.max(np.abs(reg.R.values)) < 1e-12
        assert reg.certificates.R_cut.upper < 1e-10

    def test_additivity_exact(self, rng):
        for _ in range(5):
            k = normalized_l2(rng, 14)
            reg = regularity_decompose(k, F_quarter, 0.3)
            resid = np.max(np.abs(reg.S.values + reg.E.values + reg.R.values - k.values))
            assert resid <= 1e-9

    def test_symmetry_of_parts(self, rng):
        k = normalized_l2(rng, 10)
        reg = regularity_decompose(k, F_quarter, 0.25)
        for part in (reg.S, reg.E, reg.R):
            assert np.array_equal(part.values, part.values.T)

    def test_r_cut_beneath_F(self, rng):
        for eps in (0.2, 0.4):
            k = normalized_l2(rng, 12)
            reg = regularity_decompose(k, F_quarter, eps)
            assert reg.certificates.R_cut.upper <= F_quarter(reg.lam, eps) + 1e-12

    def test_se_sup_bound_when_unclamped(self, rng):
        k = normalized_l2(rng, 12)
        reg = regularity_decompose(k, F_quarter, 0.3)
        if not reg.certificates.clamped:
            assert reg.certificates.SE_linf <= 1.0 + 1e-9

    def test_entry_bound_enforced(self, rng):
        k = normalized_l2(rng, 8)
        reg = regularity_decompose(k, F_quarter, 0.3)
        assert np.max(np.abs(reg.S.values + reg.E.values)) <= 1.0 + 1e-12

    def test_rejects_unbounded_entries(self):
        with pytest.raises(ValueError):
            regularity_decompose(kernel_from_matrix(np.full((3, 3), 1.5)),
                                 F_quarter, 0.2)

    def test_r_is_bracketed_before_s_and_e_are_formed(self, rng, monkeypatch):
        events = []
        bracket, truncate = regularity_module.cutnorm_bracket, regularity_module.tail_truncate
        monkeypatch.setattr(regularity_module, "cutnorm_bracket",
                            lambda k: events.append("bracket R") or bracket(k))
        monkeypatch.setattr(regularity_module, "tail_truncate",
                            lambda dec, t: events.append("form S") or truncate(dec, t))
        reg = regularity_decompose(normalized_l2(rng, 30), F_quarter, 0.3)
        assert events == ["bracket R", "form S"]
        sum_ = reg.S.values + reg.E.values + reg.R.values
        assert np.max(np.abs(sum_ - reg.spectral.kernel.values)) <= 1e-12


class TestDecompositionReport:
    CERTIFICATES = ["additivity_sup_error", "E_l2_within_eps", "R_cut_upper_within_F",
                    "SE_sup_norm"]

    def test_five_checks_on_a_low_rank_kernel(self):
        labels = np.arange(60) % 3
        block = np.array([[0.9, 0.2, 0.4], [0.2, 0.6, 0.1], [0.4, 0.1, 0.8]])
        k = kernel_from_matrix(block[np.ix_(labels, labels)])
        results, checks = decomposition_report(k, F_quarter, 0.3)
        assert [c[0] for c in checks] == self.CERTIFICATES + ["step_count_within_bound"]
        assert checks[-1][1] == len(results["partition"]["part_weights"])

    @pytest.mark.parametrize("max_parts", [1e6, np.inf])
    def test_no_step_count_check_without_a_finite_bound(self, rng, max_parts):
        # the noise kernel's step bound is past the float range: the default
        # cap leaves no partition, and an infinite cap leaves an infinite bound
        k = kernel_from_matrix(random_symmetric(rng, 150))
        results, checks = decomposition_report(k, F_quarter, 0.3, max_parts=max_parts)
        assert [c[0] for c in checks] == self.CERTIFICATES
        assert (results["partition"] is None) == (max_parts == 1e6)


class TestClusterEigenvectors:
    @pytest.mark.parametrize("lam", [0.0, -0.35])
    def test_nonpositive_lam_rejected(self, lam):
        dec = decompose(kernel_from_matrix(np.full((8, 8), 0.7)))
        with pytest.raises(ParameterError, match="lam must be positive"):
            cluster_eigenvectors(dec, lam, 0.2)

    def test_constant_eigenvector_single_part(self):
        k = kernel_from_matrix(np.full((8, 8), 0.7))
        dec = decompose(k)
        res = cluster_eigenvectors(dec, 0.35, 0.2)
        assert res.step.parts == 1
        t = expand_step(res.step)
        g = tail_truncate(dec, 0.35)
        assert np.max(np.abs(t.values - g.values)) < 1e-12

    def test_two_valued_eigenvector(self):
        sf = StepFunction(DiscreteSpace.uniform(4), [0, 0, 1, 1],
                           [[0.9, 0.1], [0.1, 0.9]])
        k = expand_step(sf)
        dec = decompose(k)
        lam = float(np.abs(dec.eigenvalues[1])) / 2.0
        res = cluster_eigenvectors(dec, lam, 0.05)
        assert res.step.parts <= 2
        t = expand_step(res.step)
        g = tail_truncate(dec, lam)
        assert np.max(np.abs(t.values - g.values)) < 1e-12

    def test_rank_two_random(self, rng):
        # random rank-2 kernel on 64 atoms
        b = rng.standard_normal((64, 2))
        vals = b @ np.diag([0.5, -0.3]) @ b.T / 64.0
        k = kernel_from_matrix((vals + vals.T) / 2.0)
        dec = decompose(k)
        lam = float(np.abs(dec.eigenvalues[1])) / 2.0
        res = cluster_eigenvectors(dec, lam, 0.2, max_parts=1e12)
        assert res.rank == 2
        t = expand_step(res.step)
        g = tail_truncate(dec, lam)
        assert np.max(np.abs(t.values - g.values)) <= 0.2 + 1e-9
        assert res.step.parts <= res.step_count_bound

    def test_grid_overflow(self, rng):
        b = rng.standard_normal((32, 3))
        vals = b @ b.T / 32.0
        k = kernel_from_matrix((vals + vals.T) / 2.0)
        dec = decompose(k)
        lam = float(np.abs(dec.eigenvalues[2])) / 2.0
        with pytest.raises(GridOverflowError):
            cluster_eigenvectors(dec, lam, 0.01, max_parts=1000)

    def test_grid_bound_past_float_range(self, rng):
        # a noise kernel keeps rank k ~ 140 at eps 0.3; (20km^3/eps)^k is
        # past the float range and must overflow the cap, not raise
        # OverflowError
        k = kernel_from_matrix(random_symmetric(rng, 150))
        reg = regularity_decompose(k, F_quarter, 0.3)
        dec = decompose(k)
        assert dec.rank_above(reg.lam) > 100
        with pytest.raises(GridOverflowError):
            cluster_eigenvectors(dec, reg.lam, 0.3)


def brute_force_automorphism_count(values):
    """Oracle: try every permutation (tiny n only)."""
    n = values.shape[0]
    count = 0
    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        if np.array_equal(values[np.ix_(p, p)], values):
            count += 1
    return count


def brute_force_chain(kernel):
    """Oracle: the generators automorphisms must return, from the list of
    every automorphism (tiny n only). The chain runs over the base 0..n-1
    from level n-2 down; at each level it probes the images of the base
    point outside the orbit found so far in increasing order, and keeps the
    lexicographically first automorphism of each nonempty coset."""
    values, weights = kernel.values, kernel.space.weights
    n = kernel.n
    auts = [p for p in itertools.permutations(range(n))  # in lexicographic order
            if np.array_equal(values[np.ix_(p, p)], values)
            and np.array_equal(weights[list(p)], weights)]
    gens = []
    for i in range(n - 2, -1, -1):
        orbit = {i}
        for target in range(n):
            while (grown := orbit | {g[v] for g in gens for v in orbit}) != orbit:
                orbit = grown
            if target in orbit:
                continue
            coset = [p for p in auts if p[:i + 1] == (*range(i), target)]
            if coset:
                gens.append(coset[0])
    return tuple(gens)


def symmetric_weighted_kernel(seed):
    """A random kernel on 4 to 7 atoms with repeated entries and weights, so
    that it has symmetries: a step kernel on random parts, with diagonal
    entries and atom weights (1 or 2, normalised) drawn per part, and on odd
    seeds one entry pair flipped."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    parts = rng.integers(0, 3, n)
    block = rng.choice([0.0, 0.3, 0.7], (3, 3))
    values = (np.triu(block) + np.triu(block, 1).T)[np.ix_(parts, parts)]
    np.fill_diagonal(values, rng.choice([0.0, 0.7], 3)[parts])
    if seed % 2:
        i, j = rng.choice(n, 2, replace=False)
        values[i, j] = values[j, i] = 1.0 - values[i, j]
    weights = rng.choice([1.0, 2.0], 3)[parts]
    return Kernel(DiscreteSpace(weights / weights.sum()), values)


def paley(q):
    squares = list({x * x % q for x in range(1, q)})
    x = np.arange(q)
    return np.isin((x[:, None] - x[None, :]) % q, squares).astype(float)


def rook(m):
    row, col = np.divmod(np.arange(m * m), m)
    same = (row[:, None] == row[None, :]) | (col[:, None] == col[None, :])
    return (same & ~np.eye(m * m, dtype=bool)).astype(float)


def hypercube(d):
    x = np.arange(2**d)
    return np.isin(x[:, None] ^ x[None, :], 2 ** np.arange(d)).astype(float)


def shrikhande():
    # Cayley graph of Z_4 x Z_4 on the steps ±(0,1), ±(1,0), ±(1,1), coded 4x + y
    x, y = np.divmod(np.arange(16), 4)
    step = 4 * ((x[None, :] - x[:, None]) % 4) + (y[None, :] - y[:, None]) % 4
    return np.isin(step, [1, 3, 4, 12, 5, 15]).astype(float)


def random_cubic(n, seed):
    """A random 3-regular graph from the configuration model, redrawn until
    it has no loop or multiple edge."""
    rng = np.random.default_rng(seed)
    while True:
        u, v = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2).T
        a = np.zeros((n, n))
        a[u, v] = a[v, u] = 1.0
        if not np.any(u == v) and a.sum() == 3 * n:
            return a


class TestAutomorphisms:
    def test_c5_dihedral(self):
        k = kernel_from_matrix(cycle_adjacency(5))
        action = automorphisms(k)
        order = group_order(action)
        assert order == brute_force_automorphism_count(k.values) == 10
        for g in action.generators:
            assert np.array_equal(apply_permutation(k, g).values, k.values)

    def test_constant_kernel_symmetric_group(self):
        k = kernel_from_matrix(np.full((6, 6), 0.2))
        assert group_order(automorphisms(k)) == 720

    def test_distinct_rows_trivial_group(self):
        vals = np.array([
            [0.0, 0.1, 0.2],
            [0.1, 0.5, 0.3],
            [0.2, 0.3, 0.9],
        ])
        action = automorphisms(kernel_from_matrix(vals))
        assert group_order(action) == 1
        assert len(action.generators) == 0

    def test_petersen_order_120(self):
        assert group_order(automorphisms(kernel_from_matrix(petersen_adjacency()))) == 120

    def test_matches_brute_force_on_random_block_kernel(self, rng):
        sf = StepFunction(DiscreteSpace.uniform(6), [0, 0, 0, 1, 1, 1],
                           [[0.7, 0.2], [0.2, 0.7]])
        k = expand_step(sf)
        assert group_order(automorphisms(k)) == brute_force_automorphism_count(k.values)

    def test_generators_match_the_brute_force_chain(self):
        orders = []
        for seed in range(24):
            k = symmetric_weighted_kernel(seed)
            action = automorphisms(k)
            gens = tuple(tuple(int(x) for x in g) for g in action.generators)
            assert gens == brute_force_chain(k), seed
            orders.append(group_order(action))
        assert sum(order > 1 for order in orders) >= 20 and max(orders) >= 120

    @pytest.mark.parametrize("values, order", [
        (paley(37), 666),
        (paley(61), 1830),
        (rook(5), 28800),
        (hypercube(6), 46080),
        (shrikhande(), 192),
    ], ids=["paley37", "paley61", "rook5x5", "Q6", "shrikhande"])
    def test_group_order_of_symmetric_graphs(self, values, order):
        k = kernel_from_matrix(values)
        action = automorphisms(k)
        assert group_order(action) == order
        for g in action.generators:
            assert np.array_equal(apply_permutation(k, g).values, k.values)

    @pytest.mark.parametrize("n, seed", [(20, s) for s in range(1, 7)]
                             + [(n, s) for n in (30, 64) for s in range(1, 4)])
    def test_random_cubic_graphs_finish(self, n, seed):
        # vertex-by-vertex backtracking without refinement took from 5 s to
        # well over 20 s on most of these graphs
        k = kernel_from_matrix(random_cubic(n, seed))

        def hang(signum, frame):
            raise TimeoutError(f"automorphisms still running after 2 s (n={n}, seed={seed})")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(2)
        try:
            action = automorphisms(k)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        for g in action.generators:
            assert np.array_equal(apply_permutation(k, g).values, k.values)

    def test_size_limit(self, monkeypatch):
        # refused before the search starts
        monkeypatch.setattr(regularity_module, "_entry_classes", None)
        n = regularity_module.DEFAULT_AUT_LIMIT + 1
        with pytest.raises(TooLargeError):
            automorphisms(kernel_from_matrix(np.zeros((n, n))))


class TestSymmetryDecompose:
    def test_one_decomposition(self, monkeypatch):
        calls = []
        real = regularity_module.decompose
        monkeypatch.setattr(regularity_module, "decompose",
                            lambda k: calls.append(k) or real(k))
        k = cayley_kernel(8, np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
        reg, _, _ = symmetry_decompose(k, F_quarter, 0.3, max_parts=float("inf"))
        assert len(calls) == 1
        assert reg.spectral.kernel is k

    def test_cayley_z8_exact_invariance(self):
        k = cayley_kernel(8, np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
        reg, clustering, report = symmetry_decompose(
            k, F_quarter, 0.3, max_parts=float("inf")
        )
        assert report.S_deviation <= 1e-8
        assert report.T_deviation <= 0.3

    def test_trivial_group_empty_report(self):
        vals = np.array([
            [0.0, 0.1, 0.2],
            [0.1, 0.5, 0.3],
            [0.2, 0.3, 0.9],
        ])
        k = kernel_from_matrix(vals)
        reg, clustering, report = symmetry_decompose(
            k, F_quarter, 0.4, max_parts=float("inf")
        )
        assert report.generators == 0
        assert report.S_deviation == 0.0

    def test_c8_adjacency_t_bound(self):
        k = kernel_from_matrix(cycle_adjacency(8) / 8.0)
        reg, clustering, report = symmetry_decompose(
            k, F_quarter, 0.3, max_parts=float("inf")
        )
        assert report.T_deviation <= 0.3
        assert report.S_deviation <= 1e-8
