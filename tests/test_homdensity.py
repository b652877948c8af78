import numpy as np
import pytest

from graphonlab import (
    DiscreteSpace,
    SimpleGraph,
    StepFunction,
    apply_permutation,
    complete_graph,
    cycle_density_spectral,
    cycle_graph,
    decompose,
    disjoint_union,
    expand_step,
    hom_density_mc,
    hom_density_step,
    kernel_from_matrix,
    moment_identity_check,
    path_graph,
    quotient_average,
)
from graphonlab.core import _draw_atoms
from graphonlab.errors import AllZeroSpectrum, TooManyVerticesError

from conftest import random_symmetric


def random_step(rng, parts=3, lo=0.0, hi=1.0):
    atoms = parts * int(rng.integers(1, 3))
    labels = np.arange(atoms) % parts
    block = random_symmetric(rng, parts, lo, hi)
    return StepFunction(DiscreteSpace.uniform(atoms), labels, block)


def brute_force_step_density(graph, sf):
    """Oracle: explicit loop over all part assignments."""
    import itertools

    total = 0.0
    for assign in itertools.product(range(sf.parts), repeat=graph.k):
        prod = 1.0
        for (u, v) in graph.edges:
            prod *= sf.block[assign[u - 1], assign[v - 1]]
        for p in assign:
            prod *= sf.part_weights[p]
        total += prod
    return total


class TestStepDensity:
    def test_constant_graphon_powers(self):
        sf = StepFunction(DiscreteSpace.uniform(2), [0, 0], [[0.5]])
        for g in (path_graph(2), cycle_graph(3), complete_graph(4)):
            est = hom_density_step(g, sf)
            assert est.value == pytest.approx(0.5 ** g.edge_count, abs=1e-14)
            assert est.stderr == 0.0
            assert est.method == "exact_step"

    def test_edgeless_graph_is_one(self):
        sf = StepFunction(DiscreteSpace.uniform(3), [0, 1, 2], np.eye(3))
        assert hom_density_step(SimpleGraph(4), sf).value == pytest.approx(1.0, abs=1e-14)

    def test_c4_on_block_identity(self):
        # hand enumeration: only the two constant assignments survive,
        # each contributing (1/2)^4, so t(C_4) = 1/8
        sf = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        assert hom_density_step(cycle_graph(4), sf).value == pytest.approx(1 / 8, abs=1e-14)

    def test_matches_assignment_loop_oracle(self, rng):
        sf = random_step(rng, parts=3)
        for g in (cycle_graph(3), cycle_graph(4), path_graph(4), complete_graph(4)):
            assert hom_density_step(g, sf).value == pytest.approx(
                brute_force_step_density(g, sf), abs=1e-12
            )

    def test_vertex_cap(self):
        sf = StepFunction(DiscreteSpace.uniform(2), [0, 1], np.eye(2))
        with pytest.raises(TooManyVerticesError):
            hom_density_step(cycle_graph(11), sf)

    def test_multiplicative_over_disjoint_union(self, rng):
        sf = random_step(rng, parts=3)
        g1, g2 = cycle_graph(3), cycle_graph(4)
        both = hom_density_step(disjoint_union(g1, g2), sf).value
        assert both == pytest.approx(
            hom_density_step(g1, sf).value * hom_density_step(g2, sf).value, abs=1e-10
        )

    def test_relabel_invariance_exact(self, rng):
        # permuting the atoms leaves the density of the quotient unchanged
        sf = random_step(rng, parts=3)
        k = expand_step(sf)
        perm = rng.permutation(k.n)
        sf2 = quotient_average(apply_permutation(k, perm), np.asarray(sf.part_of)[perm])
        for g in (cycle_graph(3), cycle_graph(4)):
            assert hom_density_step(g, sf2).value == hom_density_step(g, sf).value

    def test_in_unit_interval(self, rng):
        sf = random_step(rng, parts=4)
        for g in (path_graph(2), cycle_graph(3), cycle_graph(5)):
            assert -1e-12 <= hom_density_step(g, sf).value <= 1.0 + 1e-12


class TestMonteCarlo:
    def test_constant_has_zero_stderr(self):
        k = kernel_from_matrix(np.full((3, 3), 0.7))
        est = hom_density_mc(cycle_graph(3), k, samples=200, seed=1)
        assert est.value == pytest.approx(0.7**3, abs=1e-14)
        assert est.stderr == pytest.approx(0.0, abs=1e-14)

    def test_agrees_with_exact_step(self, rng):
        sf = random_step(rng, parts=3)
        k = expand_step(sf)
        exact = hom_density_step(cycle_graph(4), sf).value
        est = hom_density_mc(cycle_graph(4), k, samples=20000, seed=7)
        assert abs(est.value - exact) <= 4.0 * max(est.stderr, 1e-12)

    def test_bipartite_kills_triangles(self):
        sf = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[0.0, 1.0], [1.0, 0.0]])
        assert hom_density_step(cycle_graph(3), sf).value == pytest.approx(0.0, abs=1e-14)
        est = hom_density_mc(cycle_graph(3), expand_step(sf), samples=500, seed=3)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_per_seed(self, rng):
        k = kernel_from_matrix(random_symmetric(rng, 5, 0.0, 1.0))
        a = hom_density_mc(cycle_graph(4), k, samples=1000, seed=11)
        b = hom_density_mc(cycle_graph(4), k, samples=1000, seed=11)
        assert a.value == b.value
        assert a.stderr == b.stderr


class TestSpectralCycles:
    def test_constant(self):
        dec = decompose(kernel_from_matrix(np.full((4, 4), 0.6)))
        assert cycle_density_spectral(dec, 5).value == pytest.approx(0.6**5, abs=1e-12)

    def test_plus_minus_half(self):
        dec = decompose(kernel_from_matrix([[0.0, 0.5], [0.5, 0.0]]))
        # eigenvalues (1/4, -1/4): k = 4 gives 2 * (1/4)^4
        assert cycle_density_spectral(dec, 4).value == pytest.approx(
            2 * 0.25**4, abs=1e-14
        )

    def test_matches_exact_step_densities(self, rng):
        sf = random_step(rng, parts=4)
        dec = decompose(expand_step(sf))
        for k in range(3, 9):
            spectral = cycle_density_spectral(dec, k).value
            exact = hom_density_step(cycle_graph(k), sf).value
            assert spectral == pytest.approx(exact, abs=1e-9)

    def test_rejects_short_cycles(self, rng):
        dec = decompose(kernel_from_matrix(random_symmetric(rng, 3)))
        with pytest.raises(ValueError):
            cycle_density_spectral(dec, 2)


class TestMomentIdentity:
    def test_point_mass(self):
        dec = decompose(kernel_from_matrix(np.full((3, 3), 0.5)))
        report = moment_identity_check(dec, 4)
        assert report["max_discrepancy"] < 1e-12

    def test_symmetric_pair_odd_moments_vanish(self):
        dec = decompose(kernel_from_matrix([[0.0, 0.6], [0.6, 0.0]]))
        report = moment_identity_check(dec, 5)
        for row in report["rows"]:
            if row["k"] % 2 == 1:
                assert row["moment"] == pytest.approx(0.0, abs=1e-12)
                assert row["cycle_ratio"] == pytest.approx(0.0, abs=1e-12)

    def test_random_kernel_small_discrepancy(self, rng):
        dec = decompose(kernel_from_matrix(random_symmetric(rng, 12)))
        assert moment_identity_check(dec, 6)["max_discrepancy"] <= 1e-9

    def test_zero_kernel_rejected(self):
        dec = decompose(kernel_from_matrix(np.zeros((3, 3))))
        with pytest.raises(AllZeroSpectrum):
            moment_identity_check(dec, 3)


# ---------------------------------------------------------------------------
# the weighted atom sampler against rng.choice


def weight_vectors():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 200):
        yield f"uniform-{n}", np.full(n, 1.0 / n)
        w = rng.random(n) + 0.01
        yield f"random-{n}", w / w.sum()
        # weights spread over 14 decades, down to the 1e-14 atom floor
        if n > 1:
            w = np.geomspace(1.0, 1e-14, n)[rng.permutation(n)]
            w = np.maximum(w / w.sum(), 1e-14)
            w[w.argmax()] -= w.sum() - 1.0
            yield f"skewed-{n}", w
    # one heavy atom and many light ones crowd the buckets
    w = np.full(300, 1e-14)
    w[150] = 1.0 - 299e-14
    yield "one-heavy", w


def adversarial_uniforms(cdf):
    """0, the largest double below 1, and one ulp either side of every
    bucket edge b/n and b/(2n) and of every CDF value."""
    n = cdf.size
    points = np.concatenate([np.arange(n + 1) / n, np.arange(2 * n + 1) / (2 * n), cdf])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                        [0.0, 1.0 - 2.0**-53]])
    return u[(u >= 0.0) & (u < 1.0)]


WEIGHTS = dict(weight_vectors())


@pytest.mark.parametrize("label", list(WEIGHTS))
def test_draw_atoms_is_searchsorted(label):
    w = WEIGHTS[label]
    cdf = w.cumsum()
    cdf /= cdf[-1]
    u = adversarial_uniforms(cdf)
    assert np.array_equal(_draw_atoms(w, u), cdf.searchsorted(u, side="right"))
    u = np.random.default_rng(1).random((500, 3))
    assert np.array_equal(_draw_atoms(w, u), cdf.searchsorted(u, side="right"))


def reference_density_mc(graph, kernel, samples, seed):
    """Oracle: hom_density_mc with numpy's weighted choice for the draws."""
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        count = min(65536, samples - done)
        x = rng.choice(kernel.n, size=(count, graph.k), p=kernel.space.weights)
        prod = np.ones(count)
        for (u, v) in sorted(graph.edges):
            prod *= kernel.values[x[:, u - 1], x[:, v - 1]]
        vals[done : done + count] = prod
        done += count
    stderr = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return float(vals.mean()), stderr


@pytest.mark.parametrize("label", list(WEIGHTS))
def test_monte_carlo_draws_the_choice_stream(label):
    w = WEIGHTS[label]
    n = w.size
    k = kernel_from_matrix(random_symmetric(np.random.default_rng(n), n, 0.0, 1.0), w)
    # vertex 4 is isolated: it takes its draw all the same
    graphs = [cycle_graph(4), disjoint_union(path_graph(3), SimpleGraph(1, frozenset()))]
    for graph, samples in zip(graphs, (3000, 70000 if n == 200 else 1)):
        est = hom_density_mc(graph, k, samples=samples, seed=9)
        assert (est.value, est.stderr) == reference_density_mc(graph, k, samples, 9)
