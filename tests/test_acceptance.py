"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from graphonlab import (
    DiscreteSpace,
    Kernel,
    PermutationAction,
    cayley_kernel,
    circle_halfplane_kernel,
    cutnorm_bracket,
    cutnorm_exact,
    cycle_graph,
    decompose,
    expand_step,
    hom_density_step,
    invariant_dimension_report,
    kernel_from_matrix,
    regularity_decompose,
    spectral_radius,
    spectrum_distribution,
    step_function,
    symmetry_decompose,
    tail_truncate,
    weighted_norm,
    ProfileFunction,
    cluster_eigenvectors,
)
from graphonlab import experiments
from graphonlab.cli import main
from graphonlab.spectral import gap_midpoints

from conftest import cycle_adjacency, petersen_adjacency, random_symmetric


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def F_quarter(lam, eps):
    return 0.25 * lam * eps


def _corpus(seed=2024, count=200, n_max=12):
    """Shared random kernel corpus: entries in [-1, 1], sizes 2..n_max."""
    rng = np.random.default_rng(seed)
    kernels = []
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        kernels.append(kernel_from_matrix(random_symmetric(rng, n)))
    return kernels


def brute_force_cutnorm(kernel):
    """All 2^n x 2^n sign pairs, no vertex shortcut."""
    n = kernel.n
    w = kernel.space.weights
    a = kernel.values * np.outer(w, w)
    codes = np.arange(1 << n, dtype=np.int64)
    signs = np.empty((codes.size, n))
    for bit in range(n):
        signs[:, bit] = np.where((codes >> bit) & 1, -1.0, 1.0)
    r = signs @ a
    best = 0.0
    for off in range(0, signs.shape[0], 512):
        v = r @ signs[off : off + 512].T
        np.abs(v, out=v)
        best = max(best, float(v.max()))
    return best


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_criterion_01_cutnorm_oracle_equivalence(corpus):
    with criterion(1, "cut-norm oracle equivalence"):
        start = time.monotonic()
        for k in corpus:
            exact = cutnorm_exact(k).lower
            oracle = brute_force_cutnorm(k)
            assert abs(exact - oracle) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed <= 60.0, f"ran {elapsed:.1f}s, budget 60s"


def test_criterion_02_cutnorm_below_spectral_radius(corpus):
    with criterion(2, "cut norm at most spectral radius"):
        for k in corpus:
            rad = spectral_radius(decompose(k))
            assert cutnorm_exact(k).lower <= rad + 1e-10
        # near-equality witness: a rank-one kernel built on a sign vector
        rng = np.random.default_rng(7)
        u = rng.integers(0, 2, 10) * 2.0 - 1.0
        k1 = kernel_from_matrix(0.7 * np.outer(u, u))
        rad = spectral_radius(decompose(k1))
        val = cutnorm_exact(k1).lower
        assert abs(val - rad) <= 1e-6


def test_criterion_03_truncation_tail_cut_bound():
    with criterion(3, "truncation tail bounded by threshold"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(6, 13))
            k = kernel_from_matrix(random_symmetric(rng, n))
            dec = decompose(k)
            mids = gap_midpoints(dec)
            picks = np.linspace(0, len(mids) - 1, 5).astype(int)
            for idx in picks:
                alpha = mids[idx]
                tail = Kernel(k.space, k.values - tail_truncate(dec, alpha).values)
                assert cutnorm_exact(tail).lower <= alpha + 1e-9


def test_criterion_04_eigenvector_sup_bound(corpus):
    with criterion(4, "eigenvector sup-norm bound"):
        structured = [
            kernel_from_matrix(cycle_adjacency(8)),
            kernel_from_matrix(petersen_adjacency()),
            circle_halfplane_kernel(16),
            cayley_kernel(8, np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])),
        ]
        for k in list(corpus) + structured:
            assert weighted_norm(k, "Linf") <= 1.0 + 1e-12
            dec = decompose(k)
            for lam, f in zip(dec.eigenvalues, dec.eigenvectors.T):
                if abs(lam) >= 1e-6:
                    assert np.max(np.abs(f)) <= 1.0 / abs(lam) + 1e-8


def test_criterion_05_moment_identity_on_steps():
    with criterion(5, "spectrum moments equal cycle ratios"):
        rng = np.random.default_rng(55)
        for _ in range(50):
            parts = int(rng.integers(2, 6))
            reps = int(rng.integers(1, 4))
            labels = np.arange(parts * reps) % parts
            block = random_symmetric(rng, parts, 0.0, 1.0)
            sf = step_function(DiscreteSpace.uniform(parts * reps), labels, block)
            dec = decompose(expand_step(sf))
            dist = spectrum_distribution(dec)
            c4 = hom_density_step(cycle_graph(4), sf).value
            assert c4 > 0
            for k in range(1, 7):
                moment = dist.moment(k)
                ratio = hom_density_step(cycle_graph(4 + k), sf).value / c4
                assert abs(moment - ratio) <= 1e-9


def test_criterion_06_regularity_certificates():
    with criterion(6, "regularity decomposition certificates"):
        rng = np.random.default_rng(66)
        for _ in range(50):
            a = random_symmetric(rng, 32)
            k = kernel_from_matrix(a)
            l2 = weighted_norm(k, "L2")
            if l2 > 1.0:
                k = kernel_from_matrix(a / l2)
            for eps in (0.2, 0.4):
                reg = regularity_decompose(k, F_quarter, eps)
                resid = np.max(np.abs(reg.S.values + reg.E.values + reg.R.values
                                      - k.values))
                assert resid <= 1e-9
                assert reg.certificates.R_cut.upper <= F_quarter(reg.lam, eps) + 1e-12
                assert not reg.certificates.epsilon_violated
                assert reg.certificates.E_l2 <= eps
                if not reg.certificates.clamped:
                    assert reg.certificates.SE_linf <= 1.0 + 1e-9


def test_criterion_07_eigenvector_clustering_bounds():
    with criterion(7, "eigenvector clustering lemma bounds"):
        rng = np.random.default_rng(1007)
        n = 64
        for k_rank in (1, 2, 3):
            b = rng.standard_normal((n, k_rank))
            scales = rng.uniform(0.3, 0.8, k_rank) * np.where(
                rng.random(k_rank) < 0.5, -1.0, 1.0
            )
            vals = (b * scales) @ b.T / n
            kern = kernel_from_matrix((vals + vals.T) / 2.0)
            dec = decompose(kern)
            lam_mid = float(np.abs(dec.eigenvalues[k_rank - 1])) / 2.0
            for eps in (0.2, 0.5):
                res = cluster_eigenvectors(dec, lam_mid, eps, max_parts=1e30)
                assert res.rank == k_rank
                t = expand_step(res.step)
                g = tail_truncate(dec, lam_mid)
                assert np.max(np.abs(t.values - g.values)) <= eps + 1e-9
                assert res.step.parts <= res.step_count_bound


def test_criterion_08_symmetry_preservation():
    with criterion(8, "symmetry-preserving decomposition"):
        eps = 0.3
        kernels = [
            cayley_kernel(8, np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])),
            cayley_kernel(12, np.array([0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1], dtype=float)),
            kernel_from_matrix(cycle_adjacency(5)),
            kernel_from_matrix(petersen_adjacency()),
        ]
        for k in kernels:
            reg, clustering, report = symmetry_decompose(
                k, F_quarter, eps, max_parts=float("inf")
            )
            assert report.generators >= 1
            assert report.S_deviation <= 1e-8
            assert report.T_deviation <= eps


def test_criterion_09_quasirandom_action_bound():
    with criterion(9, "quasirandom action bound"):
        profiles = {
            7: [0, 1, -1, 0.5, 0.5, -1, 1],
            11: [0, 1, 0, -1, 0.5, 0.25, 0.25, 0.5, -1, 0, 1],
            13: [0, 1, 0.2, -1, 0.5, -0.3, 0.25, 0.25, -0.3, 0.5, -1, 0.2, 1],
        }
        for p, base in profiles.items():
            f = np.asarray(base, dtype=float)
            f = f - f.mean()
            k = cayley_kernel(p, f)
            k = Kernel(k.space, k.values / weighted_norm(k, "L2"))
            assert weighted_norm(k, "L2") <= 1.0 + 1e-12
            shift = (np.arange(p) + 1) % p
            rep = invariant_dimension_report(k, PermutationAction(k.space, (shift,)))
            assert rep.kernel_report.d >= 2
            est = cutnorm_bracket(k, seed=0)
            assert est.upper <= 1.0 / math.sqrt(2) + 1e-9


def test_criterion_10_sphere_quasirandomness():
    with criterion(10, "sphere quasirandomness bound"):
        start = time.monotonic()
        results, _ = experiments.sphere([2, 3, 4], 1500, [11, 12, 13],
                                        ProfileFunction.threshold(0.0))
        runs = results["runs"]
        assert [(r["dim"], r["seed"]) for r in runs] == [
            (dim, seed) for dim in (2, 3, 4) for seed in (11, 12, 13)]
        for run in runs:
            bound = 1.0 / math.sqrt(run["dim"] + 1) + 0.05
            assert run["cut_lower"] <= bound
            assert run["cut_upper"] <= bound
        elapsed = time.monotonic() - start
        assert elapsed <= 300.0, f"ran {elapsed:.1f}s, budget 300s"


def test_criterion_11_circle_noncompactness_witness():
    with criterion(11, "circle non-compactness witness"):
        results, _ = experiments.circle(64, [3], seed=0)
        assert set(results["cycle_densities"]) == set(range(3, 9))
        (run,) = results["runs"]
        assert run["k"] == 3
        # the largest cycle-density gap over j = 3..8
        assert run["max_density_delta"] <= 1e-9
        assert run["cut_lower"] >= 0.05


def test_criterion_12_wrandom_rank_and_l2_convergence():
    with criterion(12, "W-random rank and aligned L2 convergence"):
        results, _ = experiments.wrandom_convergence(
            experiments.builtin_rank3_step(), [100, 400, 1600], list(range(5)))
        assert results["source_rank"] == 3
        per_count = results["per_count"]
        ranks = per_count["1600"]["ranks"]
        assert ranks == [3] * 5, f"ranks at 1600: {ranks}"
        assert (per_count["1600"]["median_aligned_l2"]
                < per_count["100"]["median_aligned_l2"])


def test_criterion_13_byte_identical_reports(tmp_path, capsys):
    with criterion(13, "byte-identical reports across thread counts"):
        from graphonlab.fileio import format_matrix

        rng = np.random.default_rng(13)
        k = kernel_from_matrix(random_symmetric(rng, 10))
        matrix = tmp_path / "m.txt"
        matrix.write_text(format_matrix(k))
        invocations = [
            ["spectrum", "--input", str(matrix)],
            ["cutnorm", "--input", str(matrix), "--seed", "5"],
            ["experiment", "--name", "sphere", "--dims", "2", "--count", "120",
             "--seeds", "2", "--seed", "2"],
            ["experiment", "--name", "circle", "--n", "32", "--ks", "3",
             "--seed", "4"],
        ]
        for argv in invocations:
            outs = []
            for threads in ("1", "4"):
                rep = tmp_path / "rep.json"
                code = main(argv + ["--threads", threads, "--output", str(rep)])
                captured = capsys.readouterr().out
                assert code == 0, f"{argv} exited {code}"
                outs.append((captured, rep.read_bytes()))
                json.loads(captured)
            assert outs[0] == outs[1], f"{argv} not reproducible"
