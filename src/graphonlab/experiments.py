"""Experiment drivers: circle dilations, sphere quasirandomness and W-random
spectral convergence. Each is a pure function of plain values returning
(results, checks), where a check is a (name, value, bound, op) tuple with op
'le' or 'ge'; rounding and the report format belong to the CLI."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DiscreteSpace,
    Kernel,
    StepFunction,
    apply_permutation,
    expand_step,
    quotient_average,
    step_function,
    weighted_mean,
)
from .cutnorm import cutnorm_exact, cutnorm_heuristic
from .ensembles import (
    ProfileFunction,
    circle_halfplane_kernel,
    dilation_perm,
    sphere_kernel,
    w_random_sample,
)
from .homdensity import cycle_density_spectral
from .spectral import decompose, tail_truncate


def circle(n: int, ks: list[int], seed: int) -> tuple[dict, list]:
    """The circle half-plane kernel against its dilations x -> kx: cycle
    densities agree to float precision while the cut distance stays
    bounded away from zero."""
    kernel = circle_halfplane_kernel(n)
    dec = decompose(kernel)
    densities = {j: cycle_density_spectral(dec, j).value for j in range(3, 9)}
    runs = []
    checks = []
    coarse_labels = (np.arange(n) * 16) // n
    for k in ks:
        perm = dilation_perm(n, k)
        permuted = apply_permutation(kernel, perm)
        dec_p = decompose(permuted)
        delta_density = max(
            abs(cycle_density_spectral(dec_p, j).value - densities[j])
            for j in range(3, 9)
        )
        diff = Kernel(kernel.space, permuted.values - kernel.values)
        bracket = cutnorm_heuristic(diff, restarts=32, seed=seed)
        quot = quotient_average(diff, coarse_labels)
        small = Kernel(DiscreteSpace(quot.part_weights), quot.block)
        exact16 = cutnorm_exact(small)
        lower = max(bracket.lower, exact16.lower)
        runs.append({
            "k": k,
            "max_density_delta": delta_density,
            "cut_lower": lower,
            "cut_lower_heuristic": bracket.lower,
            "cut_lower_coarse_exact": exact16.lower,
            "cut_upper": bracket.upper,
        })
        checks.append((f"density_agreement_k{k}", delta_density, 1e-9, "le"))
        checks.append((f"cut_separation_k{k}", lower, 0.05, "ge"))
    results = {"n": n, "cycle_densities": densities, "runs": runs}
    return results, checks


def sphere(dims: list[int], count: int, seeds: list[int],
           profile: ProfileFunction) -> tuple[dict, list]:
    """Sampled sphere kernels are quasirandom: the cut norm of the centered
    kernel stays within 1/sqrt(dim + 1) + 0.05."""
    runs = []
    checks = []
    for dim in dims:
        bound = 1.0 / math.sqrt(dim + 1) + 0.05
        for seed in seeds:
            kernel = sphere_kernel(dim, profile, count, seed)
            p = weighted_mean(kernel)
            centered = Kernel(kernel.space, kernel.values - p)
            bracket = cutnorm_heuristic(centered, restarts=32, seed=seed)
            runs.append({
                "dim": dim, "seed": seed, "edge_density": p,
                "cut_lower": bracket.lower, "cut_upper": bracket.upper,
                "bound": bound,
            })
            checks.append((f"quasirandom_dim{dim}_seed{seed}", bracket.lower, bound, "le"))
            # the certified form: the upper end of the bracket is within the bound
            checks.append(
                (f"quasirandom_upper_dim{dim}_seed{seed}", bracket.upper, bound, "le")
            )
    results = {"dims": dims, "count": count, "seeds": seeds, "runs": runs}
    return results, checks


def builtin_rank3_step() -> StepFunction:
    """Default W-random source: a rank-3 step kernel with a clear spectral
    gap (weighted eigenvalues well above the sampling noise floor)."""
    space = DiscreteSpace.uniform(4)
    labels = np.array([0, 1, 2, 2])
    block = np.array([
        [0.90, 0.40, 0.10],
        [0.40, 0.70, 0.30],
        [0.10, 0.30, 0.80],
    ])
    return step_function(space, labels, block)


def wrandom_convergence(source_step: StepFunction, counts: list[int],
                        seeds: list[int]) -> tuple[dict, list]:
    """W-random graphs of growing size sampled from a step kernel: the rank
    above the source's half-gap and the top eigenvalues converge to the
    source's, and the truncated samples approach it in aligned L2."""
    source = expand_step(source_step)
    dec_w = decompose(source)
    nonzero = np.abs(dec_w.eigenvalues) > dec_w.cluster_tolerance
    rank_w = int(np.sum(nonzero))
    lam_mid = float(np.min(np.abs(dec_w.eigenvalues[nonzero]))) / 2.0
    truncated_w = tail_truncate(dec_w, lam_mid)
    ref_block = quotient_average(truncated_w, source_step.part_of)
    pw = source_step.part_weights
    top = min(10, source.n)
    ref_eigs = dec_w.eigenvalues[:top]

    labels_of_atom = source_step.part_of
    per_count: dict[int, dict] = {}
    track = min(10, min(counts))
    checks = []
    for count in counts:
        ranks = []
        dists = []
        eig_rows = []
        for seed in seeds:
            sample, atoms = w_random_sample(source, count, seed)
            # only the eigenvectors above lam_mid are read
            dec_s = decompose(sample, vectors_above=lam_mid)
            ranks.append(dec_s.rank_above(lam_mid))
            truncated_s = tail_truncate(dec_s, lam_mid)
            sample_labels = labels_of_atom[atoms]
            quot = quotient_average(truncated_s, sample_labels)
            diff = quot.block - ref_block.block
            dists.append(float(np.sqrt(np.sum(np.outer(pw, pw) * diff * diff))))
            eig_rows.append(dec_s.eigenvalues[:track])
        med = float(np.median(np.array(eig_rows), axis=0)[0])
        per_count[count] = {
            "ranks": ranks,
            "median_rank": float(np.median(ranks)),
            "aligned_l2": dists,
            "median_aligned_l2": float(np.median(dists)),
            "median_top_eigenvalues": np.median(np.array(eig_rows), axis=0),
            "median_top_eigenvalue": med,
        }
    last = counts[-1]
    for seed, r in zip(seeds, per_count[last]["ranks"]):
        checks.append((f"rank_error_at_{last}_seed{seed}", float(abs(r - rank_w)), 0.0, "le"))
    checks.append((
        "aligned_l2_decreases",
        per_count[last]["median_aligned_l2"],
        per_count[counts[0]]["median_aligned_l2"],
        "le",
    ))
    trajectories = [
        [float(per_count[c]["median_top_eigenvalues"][i]) for c in counts]
        for i in range(track)
    ]
    results = {
        "counts": counts,
        "seeds": seeds,
        "source_rank": rank_w,
        "lambda_mid": lam_mid,
        "source_top_eigenvalues": ref_eigs,
        "per_count": {str(c): per_count[c] for c in counts},
        "sample_sizes": counts,
        "trajectories": trajectories,
        "reference": ref_eigs,
    }
    return results, checks
