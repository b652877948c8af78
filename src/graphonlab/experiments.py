"""Experiment drivers: circle dilations, sphere quasirandomness and W-random
spectral convergence. Each is a pure function of plain values returning
(results, checks), where a check is a (name, value, bound, op) tuple with op
'le' or 'ge'; rounding and the report format belong to the CLI."""

from __future__ import annotations

import math
import os

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
from .errors import AllZeroSpectrum, EmptyPartError, WorkerError
from .homdensity import cycle_density_spectral
from .spectral import decompose, decompose_leading, spectrum, truncation_quotient

# Predicted work, as the sum of n^3 over the units, below which the units run
# in this process. On a 2-core VM four units of n = 300 (1.1e8) took as long
# in a pool of two as in one process; below that, starting the pool (40-60
# ms) costs more than it saves.
POOL_MIN_WORK = 1e8


def _worker_count(threads: int, units: int) -> int:
    """Worker processes for units independent units: never more than were
    asked for, than there are units, or than there are cores to run them."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(threads, units, cores))


def _map_units(unit, calls: list[tuple], sizes: list[int], workers: int) -> list:
    """[unit(*call) for call in calls], in index order. With more than one
    worker, a predicted work of at least POOL_MIN_WORK and no other thread
    in this process, the calls run in a pool of forked processes, the
    largest first; a unit is a module-level function of its arguments alone,
    so where it runs never changes what it returns."""
    workers = _worker_count(workers, len(calls))
    if workers == 1 or sum(n**3 for n in sizes) < POOL_MIN_WORK:
        return [unit(*call) for call in calls]
    import concurrent.futures
    import multiprocessing
    import threading

    # fork copies only the calling thread, so a lock another thread holds
    # stays locked in the workers; and Windows has no fork
    if threading.active_count() > 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [unit(*call) for call in calls]
    # fork: the workers inherit the imported numpy and the BLAS pin
    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    try:
        largest_first = sorted(range(len(calls)), key=lambda i: -sizes[i])
        futures = {i: pool.submit(unit, *calls[i]) for i in largest_first}
        return [futures[i].result() for i in range(len(calls))]
    except concurrent.futures.BrokenExecutor as exc:  # e.g. a worker was killed
        raise WorkerError(f"a worker process ended without returning its unit: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def require_distinct(name: str, values: list) -> None:
    """Raise ValueError when a value repeats: each names one unit, which
    would otherwise run twice and report under the same check names."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{name} repeats {repeated[0]}")


def circle(n: int, ks: list[int], seed: int) -> tuple[dict, list]:
    """The circle half-plane kernel against its dilations x -> kx: cycle
    densities agree to float precision while the cut distance stays
    bounded away from zero. Each factor may appear once."""
    require_distinct("ks", ks)
    kernel = circle_halfplane_kernel(n)
    dec = spectrum(kernel)
    densities = {j: cycle_density_spectral(dec, j).value for j in range(3, 9)}
    runs = []
    checks = []
    coarse_labels = (np.arange(n) * 16) // n
    for k in ks:
        perm = dilation_perm(n, k)
        permuted = apply_permutation(kernel, perm)
        dec_p = spectrum(permuted)
        delta_density = max(
            abs(cycle_density_spectral(dec_p, j).value - densities[j])
            for j in range(3, 9)
        )
        diff = Kernel(kernel.space, permuted.values - kernel.values)
        bracket = cutnorm_heuristic(diff, seed=seed)
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


def _sphere_unit(dim: int, profile: ProfileFunction, count: int,
                 seed: int) -> tuple[float, float, float]:
    """One sampled sphere kernel: its edge density and the cut-norm bracket
    of the centered kernel."""
    kernel = sphere_kernel(dim, profile, count, seed)
    p = weighted_mean(kernel)
    centered = Kernel(kernel.space, kernel.values - p)
    bracket = cutnorm_heuristic(centered, seed=seed)
    return p, bracket.lower, bracket.upper


def sphere(dims: list[int], count: int, seeds: list[int],
           profile: ProfileFunction, workers: int = 1) -> tuple[dict, list]:
    """Sampled sphere kernels are quasirandom: the cut norm of the centered
    kernel stays within 1/sqrt(dim + 1) + 0.05. Up to workers processes
    share the (dim, seed) kernels; the result does not depend on how many.
    Each dimension and each seed may appear once."""
    require_distinct("dims", dims)
    require_distinct("seeds", seeds)
    units = [(dim, seed) for dim in dims for seed in seeds]
    found = _map_units(_sphere_unit, [(dim, profile, count, seed) for dim, seed in units],
                       [count] * len(units), workers)
    runs = []
    checks = []
    for (dim, seed), (p, lower, upper) in zip(units, found):
        bound = 1.0 / math.sqrt(dim + 1) + 0.05
        runs.append({
            "dim": dim, "seed": seed, "edge_density": p,
            "cut_lower": lower, "cut_upper": upper,
            "bound": bound,
        })
        checks.append((f"quasirandom_dim{dim}_seed{seed}", lower, bound, "le"))
        # the certified form: the upper end of the bracket is within the bound
        checks.append((f"quasirandom_upper_dim{dim}_seed{seed}", upper, bound, "le"))
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


def _wrandom_unit(source: Kernel, labels_of_atom: np.ndarray, ref_block: np.ndarray,
                  pw: np.ndarray, lam_mid: float, rank: int, track: int, count: int,
                  seed: int) -> tuple[int, float, np.ndarray, float | None]:
    """One W-random sample of the source: its rank above lam_mid, the
    aligned L2 distance of its truncation to the reference block, its top
    track eigenvalues, and its bulk bound. The sample's eigenpairs come from
    decompose_leading, which proves that exactly the source rank of them
    lie above lam_mid and bounds the rest by the bulk bound; when that proof
    is refused, from one full decompose (eigh), and the bulk bound is None.
    A sample that misses a source part has no block to align with the
    reference's and raises EmptyPartError."""
    sample, atoms = w_random_sample(source, count, seed)
    parts = labels_of_atom[atoms]
    missing = np.flatnonzero(np.bincount(parts, minlength=pw.size) == 0)
    if missing.size:
        raise EmptyPartError(f"the W-random sample of {count} atoms at seed {seed} "
                             f"misses source parts {missing.tolist()}")
    # only the eigenvectors above lam_mid are read
    dec_s = decompose_leading(sample, rank, lam_mid)
    if dec_s is None:
        dec_s = decompose(sample)
    quot = truncation_quotient(dec_s, lam_mid, parts)
    diff = quot.block - ref_block
    dist = float(np.sqrt(np.sum(np.outer(pw, pw) * diff * diff)))
    return dec_s.rank_above(lam_mid), dist, dec_s.eigenvalues[:track], dec_s.bulk_bound


def wrandom_convergence(source_step: StepFunction, counts: list[int],
                        seeds: list[int], workers: int = 1) -> tuple[dict, list]:
    """W-random graphs of growing size sampled from a step kernel: the rank
    above the source's half-gap and the top source-rank eigenvalues converge
    to the source's, and the truncated samples approach it in aligned L2. Up to
    workers processes share the (count, seed) samples; the result does not
    depend on how many. Each count may appear once."""
    require_distinct("counts", counts)
    source = expand_step(source_step)
    dec_w = decompose(source)
    nonzero = np.abs(dec_w.eigenvalues) > dec_w.cluster_tolerance
    rank_w = int(np.sum(nonzero))
    if rank_w == 0:
        raise AllZeroSpectrum("the W-random source has no nonzero eigenvalue to converge to")
    lam_mid = float(np.min(np.abs(dec_w.eigenvalues[nonzero]))) / 2.0
    ref_block = truncation_quotient(dec_w, lam_mid, source_step.part_of)
    pw = source_step.part_weights
    top = min(10, source.n)
    ref_eigs = dec_w.eigenvalues[:top]

    track = min(rank_w, min(counts))
    reference = (source, source_step.part_of, ref_block.block, pw, lam_mid, rank_w, track)
    units = [(count, seed) for count in counts for seed in seeds]
    found = iter(_map_units(_wrandom_unit, [reference + unit for unit in units],
                            [count for count, _ in units], workers))
    per_count: dict[int, dict] = {}
    checks = []
    for count in counts:
        ranks, dists, eig_rows, bulk = map(list, zip(*(next(found) for _ in seeds)))
        med = float(np.median(np.array(eig_rows), axis=0)[0])
        per_count[count] = {
            "ranks": ranks,
            "median_rank": float(np.median(ranks)),
            "aligned_l2": dists,
            "median_aligned_l2": float(np.median(dists)),
            "median_top_eigenvalues": np.median(np.array(eig_rows), axis=0),
            "median_top_eigenvalue": med,
            "bulk_bounds": bulk,
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
