#!/usr/bin/env python3
"""Quasirandomness from symmetry: eigenvalue multiplicities of invariant
kernels force cut-norm bounds, demonstrated on Cayley kernels, sampled
sphere kernels, and W-random graphs.
"""

import math

import numpy as np

from graphonlab import (
    Kernel,
    PermutationAction,
    ProfileFunction,
    StepFunction,
    cayley_kernel,
    cutnorm_heuristic,
    decompose,
    expand_step,
    invariant_dimension_report,
    kernel_from_matrix,
    sphere_kernel,
    w_random_graph,
    weighted_mean,
    weighted_norm,
    DiscreteSpace,
)

# --- Cayley kernels: the shift action pairs frequencies j and p - j, so
# every nonzero eigenvalue of a zero-mean profile has multiplicity >= 2.
p = 11
profile = np.array([0, 1, 0, -1, 0.5, 0.25, 0.25, 0.5, -1, 0, 1], dtype=float)
profile -= profile.mean()
k = cayley_kernel(p, profile)
k = Kernel(k.space, k.values / weighted_norm(k, "L2"))  # normalize to ||H||_2 = 1

shift = (np.arange(p) + 1) % p
report = invariant_dimension_report(k, PermutationAction(k.space, (shift,)))
print(f"Z_{p} Cayley kernel, ||H||_2 = 1")
print("eigencluster dimensions:", report.kernel_report.cluster_dims)
print("min invariant dimension d =", report.kernel_report.d)
print(f"spectral radius {report.kernel_report.spectral_radius:.4f}"
      f"  <=  1/sqrt(d) = {report.kernel_report.bound:.4f}"
      f"  holds: {report.kernel_report.bound_holds}")

# --- Sphere kernels: the isometry group acts with no small invariant
# subspace beyond the constants, so centered invariant kernels are nearly
# quasirandom; the bound scales as 1/sqrt(dim + 1).
print("\nsampled sphere kernels, threshold profile, N = 800:")
for dim in (2, 3, 4):
    sk = sphere_kernel(dim, ProfileFunction.threshold(0.0), 800, seed=dim)
    centered = Kernel(sk.space, sk.values - weighted_mean(sk))
    est = cutnorm_heuristic(centered, restarts=16, seed=dim)
    bound = 1.0 / math.sqrt(dim + 1)
    print(f"  dim {dim}: ||W - p||_cut lower {est.lower:.4f}"
          f"  vs 1/sqrt(dim+1) = {bound:.4f} (+ sampling slack)")

# --- W-random graphs converge to their source kernel: the planted spectrum
# emerges from the sampling noise as N grows.
sf = StepFunction(DiscreteSpace.uniform(4), [0, 1, 2, 2],
                   [[0.9, 0.4, 0.1], [0.4, 0.7, 0.3], [0.1, 0.3, 0.8]])
source = expand_step(sf)
top3 = decompose(source).eigenvalues[:3]
print("\nW-random sampling from a rank-3 step kernel")
print("source top eigenvalues:", np.round(top3, 4))
for n_sample in (100, 400, 1600):
    g = w_random_graph(source, n_sample, seed=0)
    eigs = decompose(g).eigenvalues[:3]
    print(f"  N={n_sample:5d}: top sampled eigenvalues {np.round(eigs, 4)}")
