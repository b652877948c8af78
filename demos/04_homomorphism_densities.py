#!/usr/bin/env python3
"""Homomorphism densities three ways: exact tensor contraction on step
functions, Monte Carlo on general kernels, traces of eigenvalue powers for
cycles, and the moment identity tying the spectrum distribution to cycle
density ratios.
"""

import numpy as np

from graphonlab import (
    DiscreteSpace,
    StepFunction,
    cycle_density_spectral,
    cycle_graph,
    decompose,
    expand_step,
    hom_density_mc,
    hom_density_step,
    moment_identity_check,
    spectrum_distribution,
    triangle_graph,
)

# A two-part step function: dense inside the parts, sparse across.
sf = StepFunction(
    DiscreteSpace.uniform(6),
    [0, 0, 0, 1, 1, 1],
    [[0.8, 0.15], [0.15, 0.6]],
)
kernel = expand_step(sf)

tri = hom_density_step(triangle_graph(), sf)
print("t(triangle, W) exact:", round(tri.value, 8))

mc = hom_density_mc(triangle_graph(), kernel, samples=50000, seed=1)
print(f"t(triangle, W) Monte Carlo: {mc.value:.6f} +- {mc.stderr:.6f}")

# Cycles come straight from the spectrum: t(C_k, W) = sum_i lambda_i^k.
dec = decompose(kernel)
for k in (3, 4, 5, 6):
    spectral = cycle_density_spectral(dec, k).value
    exact = hom_density_step(cycle_graph(k), sf).value
    print(f"t(C_{k}): spectral {spectral:.8f}  step-exact {exact:.8f}"
          f"  gap {abs(spectral - exact):.1e}")

# The spectrum distribution puts mass lambda_i^4 / sum lambda_j^4 on each
# eigenvalue; its k-th moment equals t(C_{4+k}, W) / t(C_4, W). The two
# sides travel through completely different code paths.
dist = spectrum_distribution(dec)
print("\nspectrum distribution support:", np.round(dist.support, 4))
print("probabilities:", np.round(dist.probabilities, 4))
report = moment_identity_check(dec, 6)
for row in report["rows"]:
    print(f"  k={row['k']}  E[X^k]={row['moment']:+.6f}"
          f"  cycle ratio={row['cycle_ratio']:+.6f}")
print("max discrepancy:", f"{report['max_discrepancy']:.2e}")

# Bipartite-like structure kills odd cycles: a pure two-part checkerboard
# has t(C_3) = 0 exactly.
checker = StepFunction(DiscreteSpace.uniform(2), [0, 1], [[0.0, 1.0], [1.0, 0.0]])
print("\ncheckerboard t(triangle):",
      hom_density_step(triangle_graph(), checker).value)
