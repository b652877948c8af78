"""Homomorphism densities t(G, W).

Exact tensor-contraction values on step functions, seeded Monte Carlo on
general kernels, and the spectral trace formula for cycles, plus the check
that the spectrum distribution's moments equal cycle-density ratios.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .core import Kernel, SimpleGraph, StepFunction, _draw_atoms
from .errors import ParameterError, TooManyVerticesError
from .spectral import SpectralDecomposition, spectrum_distribution

MAX_EXACT_VERTICES = 10
# Samples drawn at once: 8192 keeps one chunk's uniforms, atom indices and
# products near 1 MiB for the graphs of the template registry, small beside
# the samples' own values. The stream does not depend on it, since
# consecutive rng.random calls draw the same numbers as one call of their
# total size.
_MC_CHUNK = 8192


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    stderr: float
    samples: int
    method: str  # exact_step | monte_carlo | spectral_cycle


def hom_density_step(graph: SimpleGraph, sf: StepFunction) -> DensityEstimate:
    """Exact density: sum over all part assignments of the product of block
    values on edges, weighted by the product of part weights."""
    if graph.k > MAX_EXACT_VERTICES:
        raise TooManyVerticesError(
            f"{graph.k} vertices exceeds the exact cap {MAX_EXACT_VERTICES}"
        )
    letters = string.ascii_letters
    subscripts = []
    operands = []
    for (u, v) in sorted(graph.edges):
        subscripts.append(letters[u - 1] + letters[v - 1])
        operands.append(sf.block)
    for v in range(graph.k):
        subscripts.append(letters[v])
        operands.append(sf.part_weights)
    value = float(np.einsum(",".join(subscripts) + "->", *operands, optimize=True))
    return DensityEstimate(value=value, stderr=0.0, samples=0, method="exact_step")


def hom_density_mc(graph: SimpleGraph, kernel: Kernel, samples: int,
                   seed: int = 0) -> DensityEstimate:
    """Monte Carlo density: average the edge product over independent
    vertex tuples drawn atom-wise from the weight distribution.

    The tuples are the stream rng.choice(n, size=(count, k), p=weights)
    draws, chunk by chunk, through core._draw_atoms; every vertex takes a
    draw, isolated ones too. The call holds the samples' values and one
    chunk of _MC_CHUNK draws."""
    if not samples >= 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    w = kernel.space.weights
    edges = sorted(graph.edges)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        count = min(_MC_CHUNK, samples - done)
        x = _draw_atoms(w, rng.random((count, graph.k)))
        prod = np.ones(count)
        for (u, v) in edges:
            prod *= kernel.values[x[:, u - 1], x[:, v - 1]]
        vals[done : done + count] = prod
        done += count
    # vals.mean() and vals.std(ddof=1) by numpy's own steps, with the
    # deviations formed in vals' buffer instead of a copy of it
    mean = vals.mean(keepdims=True)
    stderr = 0.0
    if samples > 1:
        vals -= mean
        vals *= vals
        stderr = float(np.sqrt(vals.sum() / (samples - 1)) / np.sqrt(samples))
    return DensityEstimate(value=float(mean[0]), stderr=stderr, samples=samples,
                           method="monte_carlo")


def cycle_density_spectral(dec: SpectralDecomposition, k: int) -> DensityEstimate:
    """t(C_k, W) = sum_i lambda_i^k, exact given the decomposition; a
    leading decomposition, which lists no eigenvalue below its bulk_bound,
    raises EigenvectorsNotKept."""
    if k < 3:
        raise ValueError("cycles need length at least 3")
    dec._check_listed(0.0)
    value = float(np.sum(dec.eigenvalues**k))
    return DensityEstimate(value=value, stderr=0.0, samples=0, method="spectral_cycle")


def moment_identity_check(dec: SpectralDecomposition, k_max: int) -> dict:
    """Compare E[X^k] of the spectrum distribution against the cycle ratio
    t(C_{4+k}, W) / t(C_4, W) for k = 1..k_max; two independent paths."""
    dist = spectrum_distribution(dec)
    c4 = cycle_density_spectral(dec, 4).value  # > 0, or spectrum_distribution raised
    rows = []
    worst = 0.0
    for k in range(1, k_max + 1):
        lhs = dist.moment(k)
        rhs = cycle_density_spectral(dec, 4 + k).value / c4
        gap = abs(lhs - rhs)
        worst = max(worst, gap)
        rows.append({"k": k, "moment": lhs, "cycle_ratio": rhs, "discrepancy": gap})
    return {"rows": rows, "max_discrepancy": worst}
