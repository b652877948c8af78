"""Kernel ensembles: Cayley kernels on Z_n, the circle half-plane kernel
with its dilation maps, sampled sphere kernels S(n, f), W-random graphs,
and the invariant-subspace-dimension report behind quasirandomness bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DiscreteSpace,
    Kernel,
    PermutationAction,
    _draw_atoms,
    _frozen,
    _largest_move,
    _symmetrize_in_place,
    symmetric_kernel,
    weighted_mean,
    weighted_norm,
)
from .cutnorm import cutnorm_bracket
from .errors import (
    ActionDoesNotStabilizeError,
    NotCoprimeError,
    ParameterError,
    WeightMismatchError,
)
from .spectral import spectral_radius, spectrum

STABILIZE_TOL = 1e-9


# ---------------------------------------------------------------------------
# profile functions for sphere kernels


@dataclass(frozen=True)
class ProfileFunction:
    """A bounded function on [-1, 1]: either a lookup table on a uniform
    grid with nearest-grid evaluation, or one of the builtins."""

    kind: str  # table | threshold | linear | cosine_series
    table: np.ndarray | None = None
    cut: float = 0.0
    coeffs: tuple = ()

    def __post_init__(self):
        # a NaN cut compares false everywhere and would give the zero kernel
        if not (math.isfinite(self.cut) and np.all(np.isfinite(self.coeffs))
                and (self.table is None or np.all(np.isfinite(self.table)))):
            raise ParameterError("profile parameters must be finite")

    @staticmethod
    def from_table(values) -> "ProfileFunction":
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ParameterError("table needs at least two grid values")
        return ProfileFunction(kind="table", table=_frozen(v))

    @staticmethod
    def threshold(cut: float) -> "ProfileFunction":
        return ProfileFunction(kind="threshold", cut=cut)

    @staticmethod
    def linear() -> "ProfileFunction":
        return ProfileFunction(kind="linear")

    @staticmethod
    def cosine_series(coeffs) -> "ProfileFunction":
        return ProfileFunction(kind="cosine_series", coeffs=tuple(float(x) for x in coeffs))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "threshold":
            return (t > self.cut).astype(float)
        if self.kind == "linear":
            return t.copy()
        if self.kind == "cosine_series":
            # series in the angle: sum_j c_j cos(j * arccos t)
            phi = np.arccos(np.clip(t, -1.0, 1.0))
            out = np.zeros_like(t)
            for j, c in enumerate(self.coeffs):
                out += c * np.cos(j * phi)
            return out
        grid = np.clip(
            np.rint((t + 1.0) / 2.0 * (self.table.size - 1)).astype(int),
            0,
            self.table.size - 1,
        )
        return self.table[grid]


# ---------------------------------------------------------------------------
# constructors


def cayley_kernel(n: int, f) -> Kernel:
    """Circulant kernel K[x, y] = f((y - x) mod n) on Z_n, uniform weights.

    f must be finite and even (f(n - x) = f(x)); otherwise the kernel would
    not be a self-adjoint kernel, and ParameterError is raised.
    """
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    vals = np.asarray(f, dtype=float)
    if vals.shape != (n,):
        raise ParameterError(f"f must list one value per group element, expected {n}")
    mirror = vals[(-np.arange(n)) % n]  # f(-x); finite first, as inf - inf warns
    if not (np.all(np.isfinite(vals)) and np.max(np.abs(vals - mirror)) <= 1e-12):
        raise ParameterError("f must be finite and even: f(n - x) = f(x)")
    x = np.arange(n)
    return symmetric_kernel(vals[(x[None, :] - x[:, None]) % n], DiscreteSpace.uniform(n))


def circle_halfplane_kernel(n: int) -> Kernel:
    """Discretized circle graphon: atoms at angles (i + 1/2)/n turns,
    K[i, j] = 1 exactly when the scalar product of the two unit vectors is
    positive, i.e. when the circular distance of i and j is under a quarter
    turn. Evaluated in integer arithmetic so the xy = 0 boundary (hit when
    4 | n) resolves to 0 rather than to floating-point noise."""
    if n < 4 or n % 4 != 0:
        raise ParameterError(f"n must be at least 4 and divisible by 4, got {n}")
    d = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    values = ((4 * d < n) | (4 * d > 3 * n)).astype(float)
    return Kernel(DiscreteSpace.uniform(n), values)


def dilation_perm(n: int, k: int) -> np.ndarray:
    """The index map i -> k*i mod n; a bijection exactly when gcd(k, n) = 1.
    (The continuum dilation a -> ka preserves measure for every k; the grid
    version is invertible only for coprime k.)"""
    if math.gcd(k, n) != 1:
        raise NotCoprimeError(f"gcd({k}, {n}) != 1; grid dilation is not a bijection")
    return (k * np.arange(n)) % n


def sphere_kernel(dim: int, f: ProfileFunction, N: int, seed: int = 0) -> Kernel:
    """Sampled sphere kernel: N uniform points on the dim-sphere (normalized
    standard normals in dim+1 coordinates), K[i, j] = f(x_i . x_j), with
    the diagonal pinned to f(1)."""
    if dim < 1:
        raise ParameterError(f"sphere dimension must be at least 1, got {dim}")
    if N < 2:
        raise ParameterError(f"need at least two sample points, got {N}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N, dim + 1))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms < 1e-12):  # probability-0 guard
        bad = norms < 1e-12
        x[bad] = rng.standard_normal((int(bad.sum()), dim + 1))
        norms = np.linalg.norm(x, axis=1)
    x /= norms[:, None]
    gram = x @ x.T
    _symmetrize_in_place(gram)  # numpy forms x x^T exactly symmetric; nothing is written then
    np.fill_diagonal(gram, 1.0)
    return Kernel(DiscreteSpace.uniform(N), f(np.clip(gram, -1.0, 1.0)))


def w_random_graph(kernel: Kernel, N: int, seed: int = 0) -> Kernel:
    """W-random graph: sample N atoms by weight, then include each edge
    i < j independently with probability K[x_i, x_j]; zero diagonal."""
    graph, _ = w_random_sample(kernel, N, seed)
    return graph


def w_random_sample(kernel: Kernel, N: int, seed: int = 0) -> tuple[Kernel, np.ndarray]:
    """Like w_random_graph but also returns the sampled atom indices, which
    convergence experiments need for quotient alignment."""
    v = kernel.values
    if float(v.min()) < -1e-12 or float(v.max()) > 1.0 + 1e-12:
        raise ParameterError("kernel entries must lie in [0, 1] to sample a graph")
    if N < 1:
        raise ParameterError(f"N must be positive, got {N}")
    rng = np.random.default_rng(seed)
    atoms = _draw_atoms(kernel.space.weights, rng.random(N))
    # clip the small source table once, then gather the N x N probabilities
    probs = np.clip(v, 0.0, 1.0).take(atoms, axis=0).take(atoms, axis=1)
    coins = rng.random((N, N))
    upper = np.triu(coins < probs, k=1)
    adjacency = (upper | upper.T).astype(float)
    return Kernel(DiscreteSpace.uniform(N), adjacency), atoms


# ---------------------------------------------------------------------------
# quasirandomness report


@dataclass(frozen=True)
class ClusterDimensionReport:
    cluster_dims: tuple
    d: int | None  # min dimension over nonzero clusters; None if all zero
    l2_norm: float
    spectral_radius: float
    bound: float | None  # l2_norm / sqrt(d)
    bound_holds: bool | None


@dataclass(frozen=True)
class InvariantDimensionReport:
    kernel_report: ClusterDimensionReport
    centered_report: ClusterDimensionReport
    mean: float
    centered_cut: object | None  # CutNormEstimate of K - p, None when K - p = 0
    centered_cut_bound: float | None
    centered_cut_holds: bool | None


def _cluster_report(kernel: Kernel) -> ClusterDimensionReport:
    dec = spectrum(kernel)
    # the numerically zero cluster carries no range and is left out
    r = dec.nonzero_rank
    dims = [stop - start for start, stop in dec.clusters if start < r]
    d = min(dims, default=None)
    l2 = weighted_norm(kernel, "L2")
    rad = spectral_radius(dec)
    if d is None:
        return ClusterDimensionReport(tuple(dims), None, l2, rad, None, None)
    bound = l2 / math.sqrt(d)
    return ClusterDimensionReport(
        tuple(dims), d, l2, rad, bound, bool(rad <= bound + 1e-9)
    )


def invariant_dimension_report(
    kernel: Kernel,
    action: PermutationAction,
) -> InvariantDimensionReport:
    """Per-eigencluster dimensions of a kernel stabilized by the action.

    Every nonzero eigencluster spans an invariant subspace, so the minimum
    cluster dimension d certifies the quasirandomness bound: the spectral
    radius (and hence the cut norm) is at most ||K||_2 / sqrt(d). The same
    report on the centered kernel K - p bounds ||K - p||_cut.
    """
    if not np.array_equal(action.space.weights, kernel.space.weights):
        raise WeightMismatchError("the action permutes the atoms of another space")
    dev = _largest_move(action, kernel.values)
    if dev > STABILIZE_TOL:
        raise ActionDoesNotStabilizeError(f"a generator moves the kernel by {dev:.3e} in sup norm")
    base = _cluster_report(kernel)
    p = weighted_mean(kernel)
    centered = Kernel(kernel.space, kernel.values - p)
    creport = _cluster_report(centered)
    if creport.d is None:
        cut = None
        cut_bound = None
        cut_holds = None
    else:
        cut = cutnorm_bracket(centered)
        cut_bound = creport.bound
        cut_holds = bool(cut.upper <= cut_bound + 1e-9)
    return InvariantDimensionReport(
        kernel_report=base,
        centered_report=creport,
        mean=p,
        centered_cut=cut,
        centered_cut_bound=cut_bound,
        centered_cut_holds=cut_holds,
    )
