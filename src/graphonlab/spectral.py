"""Weighted eigendecomposition, spectral radius, threshold truncation by
eigenvalue clusters, and the spectrum-derived distribution.

The kernel operator (Kf)(x) = sum_y w_y K(x,y) f(y) is self-adjoint in the
weighted inner product (f,g) = sum_v w_v f(v) g(v). Solving the symmetrized
problem D^{1/2} K D^{1/2} (D = diag of weights) and mapping eigenvectors
back through D^{-1/2} yields weight-orthonormal eigenvectors and the exact
reconstruction K = sum_i lambda_i f_i f_i^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteSpace, Kernel, symmetric_kernel
from .errors import (
    AllZeroSpectrum,
    EigenSolverError,
    ThresholdSplitsCluster,
)

# Multiplicity grouping: floating-point eigenvalues of a degenerate
# eigenspace differ at solver precision, so |lambda| values closer than
# this are treated as one cluster and truncation never separates them.
CLUSTER_TOL_FACTOR = 1e-8

ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a kernel, sorted by decreasing |lambda|.

    eigenvectors[:, i] is the weight-orthonormal eigenvector for
    eigenvalues[i]; clusters is a list of (start, stop) index ranges
    grouping numerically equal |lambda| (within a cluster, positive
    eigenvalues come first so equal signed values are contiguous).
    """

    kernel: Kernel
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def cluster_tolerance(self) -> float:
        return CLUSTER_TOL_FACTOR * max(abs(float(self.eigenvalues[0])), 1.0)

    def cluster_dimensions(self) -> list[int]:
        return [stop - start for (start, stop) in self.clusters]

    def energy_above(self, threshold: float) -> float:
        """sum of lambda_i^2 over |lambda_i| > threshold."""
        lam = self.eigenvalues
        return float(np.sum(lam[np.abs(lam) > threshold] ** 2))

    def rank_above(self, threshold: float) -> int:
        return int(np.sum(np.abs(self.eigenvalues) > threshold))


def _cluster_ranges(abs_sorted: np.ndarray, tol: float) -> tuple:
    """Group consecutive |lambda| values whose gap is at most tol."""
    ranges = []
    start = 0
    for i in range(1, abs_sorted.size):
        if abs_sorted[i - 1] - abs_sorted[i] > tol:
            ranges.append((start, i))
            start = i
    ranges.append((start, abs_sorted.size))
    return tuple(ranges)


def _symmetrized(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """D^{1/2} K D^{1/2} and D^{1/2}: the Euclidean-symmetric matrix with
    the spectrum of the kernel operator. Kernel values are exactly symmetric
    and float products commute, so the product is exactly symmetric too."""
    rootw = np.sqrt(kernel.space.weights)
    return kernel.values * np.outer(rootw, rootw), rootw


def decompose(kernel: Kernel) -> SpectralDecomposition:
    """Full weighted eigendecomposition with multiplicity clusters."""
    sym, rootw = _symmetrized(kernel)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigh failed to converge: {exc}") from exc
    # back-transform to weight-orthonormal eigenvectors
    vecs = vecs / rootw[:, None]
    # decreasing |lambda|; within equal |lambda|, positive values first
    order = np.lexsort((-vals, -np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    dec = SpectralDecomposition(
        kernel=kernel,
        eigenvalues=_readonly(vals),
        eigenvectors=_readonly(vecs),
        clusters=_cluster_ranges(
            np.abs(vals), CLUSTER_TOL_FACTOR * max(abs(float(vals[0])), 1.0)
        ),
    )
    _validate(dec)
    return dec


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _validate(dec: SpectralDecomposition) -> None:
    # "not err <= tol" so that a NaN error fails the check
    w = dec.kernel.space.weights
    f = dec.eigenvectors
    gram = (f * w[:, None]).T @ f
    err = float(np.max(np.abs(gram - np.eye(dec.n))))
    if not err <= ORTHONORMALITY_TOL:
        raise EigenSolverError(f"weighted orthonormality off by {err:.3e}")
    # measured on K / s, so a kernel of any scale meets the tolerance of |K| <= 1
    s = max(1.0, float(np.max(np.abs(dec.kernel.values))))
    diff = dec.kernel.values / s - (f * (dec.eigenvalues / s)) @ f.T
    l2 = math.sqrt(float(w @ (diff * diff) @ w))
    if not l2 <= RECONSTRUCTION_TOL:
        raise EigenSolverError(f"spectral reconstruction off by {l2:.3e}")


def _split_check(dec: SpectralDecomposition, threshold: float) -> np.ndarray:
    """Boolean mask of retained indices; raises if a cluster straddles."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    abs_lam = np.abs(dec.eigenvalues)
    keep = np.zeros(dec.n, dtype=bool)
    for start, stop in dec.clusters:
        lo = float(abs_lam[start:stop].min())
        hi = float(abs_lam[start:stop].max())
        if lo > threshold:
            keep[start:stop] = True
        elif hi <= threshold:
            pass
        else:
            raise ThresholdSplitsCluster(
                f"threshold {threshold!r} falls inside the cluster "
                f"[{lo!r}, {hi!r}]; move it to a spectral-gap midpoint"
            )
    return keep


def tail_truncate(dec: SpectralDecomposition, threshold: float) -> Kernel:
    """Keep the eigencomponents with |lambda| strictly above the threshold.

    The threshold must not split a multiplicity cluster, so the result is a
    sum of whole eigenspace projectors and does not depend on the basis
    chosen inside degenerate eigenspaces.
    """
    keep = _split_check(dec, threshold)
    if not np.any(keep):
        return Kernel(dec.kernel.space, np.zeros((dec.n, dec.n)))
    f = dec.eigenvectors[:, keep]
    lam = dec.eigenvalues[keep]
    return symmetric_kernel((f * lam) @ f.T, dec.kernel.space)


def spectral_radius(dec: SpectralDecomposition) -> float:
    """Largest |eigenvalue|."""
    return abs(float(dec.eigenvalues[0]))


def operator_norm_upper(kernel: Kernel) -> float:
    """Certified upper bound on the operator norm (spectral radius) of the
    kernel, from eigenvalues alone: max |eigvalsh(D^{1/2} K D^{1/2})| plus
    a backward-error margin of (n + 3) eps ||D^{1/2} K D^{1/2}||_F.

    eigvalsh is backward stable: its eigenvalues are exact for sym + E with
    ||E||_2 <= p(n) eps ||sym||_2, p(n) of order n (LAPACK Users' Guide,
    section 4.7). Forming sym rounds each entry by at most 3 eps relative,
    a perturbation of 2-norm at most 3 eps ||sym||_F. By Weyl's inequality
    neither moves an eigenvalue by more than its 2-norm, and ||sym||_2 <=
    ||sym||_F. This margin replaces the eigenvector validation of
    decompose, which a radius-only path does not have. A result that is not
    finite is reported as inf, which is still an upper bound.
    """
    sym, _ = _symmetrized(kernel)
    try:
        vals = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigvalsh failed to converge: {exc}") from exc
    with np.errstate(over="ignore"):  # an overflowing norm gives inf below
        fro = float(np.linalg.norm(sym))
    margin = (kernel.n + 3) * float(np.finfo(float).eps) * fro
    bound = float(np.max(np.abs(vals))) + margin
    return bound if math.isfinite(bound) else math.inf


def gap_midpoints(dec: SpectralDecomposition) -> list[float]:
    """Cluster-safe truncation thresholds: midpoints of spectral gaps,
    sorted decreasing, including the gap down to zero when present."""
    abs_lam = np.abs(dec.eigenvalues)
    bounds = [(float(abs_lam[a:b].min()), float(abs_lam[a:b].max())) for a, b in dec.clusters]
    mids = []
    for (lo, _), (_, hi_next) in zip(bounds, bounds[1:]):
        mids.append((lo + hi_next) / 2.0)
    lo_last = bounds[-1][0]
    if lo_last > 0.0:
        mids.append(lo_last / 2.0)
    return mids


@dataclass(frozen=True)
class SpectrumDistribution:
    """The random variable taking value lambda_i with probability
    lambda_i^4 / sum_j lambda_j^4, over the nonzero eigenvalues."""

    support: np.ndarray
    probabilities: np.ndarray

    def moment(self, k: int) -> float:
        return float(np.sum(self.probabilities * self.support**k))


def spectrum_distribution(dec: SpectralDecomposition) -> SpectrumDistribution:
    # the numerically-zero cluster is solver noise, not support
    lam = dec.eigenvalues[np.abs(dec.eigenvalues) > dec.cluster_tolerance]
    fourth = lam**4
    total = float(fourth.sum())
    if lam.size == 0 or total == 0.0:
        raise AllZeroSpectrum("kernel has no usable nonzero eigenvalue")
    return SpectrumDistribution(_readonly(lam), _readonly(fourth / total))
