"""Foundational data model: weighted probability spaces, symmetric kernels,
step functions, template graphs, permutation actions, and weighted norms.

All objects are immutable after construction (arrays are frozen), every
operation is pure, and everything is safe for concurrent reads.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    EmptyPartError,
    InvalidSpaceError,
    NonFiniteError,
    SymmetrizedWarning,
    WeightMismatchError,
)

WEIGHT_SUM_TOL = 1e-12
MIN_ATOM_WEIGHT = 1e-14
# Skew ladder: below SILENT_SKEW we symmetrize quietly (eigen-solver
# round-trip noise), below HARD_SKEW we symmetrize with a warning, above
# it the input is genuinely asymmetric and rejected.
SILENT_SKEW = 1e-12
HARD_SKEW = 1e-9
# Kernel compares its matrix with its transpose in square tiles of this
# many rows, so that each transposed read stays in cache.
SYMMETRY_TILE = 256


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} must be finite (no NaN or inf)")


def _frozen(a, dtype=float) -> np.ndarray:
    """a as a read-only array of dtype; an array of that dtype is frozen itself."""
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiscreteSpace:
    """A finite probability space: n atoms with strictly positive weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidSpaceError("weights must be a nonempty vector")
        if not np.all(w >= MIN_ATOM_WEIGHT):  # also rejects NaN; inf fails the sum
            raise InvalidSpaceError(
                f"atom weights must be >= {MIN_ATOM_WEIGHT}; got min {w.min()}"
            )
        s = float(w.sum())
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidSpaceError(f"weights must sum to 1, got {s!r}")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.weights.size

    @staticmethod
    def uniform(n: int) -> "DiscreteSpace":
        if n <= 0:
            raise InvalidSpaceError("atom count must be positive")
        return DiscreteSpace(np.full(n, 1.0 / n))


def _draw_atoms(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Atom index of each uniform u in [0, 1): cdf.searchsorted(u,
    side="right") for cdf = weights.cumsum() / its last entry, exactly. For
    u = rng.random(shape) that is the draw rng.choice(n, size=shape,
    p=weights) makes, from the same stream.

    A guide table replaces the binary search. Bucket b(x) = floor(fl(x s)),
    s = 2n, is nondecreasing in x, so every CDF value in a lower bucket
    than u is below u and every one in a higher bucket is above it. The
    answer is therefore first[b(u)] plus the number of CDF values in u's
    own bucket that are <= u. One comparison counts them when the bucket
    holds at most one; u in a bucket that holds more goes to searchsorted.
    With s = n, uniform weights put every CDF value on a bucket edge, where
    rounding can crowd two into one bucket.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    s = 2 * cdf.size
    # first[b]: how many CDF values lie in buckets below b. u < 1 keeps
    # b(u) <= s, and cdf[-1] = 1 lies in bucket s, so first[b(u)] < n
    first = np.zeros(s + 2, dtype=np.intp)
    np.cumsum(np.bincount((cdf * s).astype(np.intp), minlength=s + 1), out=first[1:])
    crowded = np.diff(first) > 1
    idx = (u * s).astype(np.intp)  # b(u), freed by the lookup that rebinds idx
    hit = crowded[idx] if crowded.any() else None
    idx = first[idx]
    idx += cdf[idx] <= u
    if hit is not None:
        idx[hit] = cdf.searchsorted(u[hit], side="right")
    return idx


@dataclass(frozen=True)
class Kernel:
    """A self-adjoint kernel: a symmetric real matrix over a DiscreteSpace.

    The matrix acts on functions f by (Kf)(x) = sum_y w_y K(x,y) f(y),
    i.e. integration against the second variable.
    """

    space: DiscreteSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.n, self.space.n):
            raise DimensionMismatchError(
                f"values shape {v.shape} does not match space size {self.space.n}"
            )
        _require_finite(v, "kernel values")
        if not _exactly_symmetric(v):
            raise AsymmetricMatrixError(
                "Kernel requires an exactly symmetric matrix; "
                "use kernel_from_matrix to symmetrize noisy input"
            )
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n(self) -> int:
        return self.space.n


def _exactly_symmetric(v: np.ndarray) -> bool:
    """np.array_equal(v, v.T) for a finite square v, one pair of
    SYMMETRY_TILE tiles at a time: each tile below the diagonal against
    the transpose of its mirror tile above it."""
    t = SYMMETRY_TILE
    for i in range(0, v.shape[0], t):
        for j in range(0, i + 1, t):
            if not np.array_equal(v[i:i + t, j:j + t], v[j:j + t, i:i + t].T):
                return False
    return True


def _symmetrize_in_place(v: np.ndarray) -> float:
    """Overwrite v, a writable square float array, with (v + v^T) / 2 one
    pair of mirror SYMMETRY_TILE tiles at a time, and return the skew
    max |v - v^T| it removed. Float addition commutes, so the result is
    exactly symmetric. A pair that is equal already is left unwritten, as
    averaging it could only overflow."""
    t = SYMMETRY_TILE
    skew = 0.0
    for i in range(0, v.shape[0], t):
        for j in range(i, v.shape[0], t):
            upper, lower = v[i:i + t, j:j + t], v[j:j + t, i:i + t].T
            if np.array_equal(upper, lower):
                continue
            tile = upper - lower
            skew = max(skew, float(np.max(np.abs(tile, out=tile))))
            tile = upper + lower
            tile /= 2.0
            upper[...] = tile
            lower[...] = tile
    return skew


def kernel_from_matrix(values, weights=None) -> Kernel:
    """Build a Kernel from a square matrix: skew up to 1e-12 is absorbed
    silently, up to 1e-9 with a warning, anything larger is rejected.
    Weights default to uniform."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {v.shape}")
    v = _symmetrize_input(v)
    space = DiscreteSpace.uniform(v.shape[0]) if weights is None else DiscreteSpace(weights)
    return Kernel(space, v)


def _symmetrize_input(v: np.ndarray) -> np.ndarray:
    """The skew ladder for a square matrix read from outside: skew up to
    SILENT_SKEW is averaged away silently, up to HARD_SKEW with a
    SymmetrizedWarning, anything larger raises AsymmetricMatrixError."""
    _require_finite(v, "matrix entries")  # before the skew test, which NaN passes
    v = v.copy()  # keeps the caller's array writable and the result its own
    skew = _symmetrize_in_place(v)
    if skew > HARD_SKEW:
        raise AsymmetricMatrixError(
            f"matrix skew {skew:.3e} exceeds hard tolerance {HARD_SKEW}"
        )
    if skew > SILENT_SKEW:
        warnings.warn(
            f"symmetrizing input with skew {skew:.3e}", SymmetrizedWarning
        )
    return v


def symmetric_kernel(values: np.ndarray, space: DiscreteSpace) -> Kernel:
    """Internal constructor: symmetrize float noise without the warning
    ladder, in place, so values must be a writable float array that the
    kernel may keep."""
    _symmetrize_in_place(values)
    return Kernel(space, values)


@dataclass(frozen=True)
class StepFunction:
    """A kernel constant on the blocks of a finite partition of the atoms.

    part_of[a] is the 0-based part index of atom a; block is the s-by-s
    symmetric matrix of block values; part_weights[p], the total weight of
    part p, is derived from the atom weights.
    """

    space: DiscreteSpace
    part_of: np.ndarray
    block: np.ndarray
    part_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.part_of, dtype=int)
        block = np.asarray(self.block, dtype=float)
        if labels.shape != (self.space.n,):
            raise DimensionMismatchError("part_of must assign a label to every atom")
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise DimensionMismatchError("block must be s x s")
        s = block.shape[0]
        _require_finite(block, "block values")
        if labels.min() < 0 or labels.max() >= s:
            raise EmptyPartError("part labels must lie in [0, s)")
        if not _exactly_symmetric(block):
            raise AsymmetricMatrixError("block matrix must be exactly symmetric")
        pw = np.bincount(labels, weights=self.space.weights, minlength=s)
        if np.any(pw == 0.0):
            raise EmptyPartError("every part must contain at least one atom")
        object.__setattr__(self, "part_of", _frozen(labels, dtype=int))
        object.__setattr__(self, "block", _frozen(block))
        object.__setattr__(self, "part_weights", _frozen(pw))

    @property
    def parts(self) -> int:
        return self.block.shape[0]


def expand_step(sf: StepFunction) -> Kernel:
    """Evaluate a step function on the atom grid: K[a,b] = block[p(a), p(b)]."""
    return Kernel(sf.space, sf.block[np.ix_(sf.part_of, sf.part_of)])


def canonical_parts(space: DiscreteSpace, part_of) -> tuple[np.ndarray, np.ndarray]:
    """The labels of part_of mapped to 0..s-1 in sorted order, and the
    weight of each part."""
    labels_raw = np.asarray(part_of, dtype=int)
    if labels_raw.shape != (space.n,):
        raise DimensionMismatchError("part_of must label every atom")
    uniq, labels = np.unique(labels_raw, return_inverse=True)
    return labels, np.bincount(labels, weights=space.weights, minlength=uniq.size)


def quotient_average(kernel: Kernel, part_of) -> StepFunction:
    """Average a kernel over the block pairs of a partition.

    block[p][q] = sum_{a in p, b in q} w_a w_b K[a,b] / (W_p W_q).
    Labels are canonicalized to 0..s-1 in sorted order. Blocks on which the
    kernel is exactly constant short-circuit to that constant, so composing
    with expand_step is the identity on step-function kernels.
    """
    labels, pw = canonical_parts(kernel.space, part_of)
    s = pw.size
    w = kernel.space.weights
    groups = [np.flatnonzero(labels == p) for p in range(s)]
    block = np.empty((s, s))
    for p in range(s):
        for q in range(p + 1):
            sub = kernel.values[np.ix_(groups[p], groups[q])]
            first = sub.flat[0]
            if np.all(sub == first):
                block[p, q] = block[q, p] = first
            else:
                num = w[groups[p]] @ sub @ w[groups[q]]
                block[p, q] = block[q, p] = num / (pw[p] * pw[q])
    return StepFunction(kernel.space, labels, block)


def apply_permutation(kernel: Kernel, perm) -> Kernel:
    """Relabel atoms: result[x,y] = K[g(x), g(y)] for a weight-preserving g."""
    g = _check_permutation(kernel.space, perm)
    return Kernel(kernel.space, kernel.values[np.ix_(g, g)])


def weighted_norm(kernel: Kernel, which: str) -> float:
    """Weighted L1, L2 or Linf norm of the kernel seen as a function on V x V."""
    w = kernel.space.weights
    v = kernel.values
    if which == "L1":
        return float(w @ np.abs(v) @ w)
    if which == "L2":
        return float(math.sqrt(max(0.0, w @ (v * v) @ w)))
    if which == "Linf":
        return float(np.max(np.abs(v)))
    raise ValueError(f"unknown norm {which!r}; expected 'L1', 'L2' or 'Linf'")


def weighted_mean(kernel: Kernel) -> float:
    """Edge density: the weighted average of all kernel entries."""
    w = kernel.space.weights
    return float(w @ kernel.values @ w)


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph on vertices 1..k given by its edge set."""

    k: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("vertex count must be positive")
        canon = set()
        for e in self.edges:
            u, v = e
            if not (1 <= u <= self.k and 1 <= v <= self.k):
                raise ValueError(f"edge {e} references a vertex outside 1..{self.k}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def cycle_graph(k: int) -> SimpleGraph:
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    return SimpleGraph(k, frozenset((i, i % k + 1) for i in range(1, k + 1)))


def path_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, frozenset((i, i + 1) for i in range(1, k)))


def complete_graph(k: int) -> SimpleGraph:
    return SimpleGraph(
        k, frozenset((i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1))
    )


def builtin_graph(name: str) -> SimpleGraph:
    """Template graph by name: 'edge' (path_graph(2)), 'triangle'
    (cycle_graph(3)), 'K4' (complete_graph(4)), 'path_k' or 'cycle_k'. An
    unknown or invalid name raises ValueError."""
    fixed = {"edge": (path_graph, 2), "triangle": (cycle_graph, 3), "K4": (complete_graph, 4)}
    if name in fixed:
        build, k = fixed[name]
        return build(k)
    m = re.fullmatch(r"(path|cycle)_(\d+)", name)
    if m is None:
        raise ValueError(f"unknown template graph {name!r}")
    return (path_graph if m.group(1) == "path" else cycle_graph)(int(m.group(2)))


def disjoint_union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    shifted = frozenset((u + g1.k, v + g1.k) for (u, v) in g2.edges)
    return SimpleGraph(g1.k + g2.k, g1.edges | shifted)


@dataclass(frozen=True)
class PermutationAction:
    """A group of weight-preserving atom permutations given by generators."""

    space: DiscreteSpace
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(
            _frozen(_check_permutation(self.space, g), dtype=int) for g in self.generators))


def _check_permutation(space: DiscreteSpace, perm) -> np.ndarray:
    """perm as an int array, once it is checked to be a weight-preserving
    permutation of the atoms of space; WeightMismatchError otherwise."""
    g = np.asarray(perm, dtype=int)
    if g.shape != (space.n,) or not np.array_equal(np.sort(g), np.arange(space.n)):
        raise WeightMismatchError("permutation is not a bijection on the atoms")
    w = space.weights
    if np.max(np.abs(w[g] - w)) > WEIGHT_SUM_TOL:
        raise WeightMismatchError("permutation does not preserve the atom weights")
    return g


def _largest_move(action: PermutationAction, values: np.ndarray) -> float:
    """max over the generators g of max |values[g(x), g(y)] - values[x, y]|,
    for values on the atoms the action permutes; 0.0 without generators."""
    return max((float(np.max(np.abs(values[np.ix_(g, g)] - values)))
                for g in action.generators), default=0.0)
