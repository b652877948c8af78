"""Distance brackets between step functions under measure-preserving
rearrangement: align both on a common uniform refinement, then search
permutations. Exact minimum by full enumeration on small refinements,
greedy matching plus local-swap descent otherwise; cut-norm lower bounds
come from homomorphism-density gaps through the counting lemma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DiscreteSpace,
    Kernel,
    SimpleGraph,
    StepFunction,
    _frozen,
    builtin_graph,
)
from .cutnorm import DEFAULT_EXACT_LIMIT, _best_signs, _proven_upper, check_exact_limit
from .errors import IrrationalWeightsError, ParameterError
from .homdensity import hom_density_step

EXACT_PERMUTATION_LIMIT = 8
DEFAULT_MAX_ATOMS = 64
_DESCENT_STARTS = 16  # swap-descent starts: the profile match, then random permutations
_DESCENT_ROUNDS = 40  # improving transpositions taken per start, at most
GRID_TOL = 1e-9
_LOWER_BOUND_GRAPHS: tuple[SimpleGraph, ...] = tuple(
    builtin_graph(name) for name in ("edge", "path_3", "triangle", "cycle_4", "cycle_5", "K4")
)


@dataclass(frozen=True)
class DistanceBracket:
    lower: float
    upper: float
    norm: str  # L1 | L2 | cut
    alignment: np.ndarray  # permutation of the refined atoms applied to sf1
    refinement_size: int
    regime: str  # exact | heuristic
    lower_certificate: str  # none | counting-lemma

    def __post_init__(self):
        object.__setattr__(self, "alignment", _frozen(self.alignment, dtype=int))


def _grid_size(parts_weights: list[np.ndarray], max_atoms: int) -> int:
    """Smallest m <= max_atoms putting every part weight on the 1/m grid."""
    if not max_atoms >= 1:
        raise ParameterError(f"max_atoms must be at least 1, got {max_atoms}")
    for m in range(1, max_atoms + 1):
        ok = True
        for pw in parts_weights:
            counts = pw * m
            if np.max(np.abs(counts - np.rint(counts))) > GRID_TOL * m:
                ok = False
                break
        if ok:
            return m
    raise IrrationalWeightsError(
        f"part weights are not multiples of 1/m for any m <= {max_atoms}"
    )


def _expand_on_grid(sf: StepFunction, m: int) -> np.ndarray:
    """Step-function values on a uniform m-atom grid: part p occupies
    round(W_p * m) consecutive atoms, in part order."""
    counts = np.rint(sf.part_weights * m).astype(int)
    labels = np.repeat(np.arange(sf.parts), counts)
    return sf.block[np.ix_(labels, labels)]


def common_refinement(
    sf1: StepFunction, sf2: StepFunction, max_atoms: int = DEFAULT_MAX_ATOMS
) -> tuple[DiscreteSpace, Kernel, Kernel]:
    """A uniform-weight space on which both step functions expand exactly."""
    m = _grid_size([sf1.part_weights, sf2.part_weights], max_atoms)
    space = DiscreteSpace.uniform(m)
    return space, Kernel(space, _expand_on_grid(sf1, m)), Kernel(space, _expand_on_grid(sf2, m))


# ---------------------------------------------------------------------------
# norm evaluation helpers (uniform weights on the refined grid)


def _norms(diffs: np.ndarray, space: DiscreteSpace, norm: str, exact_limit: int) -> np.ndarray:
    """Norm of every difference matrix in a (batch, m, m) stack; for the cut
    norm, the exact value up to max(exact_limit, 8) atoms and the proven
    spectral/L1 upper bound of each matrix above it."""
    m = space.n
    if norm == "L1":
        return np.abs(diffs).sum(axis=(1, 2)) / (m * m)
    if norm == "L2":
        return np.sqrt((diffs * diffs).sum(axis=(1, 2)) / (m * m))
    if m <= max(exact_limit, EXACT_PERMUTATION_LIMIT):
        # max_g sum_x |(D diff D g)_x| over half the sign vectors
        return _best_signs(diffs / (m * m))[0]
    return np.array([_proven_upper(Kernel(space, diff))[0] for diff in diffs])


def _apply(v: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return v[perm][:, perm]


def _greedy_profile_match(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Pair off the atoms of both kernels in sorted row-profile order."""
    def order(v):
        return np.lexsort(np.vstack([np.sort(v, axis=1).T, v.sum(axis=1)]))

    o1, o2 = order(v1), order(v2)
    perm = np.empty(v1.shape[0], dtype=int)
    perm[o2] = o1
    return perm


def _descent_objective(diff: np.ndarray, norm: str) -> float:
    """Cheap surrogate steering the local search: the true norm for L1/L2,
    the L2 norm for cut (which dominates it); the reported upper bound is
    always re-evaluated honestly on the final alignment."""
    if norm == "L1":
        return float(np.abs(diff).mean())
    return float(np.sqrt((diff * diff).mean()))


def _swap_gains(a, b, i, j, f):
    """Change of sum f(a - b) when rows and columns i[t] and j[t] of the
    symmetric a trade places, for each pair t: O(m) per pair. Only rows and
    columns i and j of the difference change: the columns mirror the rows,
    the diagonal entries (i, i) and (j, j) take each other's a-value, and
    (i, j) keeps its value. Every summed term is the difference of a new
    and an old f-value."""
    t = np.arange(i.size)
    ai, aj, bi, bj = a[i], a[j], b[i], b[j]
    r = f(aj - bi) + f(ai - bj) - f(ai - bi) - f(aj - bj)
    r[t, i] = r[t, j] = 0.0
    aii, ajj, bii, bjj = ai[t, i], aj[t, j], bi[t, i], bj[t, j]
    return 2.0 * r.sum(axis=1) + f(ajj - bii) + f(aii - bjj) - f(aii - bii) - f(ajj - bjj)


def _swap_descent(v1, v2, norm, perm, rng):
    """First-improvement local search over transpositions of the alignment
    of the symmetric v1 to the symmetric v2.

    Each round draws one random order of the m(m-1)/2 transpositions and
    takes the first whose objective, _descent_objective(_apply(v1, cand) -
    v2), beats best - 1e-15. Only pairs that cannot pass are skipped, so
    the pair taken, the alignment and best are those of evaluating every
    pair in turn:
    - a pair of atoms with equal rows of v1 leaves the aligned matrix, and
      so the objective, as it is;
    - a pair whose estimated sum of f(diff) after the swap (the current
      sum plus _swap_gains) exceeds q, the sum the threshold allows, by
      more than a rounding margin. Both the estimate and the exact
      evaluation add (and the gain also subtracts) nonnegative f-values of
      the entries of the two differences, so each errs by at most about
      (N + m) u times the current sum plus the candidate's, N = m*m and
      u = 2**-53. A pair that passes has a sum below q (1 + N u), so the
      margin 8 (N + m + 16) u (current sum + q), plus an underflow
      allowance, covers both errors.
    """
    m = perm.size
    rows, cols = np.triu_indices(m, 1)  # the pairs (i, j), i < j, in row order
    f = np.abs if norm == "L1" else np.square
    _, kind = np.unique(v1, axis=0, return_inverse=True)
    a = _apply(v1, perm)
    diff = a - v2
    best = _descent_objective(diff, norm)
    for _ in range(_DESCENT_ROUNDS):
        order = rng.permutation(rows.size)  # the stream a shuffled list of the pairs draws
        threshold = best - 1e-15
        if not threshold > 0.0:  # no objective is negative
            break
        total = float(f(diff).sum())
        allowed = m * m * (threshold if norm == "L1" else threshold * threshold)
        limit = allowed + 2.0**-50 * (m * m + m + 16) * (total + allowed) + 2.0**-1000
        improved = False
        start, size = 0, 32
        while start < order.size and not improved:
            block = order[start : start + size]
            start, size = start + size, 2 * size
            i, j = rows[block], cols[block]
            keep = total + _swap_gains(a, v2, i, j, f) <= limit
            for t in np.flatnonzero(keep & (kind[perm[i]] != kind[perm[j]])):
                cand = perm.copy()
                cand[i[t]], cand[j[t]] = cand[j[t]], cand[i[t]]
                aligned = _apply(v1, cand)
                cand_diff = aligned - v2
                val = _descent_objective(cand_diff, norm)
                if val < threshold:
                    best, perm, a, diff = val, cand, aligned, cand_diff
                    improved = True
                    break
        if not improved:
            break
    return perm


def _density_gap_lower(sf1: StepFunction, sf2: StepFunction) -> float:
    """Counting-lemma lower bound on the cut distance.

    Swap the kernel on the edges of G one at a time: each swap changes the
    density by an integral of (U - W)(x, y) f(x) g(y), where f and g hold
    the other edge factors at x and at y and the factors touching neither
    (G has no multiple edges), so |f g| <= m^(|E|-1) with m = max(1,
    sup|U|, sup|W|). Hence |t(G, U) - t(G, W)| <= |E| m^(|E|-1)
    ||U - W||_cut in the sign-vector cut norm (Lovasz, Large Networks and
    Graph Limits, Lemma 10.23, for m = 1). Densities are invariant under
    rearrangement, so the largest gap over a fixed graph family, divided by
    that factor, bounds the cut distance from below.
    """
    m = max(1.0, float(np.max(np.abs(sf1.block))), float(np.max(np.abs(sf2.block))))
    best = 0.0
    for g in _LOWER_BOUND_GRAPHS:
        gap = abs(hom_density_step(g, sf1).value - hom_density_step(g, sf2).value)
        e = g.edge_count
        best = max(best, gap / (e * m ** (e - 1)))
    return best


def delta_bracket(sf1: StepFunction, sf2: StepFunction, norm: str = "cut", *,
                  max_atoms: int = DEFAULT_MAX_ATOMS, exact_limit: int = DEFAULT_EXACT_LIMIT,
                  seed: int = 0) -> DistanceBracket:
    """Bracket the rearrangement distance inf_psi ||W1^psi - W2||_norm.

    The candidate alignments of the common refinement are every
    permutation up to 8 atoms and, past 8, the swap descents of 16 starts
    (seed draws only the starts); one loop scores them all and keeps the
    first least norm as the upper bound. The cut norm of an aligned
    difference is exact up to max(exact_limit, 8) atoms and above it the
    spectral/L1 upper bound of cutnorm_heuristic. The lower bound is 0 for
    L1/L2 and the counting-lemma bound for the cut norm.
    """
    if norm not in ("L1", "L2", "cut"):
        raise ParameterError(f"norm must be 'L1', 'L2' or 'cut', got {norm!r}")
    check_exact_limit(exact_limit)  # also where the exact regime never reads it
    space, k1, k2 = common_refinement(sf1, sf2, max_atoms)
    m = space.n
    v1, v2 = k1.values, k2.values

    if m <= EXACT_PERMUTATION_LIMIT:
        perms = np.array(list(itertools.permutations(range(m))), dtype=int)
        batches = (perms[off : off + 4096] for off in range(0, perms.shape[0], 4096))
        regime = "exact"
    else:
        rng = np.random.default_rng(seed)
        starts = [_greedy_profile_match(v1, v2)]
        starts += [rng.permutation(m) for _ in range(_DESCENT_STARTS - 1)]
        # the descent runs at the scale where max |v| is in [0.5, 1): the
        # power-of-two scaling is exact, and the 1e-15 of its threshold then
        # means the same for every overall scale of the pair
        _, exponent = np.frexp(max(np.abs(v1).max(), np.abs(v2).max()))
        s1, s2 = np.ldexp(v1, -exponent), np.ldexp(v2, -exponent)
        # one alignment at a time, so a cut norm holds one sign table
        batches = (_swap_descent(s1, s2, norm, np.asarray(start, dtype=int), rng)[None]
                   for start in starts)
        regime = "heuristic"

    best, best_perm = math.inf, None
    for batch in batches:
        vals = _norms(v1[batch[:, :, None], batch[:, None, :]] - v2, space, norm, exact_limit)
        i = int(np.argmin(vals))
        if best_perm is None or vals[i] < best:  # the first least value
            best, best_perm = float(vals[i]), batch[i].copy()

    if norm == "cut":
        lower = _density_gap_lower(sf1, sf2)
        cert = "counting-lemma"
    else:
        lower = 0.0
        cert = "none"
    return DistanceBracket(
        lower=min(lower, best),  # float noise must not invert the bracket
        upper=best,
        norm=norm,
        alignment=best_perm,
        refinement_size=m,
        regime=regime,
        lower_certificate=cert,
    )
