"""Constructive finite analogue of the spectral regularity decomposition
M = S + E + R, eigenvector level-set clustering into step functions, and
the symmetry-preserving variant with automorphism search.

The decomposition realizes the energy-increment construction: probe a
decreasing threshold sequence t_{j+1} = min(F(t_j, eps), t_j/2), snapped to
spectral-gap midpoints, and stop at the first consecutive pair whose energy
increment is at most eps^2. Since the total energy of a kernel with
weighted L2 norm at most 1 is at most 1, a qualifying pair appears within
ceil(1/eps^2) + 1 steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Kernel,
    PermutationAction,
    StepFunction,
    _largest_move,
    expand_step,
    weighted_norm,
)
from .cutnorm import CutNormEstimate, cutnorm_bracket
from .errors import (
    EpsilonViolatedWarning,
    GridOverflowError,
    NonDecreasingF,
    ParameterError,
    TooLargeError,
)
from .spectral import (
    SpectralDecomposition,
    _split_check,
    _truncation,
    decompose,
    gap_midpoints,
    tail_truncate,
    truncation_quotient,
)

ADDITIVITY_TOL = 1e-9  # sup-norm bound on S + E + R - M
DEFAULT_GRID_CAP = 1e6
DEFAULT_AUT_LIMIT = 64
ENTRY_CLASS_TOL = 1e-12


# ---------------------------------------------------------------------------
# threshold selection


@dataclass(frozen=True)
class ThresholdSchedule:
    lam: float
    lam_next: float
    delta_floor: float  # the last probe taken
    probes: tuple


def _snap_down(t: float, midpoints: list[float]) -> float:
    """Largest gap midpoint at most t; t itself when none lies below (then
    t sits under every nonzero cluster and is already cluster-safe)."""
    below = [m for m in midpoints if m <= t]
    return max(below) if below else t


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:  # NaN too
        raise ParameterError(f"eps must be positive and finite, got {eps}")


def check_max_parts(max_parts: float) -> None:
    """Raise ParameterError unless max_parts >= 1 (NaN fails): the cap on
    cluster_eigenvectors' step bound, checked also by the functions that
    run a decomposition before the clustering reads it."""
    if not max_parts >= 1:
        raise ParameterError(f"max_parts must be at least 1, got {max_parts}")


def _threshold_schedule(dec: SpectralDecomposition, F, eps: float) -> ThresholdSchedule:
    total_energy = float(np.sum(dec.eigenvalues**2))
    if total_energy > 1.0 + 1e-9:
        raise ValueError(
            f"kernel must have weighted L2 norm at most 1 (energy {total_energy:.6f})"
        )
    mids = gap_midpoints(dec)
    j_max = math.ceil(1.0 / eps**2) + 1

    # eigenvalues within the cluster tolerance of zero are solver noise:
    # probing into them would hold R to an F of that noise, so the probes
    # stop under the other eigenvalues, and a probe that F drives into the
    # noise goes under it rather than split its cluster
    noise = dec.cluster_tolerance
    abs_lam = np.abs(dec.eigenvalues)
    full_rank = dec.nonzero_rank
    noise_top = float(abs_lam[full_rank:].max(initial=0.0))
    probes = [_snap_down(1.0, mids)]
    f_prev = None
    while len(probes) <= j_max:
        t = probes[-1]
        f_val = float(F(t, eps))
        if f_val <= 0.0:
            raise NonDecreasingF(f"F({t!r}, {eps!r}) = {f_val!r} is not positive")
        if f_prev is not None and f_val > f_prev + 1e-12:
            raise NonDecreasingF(
                "F increased along the decreasing threshold sequence: "
                f"F({t!r}) = {f_val!r} > {f_prev!r}"
            )
        f_prev = f_val
        probe = _snap_down(min(f_val, t / 2.0), mids)
        probes.append(min(probe, float(abs_lam.min()) / 2.0) if probe < noise_top else probe)
        if dec.rank_above(max(t, noise)) == full_rank:  # flat energy below t: (t, next) qualifies
            break

    energies = [dec.energy_above(t) for t in probes]
    pair = None
    for j in range(len(probes) - 1):
        if energies[j + 1] - energies[j] <= eps**2:
            pair = j
            break
    if pair is None:  # cannot happen for energy <= 1; guards rounding at the boundary
        pair = len(probes) - 2
    return ThresholdSchedule(
        lam=probes[pair],
        lam_next=probes[pair + 1],
        delta_floor=probes[-1],
        probes=tuple(probes),
    )


def choose_threshold(dec: SpectralDecomposition, F, eps: float) -> tuple[float, float]:
    """First consecutive snapped thresholds (lam, lam') whose energy
    increment is at most eps^2, with lam' <= F(lam, eps). eps must be
    positive and finite."""
    _check_eps(eps)
    sched = _threshold_schedule(dec, F, eps)
    return sched.lam, sched.lam_next


# ---------------------------------------------------------------------------
# the decomposition


@dataclass(frozen=True)
class Certificates:
    E_l2: float
    R_cut: CutNormEstimate
    SE_linf: float
    clamped: bool
    epsilon_violated: bool


@dataclass(frozen=True)
class RegularityDecomposition:
    """M = S + E + R with its thresholds and certificates. delta_floor is the
    last threshold probed: the one after the first probe under every |lambda|
    above the cluster tolerance, or after ceil(1/eps^2) + 1 steps if that
    comes first. spectral is the eigendecomposition of M that S and E were
    cut from; reuse it."""

    S: Kernel
    E: Kernel
    R: Kernel
    lam: float
    lam_next: float
    delta_floor: float
    certificates: Certificates
    spectral: SpectralDecomposition


def regularity_decompose(
    kernel: Kernel,
    F,
    eps: float,
) -> RegularityDecomposition:
    """Split M into the structured part S = [M]_lam, the L2-small band
    E = [M]_lam' - [M]_lam, and the cut-norm-small tail R = M - [M]_lam'.

    If S + E exceeds 1 entrywise it is clamped to [-1, 1]; the clamp excess
    then lands in R so that S + E + R = M stays exact, and the run is
    flagged. A clamp that pushes ||E||_2 past eps is reported through an
    EpsilonViolatedWarning and the certificate, never hidden. eps must be
    positive and finite.

    S + E is formed first, in one buffer, and R from it; R is bracketed
    before S and E are formed, and the buffer then becomes E in place. So
    the run holds at most M, its eigenvectors, S, E, R and one n x n work
    buffer at a time, beside the working set of R's radius proof.
    """
    _check_eps(eps)
    if weighted_norm(kernel, "Linf") > 1.0 + 1e-12:
        raise ValueError("kernel entries must lie in [-1, 1]")
    dec = decompose(kernel)
    sched = _threshold_schedule(dec, F, eps)
    # S + E = clip([M]_lam') in the one buffer that later becomes E
    se = _truncation(dec, sched.lam_next)
    top = float(np.max(np.abs(se)))
    clamped = top > 1.0
    if clamped:
        np.clip(se, -1.0, 1.0, out=se)
    se_linf = min(top, 1.0)  # the clamp's max |S + E|
    r_kernel = Kernel(kernel.space, kernel.values - se)
    # before S and E exist: R's radius proof is the run's largest working set
    r_cut = cutnorm_bracket(r_kernel)
    s_kernel = tail_truncate(dec, sched.lam)
    e_kernel = Kernel(kernel.space, np.subtract(se, s_kernel.values, out=se))
    e_l2 = weighted_norm(e_kernel, "L2")
    violated = e_l2 > eps
    if violated:
        warnings.warn(
            f"clamped/banded E has L2 norm {e_l2:.6f} > eps {eps}",
            EpsilonViolatedWarning,
        )
    certs = Certificates(
        E_l2=e_l2,
        R_cut=r_cut,
        SE_linf=se_linf,
        clamped=clamped,
        epsilon_violated=violated,
    )
    return RegularityDecomposition(
        S=s_kernel,
        E=e_kernel,
        R=r_kernel,
        lam=sched.lam,
        lam_next=sched.lam_next,
        delta_floor=sched.delta_floor,
        certificates=certs,
        spectral=dec,
    )


# ---------------------------------------------------------------------------
# eigenvector clustering


@dataclass(frozen=True)
class ClusteringResult:
    step: StepFunction
    step_count_bound: float
    rank: int


def cluster_eigenvectors(
    dec: SpectralDecomposition,
    lam: float,
    eps: float,
    max_parts: float = DEFAULT_GRID_CAP,
) -> ClusteringResult:
    """Cluster the atoms by the level sets of the retained eigenvectors.

    The retained part G = [M]_lam is a rank-k sum with |lambda_i| <= m and
    ||f_i||_inf <= m. Binning every eigenvector into B = floor(20km^3/eps)
    equal cells over [-m, m] keeps the within-part oscillation of G below
    eps and the part count below (20km^3/eps)^k. eps must be positive and
    finite, lam positive and max_parts at least 1.
    """
    _check_eps(eps)
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam}")
    check_max_parts(max_parts)
    k = _split_check(dec, lam)
    if k == 0:  # zero retained part: one part, value zero
        return ClusteringResult(truncation_quotient(dec, lam, np.zeros(dec.n, dtype=int)), 1.0, 0)
    vecs = dec.eigenvectors[:, :k]
    lams = dec.eigenvalues[:k]
    m = max(float(np.max(np.abs(vecs))), float(np.max(np.abs(lams))))
    try:
        bound = (20.0 * k * m**3 / eps) ** k
    except OverflowError:  # past the float range, e.g. k in the hundreds
        bound = math.inf
    if bound > max_parts:
        raise GridOverflowError(
            f"nominal step bound {bound:.3e} exceeds the cap {max_parts:.3e}; "
            "raise eps or the cap"
        )
    cells = max(1, math.floor(20.0 * k * m**3 / eps))
    width = 2.0 * m / cells
    idx = np.minimum(np.floor((vecs + m) / width).astype(int), cells - 1)  # vecs + m >= 0
    _, labels = np.unique(idx, axis=0, return_inverse=True)
    labels = labels.ravel().astype(int)

    sf = truncation_quotient(dec, lam, labels)
    return ClusteringResult(step=sf, step_count_bound=bound, rank=k)


# ---------------------------------------------------------------------------
# automorphism search


def _entry_classes(values: np.ndarray) -> np.ndarray:
    """Map matrix entries to integer classes, merging values within
    ENTRY_CLASS_TOL."""
    flat = values.ravel()
    order = np.argsort(flat, kind="stable")
    sorted_vals = flat[order]
    classes = np.empty(flat.size, dtype=int)
    classes[order] = np.concatenate(([0], np.cumsum(np.diff(sorted_vals) > ENTRY_CLASS_TOL)))
    return classes.reshape(values.shape)


def _refine(entry_cls: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Colour refinement until the partition is stable. Each round numbers
    the distinct rows (colour, sorted entry-class x neighbour-colour codes)
    in sorted byte order, so an automorphism that carries one colouring
    onto another carries their refinements onto each other, colour numbers
    included. Colours must lie in 0..n."""
    n = colors.size
    cells = np.unique(colors).size
    while True:
        rows = np.column_stack((colors, np.sort(entry_cls * (n + 1) + colors, axis=1)))
        _, colors = np.unique(rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel(),
                              return_inverse=True)
        if colors.max() + 1 == cells:
            return colors
        cells = colors.max() + 1


def _individualise(colors: np.ndarray, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = colors.size
    return out


def _search_mapping(entry_cls: np.ndarray, left: np.ndarray, right: np.ndarray):
    """The lexicographically first automorphism carrying the refined
    colouring left onto the colouring right, or None. Refines right, then
    tries the images of the first vertex in a non-singleton cell in
    increasing order; refinement only drops images that no automorphism
    takes."""
    right = _refine(entry_cls, right)
    sizes = np.bincount(left)
    if not np.array_equal(sizes, np.bincount(right)):
        return None
    open_ = np.flatnonzero(sizes[left] > 1)
    if open_.size == 0:
        mapping = np.empty(left.size, dtype=int)
        mapping[np.argsort(left)] = np.argsort(right)
        return mapping if np.array_equal(entry_cls[np.ix_(mapping, mapping)], entry_cls) else None
    v = open_[0]
    child = _refine(entry_cls, _individualise(left, v))
    for img in np.flatnonzero(right == left[v]):
        found = _search_mapping(entry_cls, child, _individualise(right, img))
        if found is not None:
            return found
    return None


def _orbit(point: int, gens: list[np.ndarray], n: int) -> set[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        v = frontier.pop()
        for g in gens:
            u = int(g[v])
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def automorphisms(kernel: Kernel) -> PermutationAction:
    """Generators of the full automorphism group of the kernel.

    Builds a stabilizer chain over the natural base 0, 1, ..., n-1. At level
    i every image of i outside the known orbit that keeps the colour of i,
    once 0..i-1 are individualised and refined, is probed by an exhaustive
    individualise-and-refine search; the first automorphism of each coset
    found joins the generators, so they form a strong generating set, not
    just a subgroup. Raises TooLargeError above DEFAULT_AUT_LIMIT atoms.
    """
    n = kernel.n
    if n > DEFAULT_AUT_LIMIT:
        raise TooLargeError(f"n={n} exceeds the automorphism search limit {DEFAULT_AUT_LIMIT}")
    entry_cls = _entry_classes(kernel.values)
    weight_cls = _entry_classes(kernel.space.weights.reshape(-1, 1)).ravel()
    # the diagonal carries the weight class too, so entry classes alone
    # decide whether a permutation is an automorphism
    np.fill_diagonal(entry_cls, np.diagonal(entry_cls) * n + weight_cls)
    _, colors = np.unique(np.diagonal(entry_cls), return_inverse=True)
    bases = [_refine(entry_cls, colors)]  # bases[i]: 0..i-1 individualised
    for i in range(n - 1):
        bases.append(_refine(entry_cls, _individualise(bases[-1], i)))

    gens: list[np.ndarray] = []  # all found so far fix 0..i-1
    for i in range(n - 2, -1, -1):
        base = bases[i]
        orbit = _orbit(i, gens, n)
        for target in np.flatnonzero(base == base[i]):
            if int(target) in orbit:
                continue
            found = _search_mapping(entry_cls, bases[i + 1], _individualise(base, target))
            if found is not None:
                gens.append(found)
                orbit = _orbit(i, gens, n)
    return PermutationAction(kernel.space, tuple(gens))


def group_order(action: PermutationAction) -> int:
    """Order of the generated group, assuming the generators form a strong
    set for the natural base 0..n-1 (as produced by automorphisms)."""
    n = action.space.n
    order = 1
    for i in range(n):
        level = [g for g in action.generators if np.array_equal(g[:i], np.arange(i))]
        order *= len(_orbit(i, level, n))
    return order


# ---------------------------------------------------------------------------
# symmetry-preserving decomposition


@dataclass(frozen=True)
class InvarianceReport:
    generators: int
    S_deviation: float  # max over generators of ||g S g^-1 - S||_inf
    T_deviation: float  # same for the clustered step function


def symmetry_decompose(
    kernel: Kernel,
    F,
    eps: float,
    max_parts: float = DEFAULT_GRID_CAP,
):
    """Regularity decomposition plus a step-function form of S and the
    invariance certificates under every automorphism generator.

    S = [M]_lam is exactly stabilized by every automorphism (the eigenspaces
    are invariant subspaces), so its deviation must vanish to solver
    precision; the clustered T deviates by at most twice its approximation
    error, hence stays within eps.
    """
    check_max_parts(max_parts)
    reg = regularity_decompose(kernel, F, eps)
    clustering = cluster_eigenvectors(reg.spectral, reg.lam, eps, max_parts=max_parts)
    action = automorphisms(kernel)
    t_kernel = expand_step(clustering.step)
    report = InvarianceReport(
        generators=len(action.generators),
        S_deviation=_largest_move(action, reg.S.values),
        T_deviation=_largest_move(action, t_kernel.values),
    )
    return reg, clustering, report
