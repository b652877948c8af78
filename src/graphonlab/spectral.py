"""Weighted eigendecomposition, spectral radius, threshold truncation by
eigenvalue clusters, and the spectrum-derived distribution.

The kernel operator (Kf)(x) = sum_y w_y K(x,y) f(y) is self-adjoint in the
weighted inner product (f,g) = sum_v w_v f(v) g(v). Solving the symmetrized
problem D^{1/2} K D^{1/2} (D = diag of weights) and mapping eigenvectors
back through D^{-1/2} yields weight-orthonormal eigenvectors and the exact
reconstruction K = sum_i lambda_i f_i f_i^T.

There are two routes to eigenpairs, and one to eigenvalues alone:

- decompose(kernel): every eigenpair from eigh, checked by reconstruction.
- decompose_leading(kernel, r, t) takes no eigvalsh: it proves that r Ritz
  pairs from block Krylov are all the eigenpairs with |lambda| > t, by
  Rump's Cholesky test on the kernel with those pairs deflated, which also
  bounds every other |lambda|, and certifies the Ritz vectors by the
  Davis-Kahan sin-theta theorem. It returns None when the proof is
  refused, and the caller falls back to decompose.
- spectrum(kernel) reads the eigenvalues alone, from one eigvalsh, and
  keeps no eigenvectors.

operator_norm_upper(kernel) proves a bound on the spectral radius by the
same Cholesky test, on a trial shift from the top Ritz value of a block
Krylov run, or from eigvalsh when that run or its proof is refused. Both
Krylov runs go through one driver, _block_krylov: it checks its Ritz
residual against the caller's target on a schedule set by the residual's
rate of fall, and is refused as soon as that rate predicts more blocks
than its basis cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Kernel, StepFunction, _frozen, _symmetrize_in_place, canonical_parts
from .errors import (
    AllZeroSpectrum,
    EigenSolverError,
    EigenvectorsNotKept,
    ThresholdSplitsCluster,
)

# Multiplicity grouping: floating-point eigenvalues of a degenerate
# eigenspace differ at solver precision, so |lambda| values closer than
# this are treated as one cluster and truncation never separates them.
CLUSTER_TOL_FACTOR = 1e-8

ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9

# Block Krylov bases, in blocks of r + KRYLOV_OVERSAMPLE vectors for r
# leading eigenpairs (RADIUS_BLOCK vectors for the one pair of a radius
# bound), hold at most n / KRYLOV_BASIS_FRACTION vectors. When a run needs
# more, its caller takes eigh (decompose_leading refuses) or eigvalsh
# (operator_norm_upper) instead.
KRYLOV_BASIS_FRACTION = 4
KRYLOV_OVERSAMPLE = 4
KRYLOV_SEED = 0  # the start block is fixed, so reruns give identical bytes

# Radius bounds: the run stops once the top Ritz pair's residual is at most
# RADIUS_SLACK ||A||_F, and the Cholesky certificate is tried RADIUS_SLACK
# relative above the top |Ritz value|.
RADIUS_BLOCK = 8
RADIUS_SLACK = 1e-10

# Leading decompositions: the norm of the deflated bulk is estimated by the
# leading run's Ritz values past the kept ones (on W-random samples of the
# builtin source they read at most 0.01% below the norm at n = 800 and at
# most 0.81% below at n = 1600), and the Rump test is tried BULK_SLACK
# relative above the estimate. The deflation subtracts its product
# DEFLATE_ROWS rows at a time.
BULK_SLACK = 0.02
DEFLATE_ROWS = 256


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a kernel, sorted by decreasing |lambda|.

    eigenvectors[:, i] is the weight-orthonormal eigenvector for
    eigenvalues[i]; clusters is a list of (start, stop) index ranges
    grouping numerically equal |lambda| (within a cluster, positive
    eigenvalues come first so equal signed values are contiguous).

    A spectrum (from spectrum) holds every eigenvalue and no eigenvector.
    A leading decomposition (from decompose_leading) holds only the
    eigenpairs with |lambda| > t; bulk_bound is a proven bound below t on
    the modulus of every other eigenvalue (a threshold below it raises
    EigenvectorsNotKept in every reader), and projector_error the certified
    bound on the Hilbert-Schmidt distance between the projector onto the
    span of the Ritz vectors and the exact spectral projector.
    Both are None on the other routes. decompose's eigenpairs come from
    eigh and pass its reconstruction check.
    """

    kernel: Kernel
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple
    projector_error: float | None = None
    bulk_bound: float | None = None

    @property
    def n(self) -> int:
        return self.kernel.n

    @property
    def cluster_tolerance(self) -> float:
        return _cluster_tolerance(self.eigenvalues)

    def cluster_dimensions(self) -> list[int]:
        return [stop - start for (start, stop) in self.clusters]

    def energy_above(self, threshold: float) -> float:
        """sum of lambda_i^2 over |lambda_i| > threshold."""
        self._check_listed(threshold)
        lam = self.eigenvalues
        return float(np.sum(lam[np.abs(lam) > threshold] ** 2))

    def rank_above(self, threshold: float) -> int:
        self._check_listed(threshold)
        return int(np.sum(np.abs(self.eigenvalues) > threshold))

    def _check_listed(self, threshold: float) -> None:
        """Raise EigenvectorsNotKept for a threshold below a leading
        decomposition's bulk_bound, where some unlisted eigenvalue may lie
        above it: every reader of the eigenvalues above a threshold calls it."""
        if self.bulk_bound is not None and threshold < self.bulk_bound:
            raise EigenvectorsNotKept(
                f"threshold {threshold!r} is below bulk_bound={self.bulk_bound!r}: this "
                "leading decomposition lists no eigenvalue there; use decompose"
            )

    @property
    def nonzero_rank(self) -> int:
        """r = rank_above(cluster_tolerance): the numerically nonzero
        eigenvalues are eigenvalues[:r], and a cluster is one of them when
        its start is below r. The rest are solver noise around an exactly
        zero eigenspace."""
        return self.rank_above(self.cluster_tolerance)


def _cluster_tolerance(sorted_vals: np.ndarray) -> float:
    return CLUSTER_TOL_FACTOR * max(abs(float(sorted_vals[0])), 1.0)


def _cluster_ranges(sorted_vals: np.ndarray) -> tuple:
    """Group consecutive |lambda| values, in spectral order, whose gap is at
    most the cluster tolerance."""
    gaps = -np.diff(np.abs(sorted_vals))
    cuts = [0, *(np.flatnonzero(gaps > _cluster_tolerance(sorted_vals)) + 1).tolist(),
            sorted_vals.size]
    return tuple(zip(cuts[:-1], cuts[1:]))


def _symmetrized(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """D^{1/2} K D^{1/2} and D^{1/2}: the Euclidean-symmetric matrix with
    the spectrum of the kernel operator. Kernel values are exactly symmetric
    and float products commute, so the product is exactly symmetric too."""
    rootw = np.sqrt(kernel.space.weights)
    sym = np.outer(rootw, rootw)
    return np.multiply(kernel.values, sym, out=sym), rootw


def _eigenvalues(sym: np.ndarray) -> np.ndarray:
    """eigvalsh(sym), ascending."""
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigvalsh failed to converge: {exc}") from exc


def decompose(kernel: Kernel) -> SpectralDecomposition:
    """Weighted eigendecomposition with multiplicity clusters: every
    eigenpair from eigh, checked by _validate."""
    sym, rootw = _symmetrized(kernel)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigh failed to converge: {exc}") from exc
    del sym
    order = _spectral_order(vals)
    vals = vals[order]
    vecs = np.take(vecs, order, axis=1)  # C-ordered, unlike vecs[:, order]
    vecs /= rootw[:, None]  # back-transform to weight-orthonormal eigenvectors
    dec = SpectralDecomposition(kernel, _frozen(vals), _frozen(vecs), _cluster_ranges(vals))
    _validate(dec)
    return dec


def spectrum(kernel: Kernel) -> SpectralDecomposition:
    """Every eigenvalue of the kernel, with its clusters, from one eigvalsh
    and no eigenvectors: for reads of the eigenvalues alone, at about half
    the cost of decompose. Truncating it at or above the spectral radius
    gives zero, and below it raises EigenvectorsNotKept."""
    vals = _eigenvalues(_symmetrized(kernel)[0])
    vals = vals[_spectral_order(vals)]
    return SpectralDecomposition(kernel, _frozen(vals), _frozen(np.empty((kernel.n, 0))),
                                 _cluster_ranges(vals))


def decompose_leading(kernel: Kernel, rank: int, above: float) -> SpectralDecomposition | None:
    """The rank eigenpairs of the kernel largest in modulus, proven to be
    every eigenpair with |lambda| > above, or None when the proof is
    refused. eigenvalues holds their rank Ritz values and bulk_bound a
    proven tau < above with |lambda| <= tau for every other eigenvalue. No
    eigvalsh is taken: one short block Krylov run and two Cholesky
    factorisations replace it.

    Let (X, theta) be Ritz pairs of A = D^{1/2} K D^{1/2} and B = A -
    X diag(theta) X^T, the deflated bulk.

    - Rump's test (_certified_radius) on B, deflated in place, proves
      ||B||_2 <= tau, allowing for the rounding of forming A and of the
      product. X diag(theta) X^T has p positive and q negative eigenvalues,
      p + q = rank, so by Weyl's inequality at most p eigenvalues of A lie
      above tau and at most q below -tau.
    - Each interval theta_i +- ||A x_i - theta_i x_i|| / ||x_i|| holds an
      eigenvalue of A. Disjoint, and above `above` in modulus, they hold
      rank distinct ones.

    So with tau < above the eigenvalues in the intervals are all those with
    |lambda| > above. The eigenvectors are certified by _error_bounds, to
    the standard of _validate, with the eigenvalues [theta..., tau] and the
    widest interval radius as margin: a Davis-Kahan gap of min |theta| -
    margin - tau. Rump's test is tried BULK_SLACK above the largest
    modulus of the run's Ritz values but the p largest and q smallest, at
    most ||B||_2 by Cauchy interlacing; when that shift is not below
    `above` the proof is refused before any factorisation.
    """
    n = kernel.n
    if rank == 0:
        return None
    sym, rootw = _symmetrized(kernel)
    fro = _frobenius(sym)
    if not 0.0 < fro < math.inf:
        return None
    margin = _eigvalsh_margin(n, fro)
    # the rounding level eps ||A||_F: an exact eigenvector's residual
    found = _block_krylov(sym, rank, rank + KRYLOV_OVERSAMPLE, margin / (n + 3), margin)
    if found is None:
        return None
    x, theta, ritz = found
    p = int(np.sum(theta > 0))
    s = float(np.max(np.abs(ritz[rank - p:ritz.size - p]))) * (1.0 + BULK_SLACK)
    if not s < above:
        return None
    gram = x.T @ x - np.eye(rank)
    gram_max = float(np.max(np.abs(gram)))
    if not gram_max <= ORTHONORMALITY_TOL:
        return None
    # each column's residual, plus the rounding of the product sym X
    resid = _frobenius((x.T @ sym).T - x * theta, axis=0)
    resid += margin * np.linalg.norm(x, axis=0)
    radius = resid / math.sqrt(1.0 - gram_max) * (1.0 + 1e-6)
    ascending = np.argsort(theta)
    lo, hi = (theta - radius)[ascending], (theta + radius)[ascending]
    if not (np.all(np.abs(theta) - radius > above) and np.all(lo[1:] > hi[:-1])):
        return None
    u = float(np.finfo(float).eps) / 2
    # forming A (see _eigvalsh_margin) and the product, whose entries are
    # off by at most gamma_{rank+1} (|X| |diag(theta)| |X|^T)_ij
    allowance = (6 * u * fro + (rank + 1) * u / (1 - (rank + 1) * u)
                 * float(np.max(np.abs(theta))) * float(np.sum(x * x)))
    scaled = x * theta
    # the rounded product leaves the two triangles of sym unequal; each
    # entry is within the allowance's entrywise bound, so the proof holds
    # for either triangle, and the factorisations read the upper one
    for start in range(0, n, DEFLATE_ROWS):
        sym[start:start + DEFLATE_ROWS] -= scaled[start:start + DEFLATE_ROWS] @ x.T
    tau = _certified_radius(sym, s, _frobenius(sym), allowance)
    if tau is None or not tau < above:
        return None
    projector, truncation = _error_bounds(_frobenius(resid), float(np.linalg.norm(gram)),
                                          np.append(theta, tau), rank, float(radius.max()))
    if not truncation / _validation_scale(kernel) <= RECONSTRUCTION_TOL:
        return None
    vecs = np.divide(x, rootw[:, None], order="C")  # x is a transpose; C order as in decompose
    return SpectralDecomposition(kernel, _frozen(theta), _frozen(vecs),
                                 _cluster_ranges(theta), projector, tau)


def _spectral_order(vals: np.ndarray) -> np.ndarray:
    """Decreasing |lambda|; within equal |lambda|, positive values first."""
    return np.lexsort((-vals, -np.abs(vals)))


def _eigvalsh_margin(n: int, fro: float) -> float:
    """(n + 3) eps fro, fro = ||sym||_F of an n x n sym: how far an eigvalsh
    eigenvalue of sym, or of the unrounded D^{1/2} K D^{1/2}, may lie from
    an exact one. It is the trial shift above the eigvalsh estimate in
    operator_norm_upper, the residual below which _block_krylov takes a
    stalled run as done, and decompose_leading's allowance for the rounding
    of the product sym X in its Ritz residuals.

    eigvalsh is backward stable: its eigenvalues are exact for sym + E with
    ||E||_2 <= p(n) eps ||sym||_2 <= p(n) eps ||sym||_F, p(n) of order n and
    taken here as n (LAPACK Users' Guide, section 4.7, does not state it).
    Forming sym rounds each entry by at most 3 eps relative, a perturbation
    of 2-norm at most 3 eps ||sym||_F. By Weyl's inequality neither moves an
    eigenvalue by more than its 2-norm.
    """
    return (n + 3) * float(np.finfo(float).eps) * fro


def _frobenius(a: np.ndarray, axis: int | None = None):
    """||a||_F, or given an axis the 2-norms along it, as np.linalg.norm
    takes them; inf only where one overflows. Outside (2^-450, 2^450) the
    squares of the plain norm may underflow or overflow, so there each norm
    is taken on its entries scaled exactly by the power of two bringing
    their max modulus into [1/2, 1)."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, axis=axis)
        if not np.all((2.0**-450 < norm) & (norm < 2.0**450)):
            e = np.frexp(np.max(np.abs(a), axis=axis, keepdims=True))[1]
            norm = np.ldexp(np.linalg.norm(np.ldexp(a, -e), axis=axis), np.squeeze(e, axis))
    return float(norm) if axis is None else norm


def _error_bounds(resid: float, gram_err: float, vals: np.ndarray, r: int,
                  margin: float) -> tuple[float, float]:
    """Davis-Kahan bounds for n x r columns X approximating the eigenvectors
    of a symmetric A for its r eigenvalues largest in modulus.

    vals holds r Ritz values in spectral order, each within margin of an
    exact eigenvalue, then a proven bound on the modulus of every other
    eigenvalue; ||A X - X diag(vals[:r])||_F <= resid and
    ||X^T X - I||_F <= gram_err. Let U span the exact eigenvectors matched
    to vals[:r] and write X = U C + E Z with E spanning the others. Every
    other exact eigenvalue has modulus at most |vals[r]| + margin, so it is
    at least delta = |vals[r-1]| - |vals[r]| - margin away from each of
    vals[:r], and the sin-theta theorem in Frobenius form (Davis & Kahan,
    SIAM J. Numer. Anal. 7, 1970) gives ||Z||_F <= z = resid / delta.
    Expanding in the basis (U, E), with c = sqrt(1 + gram_err) >= ||C||_2,
    ||I - C C^T||_F <= z^2 + gram_err and L = |vals[0]| + margin:

    - projector: ||X X^T - U U^T||_F <= p = 2 c z + 2 z^2 + gram_err;
    - truncation: ||X diag(vals[:r]) X^T - U Lambda U^T||_F <= c resid + L p.

    Both are inf when delta is not positive.
    """
    below = abs(float(vals[r])) if r < vals.size else 0.0
    delta = abs(float(vals[r - 1])) - below - margin
    if not delta > 0:
        return math.inf, math.inf
    z = resid / delta
    c = math.sqrt(1.0 + gram_err)
    projector = 2.0 * c * z + 2.0 * z * z + gram_err
    return projector, c * resid + (abs(float(vals[0])) + margin) * projector


def _krylov_basis(sym: np.ndarray, b: int, blocks: int):
    """Grow an orthonormal block Krylov basis of sym from the fixed start
    block, b vectors at a time with full reorthogonalisation, up to the
    given number of blocks. After each block Q_j it yields (V, H, W): the
    basis so far as rows, H = V A V^T (lower triangle only), and
    W = Q_j A - H_j V, the part of the newest block's product outside the
    basis, H_j being the last rows of H. The caller stops the growth by no
    longer asking for blocks.

    Vectors are kept as rows, and sym being symmetric, the product A Q is
    formed as Q^T A, which runs faster for thin Q. With no block to grow it
    yields nothing and neither draws nor factors a start block.
    """
    if blocks == 0:
        return
    n = sym.shape[0]
    basis = np.empty((blocks * b, n))
    rayleigh = np.zeros((blocks * b, blocks * b))
    start = np.random.default_rng(KRYLOV_SEED).standard_normal((n, b))
    q = np.linalg.qr(start)[0].T
    for j in range(blocks):
        lo, hi = j * b, (j + 1) * b
        basis[lo:hi] = q
        v = basis[:hi]
        w = q @ sym
        h = w @ v.T
        rayleigh[lo:hi, :hi] = h
        w -= h @ v  # the part of A Q_j outside the basis
        yield v, rayleigh[:hi, :hi], w
        q = np.linalg.qr(w.T)[0].T
        # once more against the basis: where A Q_j barely leaves it, the
        # rounding of the first pass is a large part of the new block
        q = np.linalg.qr((q - (q @ v.T) @ v).T)[0].T


def _block_krylov(sym: np.ndarray, r: int, b: int, target: float,
                  margin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Ritz vectors (n x r) and Ritz values, in spectral order, for the r
    eigenvalues of sym largest in modulus: Rayleigh-Ritz on the
    _krylov_basis of b-vector blocks, grown until the Ritz residual is at
    most target, or stalls below margin (the rounding level, see
    _eigvalsh_margin), and every Ritz value of the final basis, ascending.
    None if that takes more blocks than the cap of n / KRYLOV_BASIS_FRACTION
    vectors allows, at once when the cap holds no block.

    A check takes an eigh of the whole Rayleigh matrix, so the residual is
    checked at blocks 0-2 and then on a schedule: the residual falls
    geometrically, and the last two checks give its rate. The next check
    comes half the blocks still needed at that rate ahead, and at every
    block once at most two are left. When the rate predicts more blocks
    than the cap allows, the run is refused there.
    """
    blocks = sym.shape[0] // (KRYLOV_BASIS_FRACTION * b)
    previous, checked, due = math.inf, 0, 0
    for j, (v, rayleigh, w) in enumerate(_krylov_basis(sym, b, blocks)):
        if j < due:
            continue
        theta, y = np.linalg.eigh(rayleigh)
        order = _spectral_order(theta)[:r]
        y = y[:, order]
        # A V y - V y theta = (A Q_j - V h^T) y_j, from the last block alone
        resid = _frobenius(y[-b:].T @ w)
        if resid <= target or previous / 2 < resid <= margin:
            return (y.T @ v).T, theta[order], theta
        due = j + 1
        if j >= 2:  # the step out of the random start block sets no rate
            ahead = _blocks_needed(resid, target, (resid / previous) ** (1.0 / (j - checked)))
            if j + ahead > blocks - 1:
                return None
            due = j + max(1, math.ceil(ahead / 2))
        previous, checked = resid, j
    return None


def _blocks_needed(value: float, target: float, rate: float) -> float:
    """Blocks a quantity falling by the factor rate per block takes to come
    down from value to target; inf when it does not fall."""
    if not 0.0 < rate < 1.0:
        return math.inf
    return math.log(target / value) / math.log(rate)


def _validation_scale(kernel: Kernel) -> float:
    """s = max(1, max|K|): errors are measured on K / s, so a kernel of any
    scale meets the tolerance of |K| <= 1."""
    v = kernel.values
    return max(1.0, float(v.max()), -float(v.min()))


def _validate(dec: SpectralDecomposition) -> None:
    """Reject eigenpairs whose eigenvectors are off weight-orthonormal by
    more than ORTHONORMALITY_TOL (max entry of F^T D F - I), or whose
    reconstruction of K / s, s = _validation_scale, is off by more than
    RECONSTRUCTION_TOL in weighted L2. Each is formed in two n x n work
    buffers, reused in place."""
    # "not err <= tol" so that a NaN error fails the check
    w = dec.kernel.space.weights
    f = dec.eigenvectors
    work = np.multiply(f, w[:, None])
    gram = np.matmul(work.T, f)
    gram[np.diag_indices_from(gram)] -= 1.0
    err = float(np.max(np.abs(gram, out=gram)))
    if not err <= ORTHONORMALITY_TOL:
        raise EigenSolverError(f"weighted orthonormality off by {err:.3e}")
    s = _validation_scale(dec.kernel)
    diff = np.matmul(np.multiply(f, dec.eigenvalues / s, out=work), f.T, out=gram)
    np.subtract(np.divide(dec.kernel.values, s, out=work), diff, out=diff)
    l2 = math.sqrt(float(w @ np.square(diff, out=diff) @ w))
    if not l2 <= RECONSTRUCTION_TOL:
        raise EigenSolverError(f"spectral reconstruction off by {l2:.3e}")


def _split_check(dec: SpectralDecomposition, threshold: float) -> int:
    """Number of leading eigenpairs with |lambda| above the threshold;
    raises if a cluster straddles it, or if the decomposition holds too few
    eigenpairs there: fewer eigenvectors than the eigenvalues above it, or,
    for a leading decomposition, a threshold below its bulk_bound, where
    some unlisted eigenvalue may lie above it."""
    if not threshold >= 0:  # NaN too
        raise ValueError("threshold must be nonnegative")
    dec._check_listed(threshold)
    abs_lam = np.abs(dec.eigenvalues)
    kept = 0
    for start, stop in dec.clusters:
        lo = float(abs_lam[start:stop].min())
        hi = float(abs_lam[start:stop].max())
        if lo > threshold:
            kept = stop
        elif hi > threshold:
            raise ThresholdSplitsCluster(
                f"threshold {threshold!r} falls inside the cluster "
                f"[{lo!r}, {hi!r}]; move it to a spectral-gap midpoint"
            )
        else:
            break  # the clusters come in decreasing |lambda|
    if kept > dec.eigenvectors.shape[1]:
        raise EigenvectorsNotKept(
            f"threshold {threshold!r} keeps {kept} eigenpairs, but this decomposition "
            f"holds {dec.eigenvectors.shape[1]} eigenvectors; use decompose"
        )
    return kept


def tail_truncate(dec: SpectralDecomposition, threshold: float) -> Kernel:
    """Keep the eigencomponents with |lambda| strictly above the threshold.

    The threshold must not split a multiplicity cluster, so the result is a
    sum of whole eigenspace projectors and does not depend on the basis
    chosen inside degenerate eigenspaces. It raises EigenvectorsNotKept
    where the decomposition holds too few eigenpairs: on a spectrum below
    the spectral radius, on a leading decomposition below its bulk_bound.
    """
    return Kernel(dec.kernel.space, _truncation(dec, threshold))


def _truncation(dec: SpectralDecomposition, threshold: float) -> np.ndarray:
    """The values of tail_truncate(dec, threshold) in one writable n x n
    buffer: P = F_k diag(lambda_k) F_k^T, symmetrized in place."""
    k = _split_check(dec, threshold)
    f = dec.eigenvectors[:, :k]
    p = (f * dec.eigenvalues[:k]) @ f.T
    _symmetrize_in_place(p)
    return p


def truncation_quotient(dec: SpectralDecomposition, threshold: float,
                        part_of) -> StepFunction:
    """quotient_average(tail_truncate(dec, threshold), part_of), up to
    rounding, from the kept eigenpairs alone.

    With (W^T F)_{p,i} = sum_{a in p} w_a f_i(a) over the k kept
    eigenvectors, the block average of [M]_t over parts p, q is
    (W^T F) diag(lambda) (W^T F)^T divided by W_p W_q: O(n k) work instead
    of the two n x n passes of forming the truncation and averaging it, and
    a leading decomposition serves every threshold from its bulk_bound up.
    The threshold and the labels are checked as tail_truncate and
    quotient_average check them.
    """
    k = _split_check(dec, threshold)
    labels, pw = canonical_parts(dec.kernel.space, part_of)
    sums = np.zeros((pw.size, k))  # W^T F
    np.add.at(sums, labels, dec.eigenvectors[:, :k] * dec.kernel.space.weights[:, None])
    block = (sums * dec.eigenvalues[:k]) @ sums.T
    # the two roundings of each off-diagonal pair meet halfway: exactly symmetric
    _symmetrize_in_place(block)
    block /= np.outer(pw, pw)
    return StepFunction(dec.kernel.space, labels, block)


def spectral_radius(dec: SpectralDecomposition) -> float:
    """Largest |eigenvalue|."""
    return abs(float(dec.eigenvalues[0]))


def operator_norm_upper(kernel: Kernel) -> float:
    """Certified upper bound on the operator norm (spectral radius) of the
    kernel, ||A||_2 for A = D^{1/2} K D^{1/2}.

    Every finite bound but the zero matrix's 0 (exact: ||A||_2 <= ||A||_F)
    is proven by _certified_radius on a trial shift: first the top |Ritz
    value| of a _block_krylov run for one pair, in RADIUS_BLOCK-vector
    blocks, to a residual of RADIUS_SLACK ||A||_F, times 1 + RADIUS_SLACK
    (two factorisations cost about 2n^3/3 flops, eigvalsh 4n^3/3 and more);
    when that run is refused (below n = KRYLOV_BASIS_FRACTION RADIUS_BLOCK
    it has no block), or its proof is, max |eigvalsh(A)| plus
    _eigvalsh_margin. When both proofs are refused, or ||A||_F overflows,
    the bound is inf.
    """
    sym, _ = _symmetrized(kernel)
    fro = _frobenius(sym)
    if fro == 0.0 or fro == math.inf:
        return fro
    margin = _eigvalsh_margin(sym.shape[0], fro)
    found = _block_krylov(sym, 1, RADIUS_BLOCK, RADIUS_SLACK * fro, margin)
    bound = None if found is None else _certified_radius(
        sym, abs(float(found[1][0])) * (1.0 + RADIUS_SLACK), fro)
    if bound is None:
        bound = _certified_radius(sym, float(np.max(np.abs(_eigenvalues(sym)))) + margin, fro)
    return math.inf if bound is None else bound


def _certified_radius(sym: np.ndarray, s: float, fro: float,
                      allowance: float = 0.0) -> float | None:
    """A proven upper bound t on ||A||_2 from the trial shift s, or None when
    the proof is refused. fro = ||sym||_F is finite; sym holds the unrounded
    A = D^{1/2} K D^{1/2} rounded, and is restored after use as work space.
    When sym was formed by more than that rounding, allowance bounds the
    2-norm of the rest of its distance from A and is added to t.

    The matrices M = fl(sI - A) and fl(sI + A) are factored by
    np.linalg.cholesky. When a factorisation of a symmetric float matrix M
    runs to completion (so m_ii > 0), its factor satisfies L L^T = M + dM
    with |dM_ij| <= a sqrt(m_ii m_jj), a = g/(1 - g), g = (n + 1)u/(1 -
    (n + 1)u), for inner products summed in any order (Higham, Accuracy and
    Stability, Thm 10.3), so ||dM||_2 <= a tr(M) and M >= -a tr(M) I. Rump
    (Verification of positive definiteness, BIT 46, 2006) shows the same
    with a term for underflow added, of order (2n + max m_ii) eta, eta the
    smallest subnormal; it is taken here as 4 n (2n + max m_ii) eta.
    Rounding s -/+ a_ii moves the diagonal by at most 2u max m_ii, and
    forming sym moved A by at most 3 eps ||sym||_F in 2-norm (see
    _eigvalsh_margin). So both factorisations succeeding proves
    -t <= lambda(A) <= t for t = s + (the larger of these shifts of the two
    matrices + 3 eps ||sym||_F); the factor 1 + 1e-6 covers the rounding of
    evaluating the shift, and one step up that of the final sum. A factor is
    accepted only when it is finite: an overflow turns some entry inf or
    NaN, and then its sum.
    """
    n = sym.shape[0]
    u = float(np.finfo(float).eps) / 2
    g = (n + 1) * u / (1 - (n + 1) * u)
    a = g / (1 - g)
    eta = float(np.finfo(float).smallest_subnormal)
    diagonal = sym.diagonal().copy()
    shift = 0.0
    flips = 0
    try:
        # off the diagonal, -A and then A again: negation is exact
        for sign in (-1.0, 1.0):
            np.negative(sym, out=sym)
            flips += 1
            m = s + sign * diagonal
            np.fill_diagonal(sym, m)
            try:
                # sym.T is F-ordered: LAPACK's copy of it reads rows of sym,
                # contiguously, and factors its upper triangle
                factor = np.linalg.cholesky(sym.T)
            except np.linalg.LinAlgError:
                return None
            if not math.isfinite(float(factor.sum())):
                return None
            del factor  # before the second factorisation allocates its own
            top = float(m.max())
            shift = max(shift, a * float(m.sum()) + 4 * n * (2 * n + top) * eta
                        + 2 * u * top)
    finally:
        if flips % 2:
            np.negative(sym, out=sym)
        np.fill_diagonal(sym, diagonal)
    bound = s + (shift + 6 * u * fro + allowance) * (1.0 + 1e-6)
    return float(np.nextafter(bound, math.inf))


def gap_midpoints(dec: SpectralDecomposition) -> list[float]:
    """Cluster-safe truncation thresholds: midpoints of spectral gaps,
    sorted decreasing, including the gap down to zero when present. A
    cluster within the cluster tolerance of zero is solver noise around an
    exactly zero eigenspace, so it is no cluster to cut below; clusters are
    more than the tolerance apart, so the last midpoint still clears it."""
    abs_lam = np.abs(dec.eigenvalues)
    r = dec.nonzero_rank
    bounds = [(float(abs_lam[a:b].min()), float(abs_lam[a:b].max()))
              for a, b in dec.clusters if a < r]
    mids = []
    for (lo, _), (_, hi_next) in zip(bounds, bounds[1:]):
        mids.append((lo + hi_next) / 2.0)
    if bounds and bounds[-1][0] > 0.0:
        mids.append(bounds[-1][0] / 2.0)
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
    lam = dec.eigenvalues[:dec.nonzero_rank]
    fourth = lam**4
    total = float(fourth.sum())
    if lam.size == 0 or total == 0.0:
        raise AllZeroSpectrum("kernel has no usable nonzero eigenvalue")
    return SpectrumDistribution(_frozen(lam), _frozen(fourth / total))
