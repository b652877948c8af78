"""Certified cut-norm brackets.

Convention: ||K||_cut = sup |f^* K g| over functions with sup-norm at most
one; the maximum of a bilinear form over the box is attained at +-1
vertices, so exact computation enumerates sign vectors. For one fixed g the
best f is sign(KDg) entrywise, which reduces the enumeration to one side.
The S,T subset convention is deliberately not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Kernel, _frozen, weighted_norm
from .errors import DimensionMismatchError, ParameterError, TooLargeError
from .spectral import operator_norm_upper

DEFAULT_EXACT_LIMIT = 22
# The enumeration doubles its work per atom (about 3 s at n = 26), so no
# exact_limit may take it further than this.
EXACT_CEILING = 26
DEFAULT_RESTARTS = 32
_LOW_BITS = 16  # a g is tabulated over the patterns of this many free coordinates
_CHUNK_BYTES = 1 << 20  # work buffer of the exact enumeration, well inside L2
# sign rows per block of the table fill: a block's +-1 matrix and the
# integer codes it is built from stay at 512 KiB each
_SIGN_ROWS = 4096


@dataclass(frozen=True)
class CutNormEstimate:
    """A bracket lower <= ||K||_cut <= upper with a witness attaining lower."""

    lower: float
    upper: float
    witness_f: np.ndarray
    witness_g: np.ndarray
    method: str  # exact | heuristic+spectral | heuristic+L1

    def __post_init__(self):
        for name in ("witness_f", "witness_g"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def check_exact_limit(exact_limit: int) -> None:
    """Raise ParameterError unless 0 <= exact_limit <= EXACT_CEILING: a
    limit past the ceiling is refused even where the input at hand is small,
    since the next input might not be."""
    if not 0 <= exact_limit <= EXACT_CEILING:
        raise ParameterError(f"exact_limit must be in [0, {EXACT_CEILING}], got {exact_limit}")


def _check_restarts(restarts: int) -> None:
    if not restarts >= 1:
        raise ParameterError(f"restarts must be at least 1, got {restarts}")


def bilinear_form(f, kernel: Kernel, g) -> float:
    """Weighted bilinear form sum_{x,y} w_x w_y f(x) K(x,y) g(y), signed."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (kernel.n,) or g.shape != (kernel.n,):
        raise DimensionMismatchError("vector length must match the atom count")
    w = kernel.space.weights
    return float((w * f) @ kernel.values @ (w * g))


def _sign(x: np.ndarray) -> np.ndarray:
    """sign with sign(0) = sign(-0.0) = +1, for deterministic tie-breaking,
    in x's dtype (a float64 result would upcast a float32 product)."""
    one = x.dtype.type(1)
    return np.where(x >= 0, one, -one)


def _signs(codes, bits: int) -> np.ndarray:
    """The +-1 vectors of the codes: bit k of a code set means -1 at index k."""
    return 1.0 - 2.0 * ((np.asarray(codes)[..., None] >> np.arange(bits)) & 1)


def _best_signs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of a (b, n, n) stack, the largest ||a g||_1 over the
    sign vectors g with g_0 = +1, and the first code attaining it (bit k of
    the code set means g_{k+1} = -1).

    a g splits into the part of the low _LOW_BITS free coordinates, formed
    once as one table over all their patterns, and the part of g_0 and the
    high bits, one column per high pattern added to that table. Besides the
    (b, n, 2^low) table, the call holds one block of at most _SIGN_ROWS
    sign rows while the table is filled, and one walk chunk of _CHUNK_BYTES
    while it is searched.
    """
    b, n, _ = a.shape
    low = min(n - 1, _LOW_BITS)
    high_bits = n - 1 - low
    table = np.empty((b, n, 1 << low))
    # filled in place block by block: each entry is the same sum of +-1
    # terms in coordinate order as one product with every sign row at once
    for start in range(0, 1 << low, _SIGN_ROWS):
        rows = np.arange(start, min(start + _SIGN_ROWS, 1 << low))
        np.matmul(a[:, :, 1 : low + 1], _signs(rows, low).T,
                  out=table[:, :, start : start + rows.size])
    # the table is walked in chunks of low patterns whose work buffer fits
    # in cache, in increasing code order, so ties still go to the first code
    chunk = 1 << max(0, min(low, (_CHUNK_BYTES // (8 * b * n)).bit_length() - 1))
    buf = np.empty((b, n, chunk))
    best = np.full(b, -1.0)
    best_code = np.zeros(b, dtype=np.int64)
    for high, pattern in enumerate(_signs(np.arange(1 << high_bits), high_bits)):
        col = a[:, :, 0] + a[:, :, low + 1 :] @ pattern
        for start in range(0, 1 << low, chunk):
            np.add(table[:, :, start : start + chunk], col[:, :, None], out=buf)
            vals = np.abs(buf, out=buf).sum(axis=1)
            top = vals.max(axis=1)
            up = top > best
            best[up] = top[up]
            best_code[up] = (high << low) + start + vals[up].argmax(axis=1)
    return best, best_code


def cutnorm_exact(kernel: Kernel) -> CutNormEstimate:
    """Exact cut norm by sign-vector enumeration (half the space, by the
    g -> -g symmetry), with the inner vector set to sign(KDg) rowwise.
    Raises TooLargeError above EXACT_CEILING atoms."""
    n = kernel.n
    if n > EXACT_CEILING:
        raise TooLargeError(f"n={n} exceeds the exact enumeration limit {EXACT_CEILING}")
    w = kernel.space.weights
    a = kernel.values * np.outer(w, w)  # (Ag)_x = w_x * (KDg)_x
    _, code = _best_signs(a[None])
    best_g = np.concatenate([[1.0], _signs(code[0], n - 1)])
    best_f = _sign(a @ best_g)
    value = bilinear_form(best_f, kernel, best_g)
    return CutNormEstimate(
        lower=value, upper=value, witness_f=best_f, witness_g=best_g, method="exact"
    )


def _search_matrix(kernel: Kernel) -> np.ndarray:
    """A = K o ww^T in float32, scaled by the power of two that brings
    max |A| into [0.5, 1). The scaling is exact, so a kernel's overall
    scale can neither overflow the cast nor flush it to zero, and every sign
    decision is the one an unscaled float32 search would make."""
    a = np.outer(kernel.space.weights, kernel.space.weights)
    a *= kernel.values
    _, exponent = np.frexp(max(a.max(), -a.min()))
    np.ldexp(a, -exponent, out=a)
    return a.astype(np.float32)


def _ascend(a: np.ndarray, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating sign ascent of every column of gs to a fixed point: a
    sweep sets f = sign(Ag), g = sign(Af), worth f.(Ag) = ||Af||_1 as A is
    symmetric. A column freezes at its last improving pair once its value
    stops increasing.

    a is the float32 matrix of _search_matrix and gs a float32 block; every
    product stays in float32, and the values only rank sign vectors. Every
    column terminates: the active set only shrinks, and while it stays fixed
    each column's value is a fixed function of its sign vector (the same
    products over the same block) that strictly increases, so no sign
    vector of the finite domain repeats."""
    fs = np.ones_like(gs)
    values = np.full(gs.shape[1], -1.0, dtype=gs.dtype)
    active = np.arange(gs.shape[1])
    while active.size:
        f = _sign(a @ gs[:, active])
        u = a @ f
        vals = np.abs(u).sum(axis=0)
        up = vals > values[active]
        active = active[up]
        fs[:, active], gs[:, active], values[active] = f[:, up], _sign(u[:, up]), vals[up]
    return fs, gs, values


def _proven_upper(kernel: Kernel) -> tuple[float, str]:
    """min(operator_norm_upper, weighted L1 norm), both proven bounds on the
    cut norm, and the heuristic method name that says which one it is."""
    rad = operator_norm_upper(kernel)
    l1 = weighted_norm(kernel, "L1")
    if rad <= l1:
        return rad, "heuristic+spectral"
    return l1, "heuristic+L1"


def cutnorm_heuristic(
    kernel: Kernel, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> CutNormEstimate:
    """Batched alternating-ascent lower bound with a spectral/L1 upper bound.

    The restarts ascend as the columns of one n x restarts block, two matrix
    products per sweep over the columns not yet converged. The search runs
    in float32 on the power-of-two scaled matrix of _search_matrix and
    certifies nothing: lower is the float64 bilinear form of the best
    witness, and upper is min(operator_norm_upper, weighted L1 norm), both
    in float64. Start vectors come from seed streams split by restart
    index, so the result does not depend on execution order or thread count.
    """
    _check_restarts(restarts)
    n = kernel.n
    g0 = [np.random.default_rng(c).integers(0, 2, size=n) * 2 - 1
          for c in np.random.SeedSequence(seed).spawn(restarts)]
    fs, gs, values = _ascend(_search_matrix(kernel), np.column_stack(g0).astype(np.float32))
    best = int(np.argmax(values))
    best_f, best_g = fs[:, best], gs[:, best]
    lower = bilinear_form(best_f, kernel, best_g)
    bound, method = _proven_upper(kernel)
    upper = max(bound, lower)  # float noise must not invert the bracket
    return CutNormEstimate(
        lower=lower, upper=upper, witness_f=best_f, witness_g=best_g, method=method
    )


def cutnorm_bracket(kernel: Kernel, *, exact_limit: int = DEFAULT_EXACT_LIMIT,
                    restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> CutNormEstimate:
    """Exact up to exact_limit atoms (at most EXACT_CEILING), heuristic
    bracket otherwise. Both parameters are checked whichever way n falls."""
    check_exact_limit(exact_limit)
    _check_restarts(restarts)
    if kernel.n <= exact_limit:
        return cutnorm_exact(kernel)
    return cutnorm_heuristic(kernel, restarts=restarts, seed=seed)
