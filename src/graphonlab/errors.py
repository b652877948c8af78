"""Exception and warning types shared across the library."""


class GraphonError(Exception):
    """Base class for all errors raised by this library."""


class ParameterError(GraphonError, ValueError):
    """An argument outside its documented range. The library function that
    reads the argument raises it, before the numeric work that uses it; the
    CLI reports it as a usage error."""


class InvalidSpaceError(GraphonError):
    """Weight vector is not a strictly positive probability vector."""


class NonFiniteError(GraphonError):
    """Input holds a NaN or infinite value."""


class AsymmetricMatrixError(GraphonError):
    """Input matrix deviates from symmetry by more than the hard tolerance."""


class DimensionMismatchError(GraphonError):
    """Operands are defined on spaces of different sizes."""


class WeightMismatchError(GraphonError):
    """A permutation does not preserve the atom weights."""


class EmptyPartError(GraphonError):
    """A partition label in the range has no atoms."""


class EigenSolverError(GraphonError):
    """The symmetric eigenvalue solver failed to converge."""


class ThresholdSplitsCluster(GraphonError):
    """A truncation threshold falls inside a numerically degenerate
    eigenvalue cluster; move it to a spectral-gap midpoint."""


class EigenvectorsNotKept(GraphonError):
    """A threshold reads eigenpairs the decomposition does not hold: a
    truncation below the spectral radius of a spectrum, which holds no
    eigenvectors, or any reader below the bulk_bound of a leading
    decomposition, which lists no eigenvalue there."""


class AllZeroSpectrum(GraphonError):
    """The kernel has no nonzero eigenvalue to build a distribution from."""


class TooLargeError(GraphonError):
    """Instance exceeds the configured size limit for an exact method."""


class NonDecreasingF(GraphonError):
    """The regularity target function F violated positivity or
    monotonicity on the probed thresholds."""


class GridOverflowError(GraphonError):
    """The nominal step-count bound of the clustering grid exceeds the
    configured cap; raise epsilon or the cap."""


class TooManyVerticesError(ParameterError):
    """Template graph exceeds the exact-density vertex cap."""


class NotCoprimeError(ParameterError):
    """Dilation factor shares a divisor with the grid size."""


class ActionDoesNotStabilizeError(GraphonError):
    """A claimed symmetry generator moves the kernel."""


class IrrationalWeightsError(GraphonError):
    """Part weights are not representable on the refinement grid."""


class WorkerError(GraphonError):
    """A worker process ended before it returned the result of its unit."""


class SymmetrizedWarning(UserWarning):
    """Input matrix had a small skew part and was symmetrized."""


class EpsilonViolatedWarning(UserWarning):
    """Clamping pushed the L2 norm of the middle term past epsilon;
    the decomposition is still returned with the violation certified."""
