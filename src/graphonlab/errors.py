"""Exception and warning types shared across the library."""


class GraphonError(Exception):
    """Base class for all errors raised by this library."""


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
    """A truncation threshold lies below the vectors_above of a partial
    decomposition, which holds no eigenvectors there."""


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


class TooManyVerticesError(GraphonError):
    """Template graph exceeds the exact-density vertex cap."""


class NotCoprimeError(GraphonError):
    """Dilation factor shares a divisor with the grid size."""


class ActionDoesNotStabilizeError(GraphonError):
    """A claimed symmetry generator moves the kernel."""


class IrrationalWeightsError(GraphonError):
    """Part weights are not representable on the refinement grid."""


class SymmetrizedWarning(UserWarning):
    """Input matrix had a small skew part and was symmetrized."""


class EpsilonViolatedWarning(UserWarning):
    """Clamping pushed the L2 norm of the middle term past epsilon;
    the decomposition is still returned with the violation certified."""
