"""Error taxonomy shared by all modules."""


class SchlichtError(Exception):
    """Base class for every library error."""


# series
class OrderMismatch(SchlichtError):
    pass


class DivisionByNonUnit(SchlichtError):
    pass


class BranchPointAtOrigin(SchlichtError):
    pass


class NonFiniteCoefficients(SchlichtError):
    pass


class RadiusExceeded(SchlichtError):
    pass


# univalent-function constructors and transforms
class ParamOutOfRange(SchlichtError):
    pass


# legendre
class DegreeTooLarge(SchlichtError):
    pass


class OrderOutOfRange(SchlichtError):
    pass


class QuadratureUnderresolved(SchlichtError):
    pass


# loewner
class BranchSelectionFailure(SchlichtError):
    pass


class TrajectoryEscaped(SchlichtError):
    pass


class DerivativeUnderflow(SchlichtError):
    pass


class BranchTrackingFailure(SchlichtError):
    pass


class ChainUnavailable(SchlichtError):
    pass


# weinstein
class ImaginaryResidue(SchlichtError):
    pass


# cli
class UsageError(SchlichtError):
    """A bad argument: the CLI exits 2."""


class UnknownSuite(UsageError):
    pass


class IoFailure(SchlichtError):
    pass
