"""Exception types raised by the toolkit."""


class GaborError(Exception):
    """Base class for all toolkit-specific errors."""


class ShiftExceedsGrid(GaborError):
    """A time shift would push the effective support outside the sampling grid."""


class SingularAngle(GaborError):
    """Fractional Fourier angle too close to a multiple of pi for quadrature."""


class TruncationTooCoarse(GaborError):
    """Trailing Hermite coefficients of an expansion are not negligible."""


class NotUnimodular(GaborError):
    """Matrix cannot be factored (determinant non-positive or out of contract)."""


class NotASublattice(GaborError):
    """The coset index of one lattice inside another is not a positive integer."""


class SingularMatrix(GaborError):
    """A lattice transform requires an invertible matrix."""


class UnboundedWindow(GaborError):
    """No Gaussian decay envelope could be certified for a window."""


class IrreducibleSet(GaborError):
    """Point set cannot be reduced to a multi-window system over the integer lattice."""
