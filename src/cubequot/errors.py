"""Exception types shared across the package."""


class CubeQuotError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class DimensionMismatch(CubeQuotError):
    code = "DIMENSION_MISMATCH"


class GroupTooLarge(CubeQuotError):
    code = "GROUP_TOO_LARGE"


class IdentityElement(CubeQuotError):
    code = "IDENTITY_ELEMENT"


class Unsupported(CubeQuotError):
    code = "UNSUPPORTED"


class BadDimension(CubeQuotError):
    code = "BAD_DIMENSION"


class DimensionTooLarge(CubeQuotError):
    code = "DIMENSION_TOO_LARGE"


class NotBipartite(CubeQuotError):
    """Raised for non-bipartite input; carries an odd closed walk as witness."""

    code = "NOT_BIPARTITE"

    def __init__(self, message, odd_walk=None):
        super().__init__(message)
        self.odd_walk = odd_walk


class NotConnected(CubeQuotError):
    code = "NOT_CONNECTED"


class TooLarge(CubeQuotError):
    code = "TOO_LARGE"


class NotRectagraph(CubeQuotError):
    code = "NOT_RECTAGRAPH"


class QuadrangleAmbiguous(CubeQuotError):
    code = "QUADRANGLE_AMBIGUOUS"


class InconsistentLift(CubeQuotError):
    code = "INCONSISTENT_LIFT"


class NotCovering(CubeQuotError):
    code = "NOT_COVERING"


class ReconstructionFailed(CubeQuotError):
    code = "RECONSTRUCTION_FAILED"


class ParseError(CubeQuotError):
    """Group file syntax error; carries the 1-based line number."""

    code = "PARSE_ERROR"

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PreconditionViolated(CubeQuotError):
    code = "PRECONDITION_VIOLATED"


class InvariantViolated(CubeQuotError):
    """An internal consistency check failed; the result cannot be trusted."""

    code = "INVARIANT_VIOLATED"


class UnknownExample(CubeQuotError):
    code = "UNKNOWN_EXAMPLE"


class UnknownClaim(CubeQuotError):
    code = "UNKNOWN_CLAIM"
