"""Exception types shared across the package."""


class TiltedError(Exception):
    """Base class for all errors raised by this package."""


class Inconclusive(TiltedError):
    """Base class for the errors after which nothing was certified or
    refuted: a cap, a precision or a group accuracy ran out first."""


class CapExceeded(Inconclusive):
    """An exponent denominator would exceed the configured p^D cap."""


class ZeroDivisor(TiltedError):
    """Inversion of the exact zero series."""


class NonDominantLeading(TiltedError):
    """Inversion requires a unique monomial of minimal valuation."""


class PrecisionRequired(Inconclusive):
    """The requested computation produces an infinite expansion and
    needs a finite precision cap, or needs more precision than its
    input carries."""


class InsufficientGroupAccuracy(Inconclusive):
    """A group element is only known modulo p^N and N is too small for
    the requested output precision."""


class DegenerateOrbit(Inconclusive):
    """All orbit differences vanish to precision; no exponent can be fitted."""


class PreconditionViolated(TiltedError):
    """A stated precondition of an operation does not hold."""


class NonConvergence(Inconclusive):
    """Fixed-point iteration failed to reach the target precision."""


class ParseError(TiltedError):
    """Syntax error in a series, group element, or module file literal."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
