"""Exception hierarchy shared across the package."""


class EnscribeError(Exception):
    """Base class for all errors raised by this library."""


class DimensionMismatch(EnscribeError):
    """Vector or matrix dimensions are inconsistent."""


class SizeMismatch(EnscribeError):
    """Two texts differ in state count or language dimension."""


class NonUnitState(EnscribeError):
    """A state vector deviates from unit norm by more than the tolerance."""


class ColinearPair(EnscribeError):
    """Two states of a text are colinear (equal up to a phase)."""


class ZOutOfRange(EnscribeError):
    """An overlap value lies outside its admissible range."""


class QOutOfRange(EnscribeError):
    """An entanglement parameter lies outside [-1, 1]."""


class TOutOfRange(EnscribeError):
    """A thin-extension parameter lies outside [|Q0|, 1]."""


class DegenerateNormalizer(EnscribeError):
    """An entangled input has vanishing norm before normalization."""


class RootNotBracketed(EnscribeError):
    """A bracketing root search found no sign change (implementation bug)."""


class IllegibleText(EnscribeError):
    """The text admits no enscription for any entanglement parameter."""


class NotADirectSum(EnscribeError):
    """The claimed orthogonal split of a text does not hold."""


class InvalidCertificate(EnscribeError):
    """A certificate fails validation (residual above tolerance, bad shapes)."""


class InvalidInputCertificate(InvalidCertificate):
    """An input certificate to a lifting construction is not valid."""


class GramMismatch(EnscribeError):
    """Two vector families are not related by a unitary (Gram matrices differ)."""


class DirectionNotOrthogonal(EnscribeError):
    """A thin-extension direction is not orthogonal to the dialect."""


class QZero(EnscribeError):
    """The cloning machine is undefined at q = 0."""


class ParseError(EnscribeError):
    """An input file could not be parsed."""
