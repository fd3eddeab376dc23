"""Exception types shared across the package."""


class SemigroupRingError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyGenerators(SemigroupRingError):
    pass


class NotCoprime(SemigroupRingError):
    pass


class FieldMismatch(SemigroupRingError):
    pass


class NotInRing(SemigroupRingError):
    """A series has support outside the semigroup of the target ring."""


class InsufficientPrecision(SemigroupRingError):
    """A generator's bound is too small to determine the canonical window."""


class RingMismatch(SemigroupRingError):
    pass


class UnsupportedSemigroup(SemigroupRingError):
    pass


class UnitInput(SemigroupRingError):
    pass


class ZeroInput(SemigroupRingError):
    pass


class NotProper(SemigroupRingError):
    pass


class InfeasibleEnumeration(SemigroupRingError):
    pass


class UnclassifiedIdeal(SemigroupRingError):
    """An enumerated ideal does not fit any known shape family; treat as a bug."""


class WrongRing(SemigroupRingError):
    pass


class DomainGap(SemigroupRingError):
    """A table-backed operation was consulted outside its domain."""


class PreconditionNotMet(SemigroupRingError):
    pass


class BudgetExceeded(SemigroupRingError):
    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}
