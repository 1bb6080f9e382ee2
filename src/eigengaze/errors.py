"""Exception hierarchy for the eigengaze package."""


class EigengazeError(Exception):
    """Base class for all package errors."""


# --- image parsing / construction ---

class MalformedHeader(EigengazeError):
    pass


class SampleCountMismatch(EigengazeError):
    pass


class SampleOutOfRange(EigengazeError):
    pass


class ZeroImage(EigengazeError):
    pass


class EmptyOcclusion(EigengazeError):
    pass


class SideTooSmall(EigengazeError):
    pass


# --- linear algebra ---

class NoConvergence(EigengazeError):
    """An eigensolver's rotation leaves its matrix off-diagonal beyond
    tolerance; `off_norm` is the off-diagonal Frobenius norm it left."""

    def __init__(self, message, off_norm=None):
        super().__init__(message)
        self.off_norm = off_norm


class AllZero(EigengazeError):
    pass


# --- eigenspace construction / persistence ---

class DegenerateSet(EigengazeError):
    pass


class DimensionMismatch(EigengazeError):
    pass


class BadMagic(EigengazeError):
    pass


class VersionMismatch(EigengazeError):
    pass


class CorruptField(EigengazeError):
    pass


# --- registry ---

class DuplicateObject(EigengazeError):
    pass


class InvalidObjectId(EigengazeError):
    pass


class InsufficientData(EigengazeError):
    pass


# --- recognition / evaluation ---

class EmptyRegistry(EigengazeError):
    pass


class EmptyQuerySet(EigengazeError):
    pass


class DimsTooLarge(EigengazeError):
    pass


class NoImages(EigengazeError):
    pass
