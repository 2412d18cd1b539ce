"""Exception types shared across the package."""


class PgtError(Exception):
    """Base class for all package-specific errors."""


class ZeroInputError(PgtError):
    """Raised when the zero element is passed to a number-theoretic operation."""


class OverflowGuardError(PgtError):
    """Raised when a component exceeds the 2^31 input guard."""


class CutoffExceededError(PgtError):
    """Raised when a requested enumeration exceeds its documented norm cutoff."""


class NotPrimeError(PgtError):
    """Raised when an operation requires a Gaussian prime and the input is not one."""


class PinningError(PgtError):
    """Raised when no consistent character normalization can be pinned."""


class EigenvalueFileError(PgtError):
    """Raised on malformed eigenvalue data files (carries a line number)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
