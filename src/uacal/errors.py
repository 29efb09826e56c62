"""Exception hierarchy shared across the package."""


class UacalError(Exception):
    """Base class for all library errors."""


class BoundsError(UacalError, IndexError):
    """A coordinate or flat index fell outside its grid."""


class ParameterError(UacalError, ValueError):
    """A caller-supplied parameter violated a precondition."""


class ValidationError(UacalError, ValueError):
    """Input data violated a structural invariant (NaN logits, bad shapes, ...)."""


class RecordError(ValidationError):
    """One record of a batch failed validation: ``record`` is its index in the
    batch and ``reason`` says what failed."""

    def __init__(self, record, reason):
        super().__init__(f"record {record}: {reason}")
        self.record, self.reason = record, reason


class UnsupportedConfigError(UacalError, ValueError):
    """A selection mode was combined with options it does not support."""


class FormatError(UacalError):
    """A dataset file failed structural validation.

    ``offset`` is the byte offset of the first bad field when known.
    """

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None
                         else f"{message} (at byte offset {offset})")
        self.offset = offset


class GenerationError(UacalError):
    """World generation could not satisfy placement constraints."""
