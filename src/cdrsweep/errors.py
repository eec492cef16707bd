"""Exception types shared across the package, and the quote rule of their messages."""


def quoted(value, form=repr) -> str:
    """form(str(value)), or past 40 characters form of those and the length."""
    text = str(value)
    return form(text) if len(text) <= 40 else f"{form(text[:40])}... ({len(text):,} characters)"


class CdrSweepError(Exception):
    """Base class for every error raised by this library."""


class EmptyInputError(CdrSweepError):
    pass


class UnknownSquareError(CdrSweepError):
    pass


class SeriesTooShortError(CdrSweepError):
    pass


class SeriesFormatError(CdrSweepError):
    """Normalized sector-series CSV does not match the expected layout."""


class DimensionMismatchError(CdrSweepError):
    pass


class EmptySequenceError(CdrSweepError):
    pass


class TraceMismatchError(DimensionMismatchError):
    """Forward trace is inconsistent with the parameters it is checked against."""


class ShapeMismatchError(CdrSweepError):
    pass


class EmptySplitError(CdrSweepError):
    pass


class DivergedLossError(CdrSweepError):
    """Training loss became non-finite; carries the step at which it happened."""


class ModelFormatError(CdrSweepError):
    """Model container cannot be decoded."""


class BadMagicError(ModelFormatError):
    pass


class VersionMismatchError(ModelFormatError):
    pass


class TruncatedFileError(ModelFormatError):
    pass


class NonFiniteInputError(CdrSweepError):
    pass


class InvalidConfigError(CdrSweepError):
    pass


class MismatchedConfigsError(CdrSweepError):
    pass


class BadSharesError(CdrSweepError):
    pass


class OutOfRangeError(CdrSweepError):
    """A raw value, or the slot span or count it implies, does not fit the series."""
