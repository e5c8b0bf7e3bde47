"""Error taxonomy shared across the toolkit, and the text-file opener that words decode faults."""

from contextlib import contextmanager


class PrunelabError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(PrunelabError):
    """Operand shapes do not conform for the requested operation."""


class NumericError(PrunelabError):
    """An operation produced a non-finite value."""


class ContractError(PrunelabError):
    """An API precondition was violated by the caller."""


class InputError(PrunelabError):
    """User-supplied data is malformed or out of range."""


class ConfigError(PrunelabError):
    """A run configuration is invalid."""


class RunError(PrunelabError):
    """A training, evaluation or benchmark run failed at runtime."""


@contextmanager
def open_text(path):
    """open(path) for reading; a byte that does not decode is an InputError naming the file."""
    with open(path) as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not UTF-8 text ({e.reason})") from None
