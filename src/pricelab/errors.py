"""Exception taxonomy shared by every stage of the pricing pipeline.

The split mirrors how the command line maps failures to exit codes:
data problems (schema, parse, validation, singular designs) are
distinguished from fitting problems (non-convergence, divergence,
numeric blow-ups).
"""

from __future__ import annotations

from pathlib import Path


class PricelabError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PricelabError):
    """CSV header does not match the expected column contract."""


class ParseError(PricelabError):
    """A data cell could not be parsed; message carries the row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ValidationError(PricelabError):
    """A value violates a documented invariant (record field, config, split)."""


class SingularityError(PricelabError):
    """Design matrix is underdetermined: no more rows than parameters."""


class ConvergenceError(PricelabError):
    """An iterative fit ran out of iterations."""


class DivergenceError(PricelabError):
    """Training loss exploded; the message suggests a smaller learning rate."""


class NumericError(PricelabError):
    """A non-finite value appeared; message carries the epoch or step index."""


def not_utf8(path) -> ParseError:
    """The error for an input file that is not UTF-8 text."""
    return ParseError(f"{path}: not a UTF-8 text file")


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a config, artifact, index or manifest file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path) from None
