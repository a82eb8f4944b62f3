"""Exception types shared across the package.

An error's class decides how the CLI exits: a ``ValidationError`` (bad
input or configuration) exits 2, any other ``BtdqosError`` (a runtime or
numerical failure) exits 3.  So a new error's exit code is chosen where it
is declared, by the class it derives from.
"""

import numbers


class BtdqosError(Exception):
    """Base class for all btdqos errors."""


class ValidationError(BtdqosError):
    """Bad input rather than a runtime failure: the CLI exits 2."""


class OutOfBoundsError(ValidationError):
    """An (i, j, k) index lies outside the declared tensor dimensions."""


class NegativeValueError(ValidationError):
    """A QoS observation or model parameter is negative or not finite."""


class DuplicateIndexError(ValidationError):
    """Conflicting entries share an index, or entry sets that must be
    disjoint overlap."""


class InvalidStructureError(ValidationError):
    """A block structure or dimension tuple contains a non-positive size."""


class DimMismatchError(ValidationError):
    """Model dimensions and tensor dimensions disagree."""


class NonFiniteError(BtdqosError):
    """A training update produced NaN or Inf."""


class ParseError(ValidationError):
    """Malformed record in a QoS log file."""

    def __init__(self, message: str, line_no: int | None = None,
                 content: str | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
            if content is not None:
                message = f"{message} (record: {content!r})"
        super().__init__(message)
        self.line_no = line_no
        self.content = content


class EmptyInputError(ValidationError):
    """An operation that needs at least one entry received none."""


class EmptyTestSetError(ValidationError):
    """Metrics requested over an empty test set."""


class CorruptCheckpointError(ValidationError):
    """A checkpoint file failed structural or invariant validation."""


class ConfigError(ValidationError):
    """A configuration value violates its invariants."""


#: How ``check_kind`` names each kind it is asked for.
_KIND_NOUNS = {numbers.Real: "a number", numbers.Integral: "an integer",
               bool: "true or false", str: "a string", list: "a JSON list",
               dict: "a JSON object"}


def check_kind(value, kind, what):
    """``value`` if it is a ``kind``; otherwise a ConfigError naming ``what``.

    ``kind`` is a key of ``_KIND_NOUNS``.  true and false are no numbers,
    although bool subclasses int.
    """
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{what} must be {_KIND_NOUNS[kind]}, got {value!r:.40}")
    return value
