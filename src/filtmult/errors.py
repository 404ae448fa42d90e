"""Exception hierarchy shared by all engine modules."""

from __future__ import annotations


class FiltmultError(Exception):
    """Base class for all engine errors.

    Every subclass has a stable ``code`` used in machine-readable reports.
    """

    code = "EngineError"


class DimensionMismatch(FiltmultError):
    code = "DimensionMismatch"


class ArityMismatch(FiltmultError):
    code = "ArityMismatch"


class NotMPrimary(FiltmultError):
    """The staircase complement is infinite, so colength is undefined."""

    code = "NotMPrimary"


class BudgetExceeded(FiltmultError):
    code = "BudgetExceeded"


class NotNoetherian(FiltmultError):
    """The limit body has an irrational vertex, or a period is not a multiple
    of the body's denominator; the exact path cannot run."""

    code = "NotNoetherian"


class IndexOutOfTable(FiltmultError):
    code = "IndexOutOfTable"


class DegreeMismatch(FiltmultError):
    """An interpolated Hilbert function does not have the expected total degree."""

    code = "DegreeMismatch"


class TopCoefficientDrift(FiltmultError):
    """Top-degree coefficients differ across residue classes of a quasi-polynomial."""

    code = "TopCoefficientDrift"


class ExhaustedRetries(FiltmultError):
    code = "ExhaustedRetries"


class SpecValidationError(FiltmultError):
    """A problem description failed validation before dispatch."""

    code = "SpecValidationError"


def spec_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` itself when it is an ``int`` (not a bool, float or string)
    of at least ``minimum``; otherwise SpecValidationError."""
    if type(value) is not int or (minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise SpecValidationError(f"{name}: integers{at_least} only, got {value!r}")
    return value


def spec_object(value, name: str) -> dict:
    """``value`` itself when it is a JSON object; otherwise SpecValidationError."""
    if not isinstance(value, dict):
        raise SpecValidationError(f"{name}: a JSON object only, got {value!r}")
    return value


def spec_list(value, name: str) -> list:
    """``value`` itself when it is a JSON array; otherwise SpecValidationError."""
    if not isinstance(value, list):
        raise SpecValidationError(f"{name}: a JSON array only, got {value!r}")
    return value


def spec_field(data: dict, key: str, name: str):
    """The field ``key`` of the spec object ``name``; SpecValidationError
    naming the field when it is missing."""
    if key not in data:
        raise SpecValidationError(f"{name}: missing field {key!r}")
    return data[key]
