"""Exception types shared by all prelie modules, and the excerpt of a value their messages show."""

from fractions import Fraction


def shown(value, limit: int = 40) -> str:
    """``repr(value)`` cut after ``limit`` characters, its length named, so
    that an error message does not echo a huge input whole.  An integer of
    more digits than ``repr`` writes out (``sys.get_int_max_str_digits()``)
    is named by its number of digits."""
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {_digits(value)} digits"
        if isinstance(value, Fraction):
            return f"a fraction of {_digits(value.numerator)}/{_digits(value.denominator)} digits"
        raise
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _digits(n: int) -> int:
    """The number of decimal digits of ``n``, counted without writing it out."""
    n = abs(n)
    count = n.bit_length() * 1233 >> 12  # 1233/4096 < log10(2): never above the count
    while n >= 10**count:
        count += 1
    return max(count, 1)


class PreLieError(Exception):
    """Base class for every error raised by this package."""


class BoundsError(PreLieError, ValueError):
    """An argument is outside the configured enumeration bounds."""


class DomainError(PreLieError, ValueError):
    """An operand violates a precondition (wrong unit part, not Maurer-Cartan, ...)."""


class TruncationMismatch(PreLieError, ValueError):
    """Binary operation on series with different truncation orders or alphabets."""


class ShapeError(PreLieError, ValueError):
    """Graded spaces or operator shapes are incompatible."""


class ValidationError(PreLieError, ValueError):
    """A structured value (levelization, contraction, JSON input) fails its invariants."""


class ParseError(PreLieError, ValueError):
    """Malformed textual or JSON input.  Carries a human-readable position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{position}: {message}"
        super().__init__(message)
        self.position = position


class InternalCheckError(PreLieError, RuntimeError):
    """Two independent computation routes disagreed.  Indicates a library bug."""
