"""Sparse rational combinations: the linear algebra under every element type.

Tree series, graded maps, multilinear operations, tensor operators,
operator towers and convolution elements all store a finite combination as
one dict of non-zero values keyed by basis elements.  The values are exact
rational coefficients, or, for the towers and convolution elements,
combinations themselves (one graded map or multilinear operation per weight).
A whole-number coefficient is stored as an ``int`` and any other as a
``Fraction``: :func:`put` and :meth:`Combination.__mul__` store what
:func:`whole` gives, so the product kernels multiply signs and units at
``int`` speed.  An ``int`` equals the ``Fraction`` of the same value, hashes
like it and prints like it.  The JSON readers and the series text format
read numbers by :func:`parse_number`.  :class:`Combination` gives all of
them the vector-space operations, equality and the zero test, which none of
them overrides, and :func:`add_into` is the accumulation step of every
product loop.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import BoundsError, ShapeError, ValidationError, shown


def parse_number(value, kind, where: str):
    """``kind(value)`` for ``kind`` int or Fraction.  It refuses the digit-group
    underscores ("1_0") that Python's number parsers accept by a ValidationError
    naming ``where``, and a Fraction string in exponent notation ("1e5000"),
    which ``Fraction`` would expand to that many digits, by a ValueError."""
    if isinstance(value, str):
        if "_" in value:
            raise ValidationError(f"{where} must not group digits with '_', got {shown(value)}")
        if kind is Fraction and ("e" in value or "E" in value):
            raise ValueError(f"{where} must not be in exponent notation, got {shown(value)}")
    return kind(value)


def exact(value):
    """``Fraction(value)`` as :func:`whole` gives it, refusing a float, whose
    binary expansion ``Fraction`` would store; the coefficient setters and
    constructors read their values through it."""
    if isinstance(value, float):
        raise ValidationError(f"a coefficient must be exact, not the float {shown(value)}")
    return whole(Fraction(value))


def coefficient_text(value) -> str:
    """``str(value)`` for a coefficient written out, or a BoundsError when it
    has more digits than Python converts to text."""
    try:
        return str(value)
    except ValueError:
        raise BoundsError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits in its "
            "numerator or denominator, the limit of sys.get_int_max_str_digits()"
        ) from None


def whole(value):
    """``value``, or its numerator when it is a ``Fraction`` with denominator 1."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def put(acc: dict, key, value) -> None:
    """Store ``value`` under ``key`` as :func:`whole` gives it, or drop ``key``
    when ``value`` is zero."""
    if value:
        acc[key] = whole(value)
    else:
        acc.pop(key, None)


def add_into(acc: dict, key, value) -> None:
    """``acc[key] += value`` without copying, keeping no zero values.

    ``value`` is a coefficient or a :class:`Combination`.  A combination
    already stored under ``key`` is updated in place and a new one is stored
    as it is, so ``acc`` must be a dict the caller built from values that
    nothing else holds.
    """
    old = acc.get(key)
    if old is not None:
        if isinstance(old, Combination):
            old._iadd(value)
            value = old
        else:
            value = old + value
    put(acc, key, value)


class Combination:
    """Vector-space operations on a sparse combination held in one dict.

    A subclass names that dict in ``_store`` and lists in ``_shape`` the
    attributes that two operands must share.  The ``_shape`` attributes are
    also the leading positional arguments of the subclass constructor, which
    builds the empty element of that shape.  Operands of another type raise
    ``TypeError``; operands of another shape raise ``_mismatch``.
    """

    __slots__ = ()
    _shape: tuple = ()
    _store: str = ""
    _mismatch = ShapeError

    @property
    def _coeffs(self) -> dict:
        return getattr(self, self._store)

    def _like(self, coeffs: dict):
        """An element of the same shape holding ``coeffs``."""
        out = type(self)(*[getattr(self, name) for name in self._shape])
        setattr(out, self._store, coeffs)
        return out

    def zero_like(self):
        """The zero element of the same shape."""
        return self._like({})

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        for name in self._shape:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and mine != theirs:
                raise self._mismatch(
                    f"{type(self).__name__} operands differ in {name}: {mine!r} vs {theirs!r}"
                )

    def _iadd(self, other) -> None:
        """``self += other`` in place by :func:`add_into`, whose rule applies."""
        self._check(other)
        acc = self._coeffs
        for key, value in other._coeffs.items():
            add_into(acc, key, value)

    def __add__(self, other):
        self._check(other)
        coeffs = dict(self._coeffs)  # shares values with self: never update them in place
        for key, value in other._coeffs.items():
            old = coeffs.get(key)
            put(coeffs, key, value if old is None else old + value)
        return self._like(coeffs)

    def __sub__(self, other):
        self._check(other)
        coeffs = dict(self._coeffs)  # shares values with self: never update them in place
        for key, value in other._coeffs.items():
            old = coeffs.get(key)
            put(coeffs, key, -value if old is None else old - value)
        return self._like(coeffs)

    def __neg__(self):
        return self._like({k: -v for k, v in self._coeffs.items()})

    def __mul__(self, scalar):
        scalar = exact(scalar)
        coeffs = {k: whole(v * scalar) for k, v in self._coeffs.items()} if scalar else {}
        return self._like(coeffs)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and all(getattr(self, name) == getattr(other, name) for name in self._shape)
            and self._coeffs == other._coeffs
        )

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self):
        return not self.is_zero()
