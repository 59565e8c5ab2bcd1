"""Sparse rational combinations: the linear algebra under every element type.

Tree series, graded maps, multilinear operations, tensor operators,
operator towers and convolution elements all store a finite combination as
one dict of non-zero values keyed by basis elements.  The values are
``Fraction`` coefficients, or, for the towers and convolution elements,
combinations themselves (one graded map or multilinear operation per weight).
The JSON readers and the series text format read numbers by :func:`parse_number`.
:class:`Combination` gives all of them the vector-space operations, equality
and the zero test, which none of them overrides, and :func:`add_into` is the
accumulation step of every product loop.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ShapeError, ValidationError, shown


def parse_number(value, kind, where: str):
    """``kind(value)`` for ``kind`` int or Fraction, refusing the digit-group
    underscores ("1_0") that Python's number parsers accept; the refusal is a
    ValidationError naming ``where``."""
    if isinstance(value, str) and "_" in value:
        raise ValidationError(f"{where} must not group digits with '_', got {shown(value)}")
    return kind(value)


def put(acc: dict, key, value) -> None:
    """Store ``value`` under ``key``, or drop ``key`` when ``value`` is zero."""
    if value:
        acc[key] = value
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
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        coeffs = {k: v * scalar for k, v in self._coeffs.items()} if scalar else {}
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
