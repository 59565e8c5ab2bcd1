"""Multicomplexes: towers of operators under weight-graded convolution.

A structure tower packs an internal differential (weight 0, degree -1)
together with higher operators d_n of degree 2n - 1; the square-zero
condition  sum_{i+j=n} d_i d_j = 0  is the Maurer-Cartan equation of the
associative convolution product implemented by :func:`star`.  Gauge towers
carry degree 2n per weight, exponentiate classically, and act on structure
towers by conjugation.  ``trivialize`` decides gauge triviality by the
transfer to the homology (the homological perturbation lemma), and solves
f * delta = alpha * f by the gauges of the contraction onto it.  Both come
from :mod:`calculus`, of which towers are the associative case.

Degree convention: weight n of a structure tower has degree 2n - 1 (the
weight-0 slot holds the degree -1 differential).  Other gradings can be
obtained by passing a different ``offset`` to :class:`OperatorTower`.
"""

from __future__ import annotations

from fractions import Fraction

from . import calculus
from .combination import Combination, add_into, coefficient_text, parse_number
from .errors import DomainError, InternalCheckError, ShapeError, ValidationError, shown
from .linalg import GradedMap, GradedSpace, contraction_of

STRUCTURE = -1  # per-weight degree 2n - 1
GAUGE = 0  # per-weight degree 2n


class OperatorTower(Combination):
    """Weight-indexed family of graded operators on one space.

    ``offset`` fixes the degree of the weight-n component to ``2n + offset``;
    ``STRUCTURE`` and ``GAUGE`` are the two kinds used by the public
    operations, and products add offsets.
    """

    __slots__ = ("space", "truncation", "offset", "components")
    _shape = ("space", "truncation", "offset")
    _store = "components"

    def __init__(self, space: GradedSpace, truncation: int, offset: int, components=None):
        if truncation < 1:
            raise DomainError("truncation weight must be >= 1")
        self.space = space
        self.truncation = truncation
        self.offset = offset
        self.components = {}
        if components:
            for weight, gmap in components.items():
                self._insert(weight, gmap)

    def _insert(self, weight: int, gmap: GradedMap):
        if not 0 <= weight <= self.truncation:
            return
        if gmap.source != self.space or gmap.target != self.space:
            raise ShapeError("tower component does not act on the tower's space")
        if gmap.degree != self.degree_of_weight(weight):
            raise ShapeError(
                f"weight-{weight} component must have degree "
                f"{self.degree_of_weight(weight)}, got {gmap.degree}"
            )
        if not gmap.is_zero():
            self.components[weight] = gmap

    def degree_of_weight(self, weight: int) -> int:
        return 2 * weight + self.offset

    @property
    def kind(self) -> str:
        return {STRUCTURE: "structure", GAUGE: "gauge"}.get(self.offset, f"offset {self.offset}")

    def component(self, weight: int) -> GradedMap:
        got = self.components.get(weight)
        if got is not None:
            return got
        return GradedMap.zero(self.space, self.space, self.degree_of_weight(weight))

    # -- protocol for the generic calculus ---------------------------------

    @property
    def max_weight(self) -> int:
        """The truncation, or the top weight whose degree 2n + offset a map
        of the space into itself can have, if that is lower: above it every
        component is zero, whatever the truncation."""
        degrees = self.space.dims
        span = max(degrees) - min(degrees) if degrees else 0
        return min(self.truncation, (span - self.offset) // 2)

    def unit_like(self) -> "OperatorTower":
        """The gauge-type unit, whatever the offset of ``self``."""
        return unit_tower(self.space, self.truncation)

    def weight_component(self, n: int) -> "OperatorTower":
        out = OperatorTower(self.space, self.truncation, self.offset)
        if n in self.components:
            out.components[n] = self.components[n]
        return out

    def star(self, other: "OperatorTower") -> "OperatorTower":
        return star(self, other)

    def circle(self, other: "OperatorTower") -> "OperatorTower":
        # associative: every symmetric brace of arity >= 2 vanishes, so (o) is *
        return star(self, other)

    def __repr__(self):
        return (
            f"<OperatorTower {self.kind} truncation={self.truncation} "
            f"weights={sorted(self.components)}>"
        )


def unit_tower(space: GradedSpace, truncation: int) -> OperatorTower:
    """The convolution unit: identity at weight 0, gauge type."""
    return OperatorTower(space, truncation, GAUGE, {0: GradedMap.identity(space)})


def structure_tower(space: GradedSpace, truncation: int, components) -> OperatorTower:
    return OperatorTower(space, truncation, STRUCTURE, components)


def gauge_tower(space: GradedSpace, truncation: int, components) -> OperatorTower:
    return OperatorTower(space, truncation, GAUGE, components)


def star(f: OperatorTower, g: OperatorTower) -> OperatorTower:
    """Convolution product  (f * g)_(n) = sum_{i+j=n} f_(i) o g_(j)."""
    if not isinstance(g, OperatorTower):
        raise TypeError(f"expected OperatorTower, got {type(g).__name__}")
    if f.space != g.space:
        raise ShapeError("towers act on different spaces")
    if f.truncation != g.truncation:
        raise ShapeError("towers have different truncation weights")
    out = OperatorTower(f.space, f.truncation, f.offset + g.offset)
    for i, fi in f.components.items():
        for j, gj in g.components.items():
            n = i + j
            if n > f.truncation:
                continue
            add_into(out.components, n, fi.compose(gj))
    return out


def mc_check(alpha: OperatorTower) -> calculus.MCReport:
    """True iff  (alpha * alpha)_(n) = 0  for all weights up to truncation;
    otherwise ``stage`` is the first bad weight."""
    if alpha.offset != STRUCTURE:
        raise DomainError("mc_check expects a structure tower")
    return calculus.mc_report(alpha)


def exp_assoc(lam: OperatorTower) -> OperatorTower:
    """Exponential of a gauge tower with vanishing weight-0 part."""
    if lam.offset != GAUGE:
        raise DomainError("exp expects a gauge-type tower")
    return calculus.exp_series(lam)


def log_assoc(f: OperatorTower) -> OperatorTower:
    """Logarithm of a gauge tower with identity weight-0 part."""
    if f.offset != GAUGE:
        raise DomainError("log expects a gauge-type tower")
    if f.component(0) != GradedMap.identity(f.space):
        raise DomainError("log expects the identity in weight 0")
    return calculus.magnus_series(f - f.unit_like())


def conjugate(lam: OperatorTower, alpha: OperatorTower) -> OperatorTower:
    """Gauge action  e^lam * alpha * e^{-lam}, by :func:`calculus.gauge_act`."""
    if not lam.weight_component(0).is_zero():
        raise DomainError("gauge parameter must have zero weight-0 part")
    if lam.offset != GAUGE:
        raise DomainError("exp expects a gauge-type tower")
    return calculus.gauge_act(lam, alpha)


def isotopy_check(f: OperatorTower, alpha: OperatorTower, beta: OperatorTower) -> bool:
    """Does f intertwine the structures:  f * alpha == beta * f ?"""
    if f.component(0) != GradedMap.identity(f.space):
        raise DomainError("an isotopy must have the identity in weight 0")
    return star(f, alpha) == star(beta, f)


def trivialize(alpha: OperatorTower) -> calculus.Trivialization:
    """Decide whether a Maurer-Cartan tower is gauge trivial, and find an
    isotopy f = 1 + f_(1) + ... with  f * delta = alpha * f  if it is, by
    :func:`calculus.trivialize` with the homotopy h of
    :func:`linalg.contraction_of` as an offset-1 tower and  h^*(y) = -y * h.
    A found isotopy that fails  f * delta == alpha * f  is a library bug
    and raises ``InternalCheckError``.
    """
    report = mc_check(alpha)
    if not report.ok:
        raise DomainError(f"trivialize needs a Maurer-Cartan tower; fails at weight {report.stage}")
    c = contraction_of(alpha.space, alpha.component(0))
    h = OperatorTower(alpha.space, alpha.truncation, 1, {0: c.h})
    result = calculus.trivialize(alpha, h, lambda y: -y.star(h))
    if result.found and not isotopy_check(result.f, alpha.weight_component(0), alpha):
        raise InternalCheckError("trivialize: the isotopy found fails f * delta == alpha * f")
    return result


# -- JSON interchange ----------------------------------------------------------


def json_object(value, where: str) -> dict:
    """``value`` itself if it is a JSON object; else a ValidationError naming ``where``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def json_list(value, where: str):
    """``value`` itself if it is a list; else a ValidationError naming ``where``."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where} must be a list, got {type(value).__name__}")
    return value


def json_int(value, where: str, kind=int):
    """``value`` as ``kind``, read from a JSON integer or a string of one (of
    an exact rational such as ``"-3/4"`` for ``Fraction``).  Anything else is
    a ValidationError naming ``where``: a float (JSON ``2.9``, ``1e400``,
    ``Infinity``), a boolean, a string with ``_`` or one that is no number,
    null, a list or an object."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return parse_number(value, kind, where)
        except ValidationError:
            raise
        except (ValueError, ZeroDivisionError):  # int and Fraction echo the value whole
            pass
    what = "an integer" if kind is int else "an integer or a rational string"
    raise ValidationError(f"{where} must be {what}, got {shown(value)}")


def json_coeff(value, where: str) -> Fraction:
    """``value`` as an exact rational, read as :func:`json_int` says."""
    return json_int(value, where, Fraction)


def space_to_dict(space: GradedSpace) -> dict:
    return {"dims": {str(deg): dim for deg, dim in space.dims.items()}}


def space_from_dict(data: dict) -> GradedSpace:
    try:
        dims = {json_int(d, "a degree"): json_int(n, "a dimension") for d, n in data["dims"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad space description: {exc}") from None
    return GradedSpace(dims)


def map_entries_to_list(gmap: GradedMap) -> list:
    return [
        [sdeg, sidx, tidx, coefficient_text(coeff)]
        for (sdeg, sidx, tidx), coeff in sorted(gmap.entries.items())
    ]


def map_entries_from_list(entries, source, target, degree) -> GradedMap:
    out = GradedMap(source, target, degree)
    row = entries  # named in the message when ``entries`` is not a list
    try:
        for row in json_list(entries, "operator entries"):
            sdeg, sidx, tidx, coeff = row
            key = tuple(json_int(x, "a degree or index") for x in (sdeg, sidx, tidx))
            out[key] = out.entries.get(key, 0) + json_coeff(coeff, "a coefficient")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad operator entry {shown(row)}: {exc}") from None
    return out


def tower_to_dict(tower: OperatorTower) -> dict:
    return {
        "space": space_to_dict(tower.space),
        "truncation": tower.truncation,
        "kind": tower.kind,
        "operators": [
            {"weight": w, "entries": map_entries_to_list(tower.component(w))}
            for w in sorted(tower.components)
        ],
    }


def space_and_truncation(data, truncation=None, space=None):
    """The graded space and the truncation of a JSON record; an argument that
    is given overrides the record's value.  A truncation that is missing,
    non-numeric or below 1 is refused with one message, and a float, a
    boolean or ``"1_0"`` with that of :func:`json_int`."""
    if not isinstance(data, dict) or space is None and "space" not in data:
        raise ValidationError('expected a JSON object with a "space" record')
    if space is None:
        space = space_from_dict(data["space"])
    if truncation is None:
        truncation = data.get("truncation")
    try:
        n = json_int(truncation, '"truncation"')
    except ValidationError:
        if isinstance(truncation, (bool, float)) or isinstance(truncation, str) and "_" in truncation:
            raise
        n = 0
    if n < 1:
        raise ValidationError(f"truncation must be a positive integer, got {shown(truncation)}")
    return space, n


def tower_from_dict(data: dict, offset: int = STRUCTURE, space=None, truncation=None) -> OperatorTower:
    """The tower of a JSON record, read as :func:`space_and_truncation` says;
    operators of one weight are summed."""
    space, truncation = space_and_truncation(data, truncation, space)
    components = {}
    for op in json_list(data.get("operators", ()), '"operators"'):
        try:
            weight = json_int(op["weight"], '"weight"')
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad operator record: {exc}") from None
        if not 0 <= weight <= truncation:
            raise ValidationError(
                f"operator of weight {shown(weight)} outside 0..{shown(truncation)}")
        add_into(components, weight, map_entries_from_list(
            op.get("entries", ()), space, space, 2 * weight + offset
        ))
    return OperatorTower(space, truncation, offset, components)
