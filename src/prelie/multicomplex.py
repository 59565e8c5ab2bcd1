"""Multicomplexes: towers of operators under weight-graded convolution.

A structure tower packs an internal differential (weight 0, degree -1)
together with higher operators d_n of degree 2n - 1; the square-zero
condition  sum_{i+j=n} d_i d_j = 0  is the Maurer-Cartan equation of the
associative convolution product implemented by :func:`star`.  Gauge towers
carry degree 2n per weight, exponentiate classically, and act on structure
towers by conjugation.  ``trivialize`` solves  f * delta = alpha * f  stage
by stage with exact Gaussian elimination.

Degree convention: weight n of a structure tower has degree 2n - 1 (the
weight-0 slot holds the degree -1 differential).  Other gradings can be
obtained by passing a different ``offset`` to :class:`OperatorTower`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import calculus
from .combination import Combination, add_into
from .errors import DomainError, ShapeError, ValidationError
from .linalg import GradedMap, GradedSpace, solve_sparse

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
        return self.truncation

    def unit_like(self) -> "OperatorTower":
        if self.offset != GAUGE:
            raise DomainError("only gauge-type towers have a unit")
        return unit_tower(self.space, self.truncation)

    def zero_like(self) -> "OperatorTower":
        return OperatorTower(self.space, self.truncation, self.offset)

    def weight_component(self, n: int) -> "OperatorTower":
        out = OperatorTower(self.space, self.truncation, self.offset)
        if n in self.components:
            out.components[n] = self.components[n]
        return out

    def star(self, other: "OperatorTower") -> "OperatorTower":
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


@dataclass
class MCReport:
    """Outcome of a Maurer-Cartan check: flat square, or first bad weight."""

    ok: bool
    weight: Optional[int] = None
    residual: Optional[GradedMap] = None

    def __bool__(self):
        return self.ok


def mc_check(alpha: OperatorTower) -> MCReport:
    """True iff  (alpha * alpha)_(n) = 0  for all weights up to truncation."""
    if alpha.offset != STRUCTURE:
        raise DomainError("mc_check expects a structure tower")
    square = star(alpha, alpha)
    for n in sorted(square.components):
        return MCReport(False, n, square.components[n])
    return MCReport(True)


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
    return calculus.assoc_log(f)


def conjugate(lam: OperatorTower, alpha: OperatorTower) -> OperatorTower:
    """Gauge action  e^lam * alpha * e^{-lam}."""
    if not lam.weight_component(0).is_zero():
        raise DomainError("gauge parameter must have zero weight-0 part")
    return star(star(exp_assoc(lam), alpha), exp_assoc(-lam))


def isotopy_check(f: OperatorTower, alpha: OperatorTower, beta: OperatorTower) -> bool:
    """Does f intertwine the structures:  f * alpha == beta * f ?"""
    if f.component(0) != GradedMap.identity(f.space):
        raise DomainError("an isotopy must have the identity in weight 0")
    return star(f, alpha) == star(beta, f)


@dataclass
class TrivializeResult:
    """Either a trivializing isotopy (with its logarithm) or the obstruction."""

    found: bool
    f: Optional[OperatorTower] = None
    log: Optional[OperatorTower] = None
    stage: Optional[int] = None
    residual: Optional[GradedMap] = None

    def __bool__(self):
        return self.found


def _delta_only(alpha: OperatorTower) -> OperatorTower:
    return OperatorTower(
        alpha.space, alpha.truncation, STRUCTURE, {0: alpha.component(0)}
    )


def trivialize(alpha: OperatorTower) -> TrivializeResult:
    """Solve  f * delta = alpha * f  for an isotopy f = 1 + f_(1) + ...

    Each stage is the exact linear system  f_(n) d - d f_(n) = RHS(f_(<n))
    solved by deterministic Gaussian elimination; any particular solution is
    accepted.  On an unsolvable stage the result carries the stage weight and
    the unmatched residual.
    """
    report = mc_check(alpha)
    if not report.ok:
        raise DomainError(f"trivialize needs a Maurer-Cartan tower; fails at weight {report.weight}")
    space = alpha.space
    d = alpha.component(0)
    delta = _delta_only(alpha)
    f = unit_tower(space, alpha.truncation)
    for n in range(1, alpha.truncation + 1):
        rhs_map = (star(alpha, f) - star(f, delta)).component(n)
        if rhs_map.is_zero():
            continue
        unknown_deg = 2 * n
        variables = []
        var_index = {}
        for sdeg, sdim in space.dims.items():
            tdim = space.dim(sdeg + unknown_deg)
            for sidx in range(sdim):
                for tidx in range(tdim):
                    var_index[sdeg, sidx, tidx] = len(variables)
                    variables.append((sdeg, sidx, tidx))

        def commutator(entry_key):
            fn = GradedMap(space, space, unknown_deg, {entry_key: Fraction(1)})
            return fn.compose(d) - d.compose(fn)

        rows_by_target: dict = {}
        for key in variables:
            for tkey, coeff in commutator(key).entries.items():
                rows_by_target.setdefault(tkey, {})[var_index[key]] = coeff
        targets = sorted(set(rows_by_target) | set(rhs_map.entries))
        rows = [rows_by_target.get(t, {}) for t in targets]
        rhs = [rhs_map.entries.get(t, Fraction(0)) for t in targets]
        ok, solution = solve_sparse(rows, rhs, len(variables))
        fn = GradedMap(space, space, unknown_deg)
        for key, var in var_index.items():
            if solution[var]:
                fn.entries[key] = solution[var]
        if not ok:
            residual = rhs_map - (fn.compose(d) - d.compose(fn))
            return TrivializeResult(False, stage=n, residual=residual)
        f = f + OperatorTower(space, alpha.truncation, GAUGE, {n: fn})
    assert isotopy_check(f, delta, alpha)
    return TrivializeResult(True, f=f, log=log_assoc(f))


# -- JSON interchange ----------------------------------------------------------


def space_to_dict(space: GradedSpace) -> dict:
    return {"dims": {str(deg): dim for deg, dim in space.dims.items()}}


def space_from_dict(data: dict) -> GradedSpace:
    try:
        dims = {int(deg): int(dim) for deg, dim in data["dims"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad space description: {exc}") from None
    return GradedSpace(dims)


def map_entries_to_list(gmap: GradedMap) -> list:
    return [
        [sdeg, sidx, tidx, str(coeff)]
        for (sdeg, sidx, tidx), coeff in sorted(gmap.entries.items())
    ]


def map_entries_from_list(entries, source, target, degree) -> GradedMap:
    out = GradedMap(source, target, degree)
    row = entries  # named in the message when ``entries`` is not a list
    try:
        for row in entries:
            sdeg, sidx, tidx, coeff = row
            key = (int(sdeg), int(sidx), int(tidx))
            out[key] = out.entries.get(key, 0) + Fraction(coeff)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad operator entry {row!r}: {exc}") from None
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


def tower_from_dict(data: dict, offset: int = STRUCTURE, space=None, truncation=None) -> OperatorTower:
    if space is None:
        space = space_from_dict(data["space"])
    if truncation is None:
        truncation = int(data.get("truncation", 0))
    components = {}
    for op in data.get("operators", ()):
        try:
            weight = int(op["weight"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad operator record: {exc}") from None
        gmap = map_entries_from_list(
            op.get("entries", ()), space, space, 2 * weight + offset
        )
        components[weight] = components.get(weight, gmap.zero(space, space, gmap.degree)) + gmap
    return OperatorTower(space, truncation, offset, components)
