"""Exact-rational graded linear algebra on finite-dimensional spaces.

A :class:`GradedSpace` is a finite family of standard-basis coordinate
spaces indexed by integer degrees.  A :class:`GradedMap` is a sparse
rational matrix between two graded spaces that shifts degree by a fixed
amount.  Composition is plain matrix composition -- maps between graded
spaces pick up no Koszul signs on their own; signs only appear when maps
act inside tensor products (see the ainf package).

Also home to the deterministic Gaussian solver used by the stage-wise
trivialization routines.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination, add_into, put
from .errors import ShapeError, ValidationError


class GradedSpace:
    """Finite-dimensional graded vector space with implicit standard basis."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        clean = {}
        for deg, dim in dims.items():
            deg, dim = int(deg), int(dim)
            if dim < 0:
                raise ValidationError(f"negative dimension {dim} in degree {deg}")
            if dim:
                clean[deg] = dim
        object.__setattr__(self, "dims", dict(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("GradedSpace is immutable")

    def dim(self, degree: int) -> int:
        return self.dims.get(degree, 0)

    def basis(self):
        """All basis labels ``(degree, index)`` in deterministic order."""
        return [(deg, i) for deg, dim in self.dims.items() for i in range(dim)]

    def has_basis(self, b) -> bool:
        deg, idx = b
        return 0 <= idx < self.dim(deg)

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(self.dims.items()))

    def __repr__(self):
        return f"GradedSpace({self.dims})"


class GradedMap(Combination):
    """Sparse degree-homogeneous linear map between graded spaces.

    Entries are keyed by ``(source_degree, source_index, target_index)``;
    the target degree is always ``source_degree + self.degree``.
    """

    __slots__ = ("source", "target", "degree", "entries")
    _shape = ("source", "target", "degree")
    _store = "entries"

    def __init__(self, source, target, degree, entries=None):
        self.source = source
        self.target = target
        self.degree = degree
        self.entries = {}
        if entries:
            for (sdeg, sidx, tidx), coeff in entries.items():
                self[sdeg, sidx, tidx] = self.entries.get((sdeg, sidx, tidx), 0) + coeff

    def __setitem__(self, key, coeff):
        sdeg, sidx, tidx = key
        coeff = Fraction(coeff)
        if not 0 <= sidx < self.source.dim(sdeg):
            raise ShapeError(f"no basis vector ({sdeg}, {sidx}) in the source")
        if not 0 <= tidx < self.target.dim(sdeg + self.degree):
            raise ShapeError(
                f"no basis vector ({sdeg + self.degree}, {tidx}) in the target"
            )
        put(self.entries, (sdeg, sidx, tidx), coeff)

    @staticmethod
    def zero(source, target, degree) -> "GradedMap":
        return GradedMap(source, target, degree)

    @staticmethod
    def identity(space) -> "GradedMap":
        out = GradedMap(space, space, 0)
        for deg, idx in space.basis():
            out[deg, idx, idx] = 1
        return out

    def apply(self, basis_label):
        """Image of one basis vector as a list of ((degree, index), coeff)."""
        deg, idx = basis_label
        out = []
        for (sdeg, sidx, tidx), coeff in self.entries.items():
            if sdeg == deg and sidx == idx:
                out.append(((deg + self.degree, tidx), coeff))
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target != self.source:
            raise ShapeError("composition: inner spaces differ")
        out = GradedMap(other.source, self.target, self.degree + other.degree)
        outer = {}
        for (sdeg, sidx, tidx), coeff in self.entries.items():
            outer.setdefault((sdeg, sidx), []).append((tidx, coeff))
        for (sdeg, sidx, mid), c1 in other.entries.items():
            for tidx, c2 in outer.get((sdeg + other.degree, mid), ()):
                add_into(out.entries, (sdeg, sidx, tidx), c1 * c2)
        return out

    def __hash__(self):
        return hash(
            (self.source, self.target, self.degree, frozenset(self.entries.items()))
        )

    def __repr__(self):
        return (
            f"<GradedMap degree={self.degree} "
            f"entries={sorted(self.entries.items())}>"
        )


def solve_sparse(rows, rhs, nvars):
    """Solve a sparse rational linear system by deterministic elimination.

    ``rows[i]`` is a dict ``var -> coeff`` (``Fraction`` or ``int``
    coefficients; an explicit zero counts as absent) and ``rhs[i]`` the
    right-hand side.  Returns ``(True, solution)`` with free variables set
    to 0, or ``(False, partial)`` where ``partial`` solves the consistent
    subsystem.

    Pivot rule: variables in increasing index order, each pivoting on the
    first (lowest-index) unused row with a non-zero coefficient in it.  A
    column index ``var -> unused rows holding var`` finds that row as the
    index's minimum and confines each elimination to the rows that hold the
    pivot variable, so a stage costs time in proportion to the entries it
    touches (input non-zeros plus fill-in), not rows x unknowns; the index
    holds one set entry per stored non-zero.
    """
    work = []
    vals = [Fraction(v) for v in rhs]
    holders = {}  # var -> indices of unused rows with a non-zero in var
    for i, r in enumerate(rows):
        row = {k: c for k, c in r.items() if c}
        work.append(row)
        for k in row:
            holders.setdefault(k, set()).add(i)
    pivots = []  # (var, normalized row, rhs)
    used = [False] * len(work)
    for var in range(nvars):
        column = holders.pop(var, None)
        if not column:
            continue
        pick = min(column)
        column.discard(pick)
        used[pick] = True
        row = work[pick]
        for k in row:
            if k != var:
                holders[k].discard(pick)
        inv = Fraction(1) / row[var]  # a Fraction even for int coefficients
        row = {k: c * inv for k, c in row.items()}
        val = vals[pick] * inv
        pivots.append((var, row, val))
        for i in column:
            other = work[i]
            factor = other.pop(var)
            neg = -factor
            for k, c in row.items():
                if k == var:
                    continue
                old = other.get(k)
                if old is None:
                    other[k] = neg * c
                    holders.setdefault(k, set()).add(i)
                else:
                    new = old + neg * c
                    if new:
                        other[k] = new
                    else:
                        del other[k]
                        holders[k].discard(i)
            vals[i] = vals[i] - factor * val
    consistent = all(used[i] or not val for i, val in enumerate(vals))
    solution = [Fraction(0)] * nvars
    for var, row, val in reversed(pivots):
        acc = val
        for k, c in row.items():
            if k != var:
                acc -= c * solution[k]
        solution[var] = acc
    return consistent, solution


def solve_stage(unknowns, rows_by_target, rhs_entries):
    """Solve one stage  L(x) = rhs  of a stage-wise trivializer search.

    ``unknowns`` lists the entry keys of the unknown map, ``rows_by_target``
    maps each target key to its row ``{unknown index: coeff}`` of the matrix
    of L, and ``rhs_entries`` is the right-hand side by target key.  Rows
    are ordered by target key and solved by :func:`solve_sparse`.  Returns
    ``(ok, entries, residual)``: the solution as a dict ``unknown key ->
    non-zero value`` and, when the system is inconsistent, the non-zero part
    of ``rhs - L(x)`` by target key, computed from the same rows.
    """
    targets = sorted(set(rows_by_target) | set(rhs_entries))
    rows = [rows_by_target.get(t, {}) for t in targets]
    rhs = [rhs_entries.get(t, Fraction(0)) for t in targets]
    ok, solution = solve_sparse(rows, rhs, len(unknowns))
    entries = {key: x for key, x in zip(unknowns, solution) if x}
    residual = {}
    if not ok:
        for t, row, b in zip(targets, rows, rhs):
            put(residual, t, b - sum(c * solution[var] for var, c in row.items()))
    return ok, entries, residual
