"""Exact-rational graded linear algebra on finite-dimensional spaces.

A :class:`GradedSpace` is a finite family of standard-basis coordinate
spaces indexed by integer degrees.  A :class:`GradedMap` is a sparse
rational matrix between two graded spaces that shifts degree by a fixed
amount.  Composition is plain matrix composition -- maps between graded
spaces pick up no Koszul signs on their own.

Also home to contractions: a :class:`Contraction` is a homotopy retract
(i, p, h) of a complex onto a smaller one, and :func:`contraction_of`
builds one onto the homology by exact elimination in each degree.  Both
trivializers twist a structure by the gauges of such a contraction.  The
echelon step :func:`_reduce` is the module's one elimination routine:
:func:`solve_sparse` solves a linear system with it too.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import Combination, add_into, exact, put, whole
from .errors import BoundsError, ShapeError, ValidationError, shown

# bound on the total dimension of a space whose basis is listed: trivializing
# a tower whose d is diagonal takes about 1.5 s at 4096 dimensions, 15 s at 16000
MAX_DIMENSION = 4096


class GradedSpace:
    """Finite-dimensional graded vector space with implicit standard basis."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        clean = {}
        for deg, dim in dims.items():
            for value in (deg, dim):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValidationError(f"a degree or dimension must be an int, got {shown(value)}")
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
        total = sum(self.dims.values())
        if total > MAX_DIMENSION:
            raise BoundsError(f"total dimension must be <= {MAX_DIMENSION}, got {shown(total)}")
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
        coeff = exact(coeff)
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
        out.entries = {(deg, idx, idx): 1 for deg, idx in space.basis()}
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

    def __repr__(self):
        return (
            f"<GradedMap degree={self.degree} "
            f"entries={sorted(self.entries.items())}>"
        )


class Contraction:
    """A homotopy retract (i, p, h) of ``big`` onto ``small`` with side conditions.

    ``d`` is the differential of the big space (degree -1); the five defining
    identities

        p i = id,   i p - id = d h + h d,   h h = 0,   p h = 0,   h i = 0

    are validated exactly at construction, as is d^2 = 0.  Construction also
    forms the projector ``pi`` = i p onto the image of the small space and
    the induced differential ``d_small`` = p d i on the small space.
    """

    __slots__ = ("big", "small", "d", "incl", "proj", "h", "pi", "d_small")

    def __init__(self, big, small, d, incl, proj, h):
        self.big = big
        self.small = small
        self.d = d
        self.incl = incl
        self.proj = proj
        self.h = h
        self._validate()
        self.d_small = proj.compose(d).compose(incl)

    def _validate(self):
        shapes = [
            (self.d, self.big, self.big, -1, "d"),
            (self.incl, self.small, self.big, 0, "i"),
            (self.proj, self.big, self.small, 0, "p"),
            (self.h, self.big, self.big, 1, "h"),
        ]
        for gmap, source, target, degree, name in shapes:
            if gmap.source != source or gmap.target != target or gmap.degree != degree:
                raise ValidationError(f"contraction map {name} has the wrong shape")
        self.pi = self.incl.compose(self.proj)
        checks = [
            ("d d = 0", self.d.compose(self.d).is_zero()),
            ("p i = id", self.proj.compose(self.incl) == GradedMap.identity(self.small)),
            (
                "i p - id = d h + h d",
                self.pi - GradedMap.identity(self.big)
                == self.d.compose(self.h) + self.h.compose(self.d),
            ),
            ("h h = 0", self.h.compose(self.h).is_zero()),
            ("p h = 0", self.proj.compose(self.h).is_zero()),
            ("h i = 0", self.h.compose(self.incl).is_zero()),
        ]
        for name, ok in checks:
            if not ok:
                raise ValidationError(f"contraction violates {name}")


def _reduce(v: dict, rows, acc: dict) -> None:
    """Reduce the vector ``v`` in place along echelon ``rows`` ``(pivot,
    vector, tag)``, each zero at the pivots of the rows before it, and take
    lambda * tag off ``acc`` for each lambda * vector taken off ``v``.
    Vectors and tags are dicts basis vector -> coefficient."""
    for pivot, row, tag in rows:
        if pivot in v:
            lam = whole(Fraction(v[pivot], row[pivot]))
            for b, c in row.items():
                put(v, b, v.get(b, 0) - lam * c)
            for b, c in tag.items():
                put(acc, b, acc.get(b, 0) - lam * c)


def contraction_of(space: GradedSpace, d: GradedMap) -> Contraction:
    """A contraction of (``space``, d) onto its homology, with zero induced
    differential, by exact elimination in each degree.

    Write V_k = B_k + H_k + C_k, with B_k = im d, H_k a complement of B_k in
    ker d, and C_k spanned by preimages of B_(k-1).  Eliminating the images
    d(e) of the basis vectors in basis order gives echelon rows of B_(k-1),
    each tagged with its preimage in C_k, and kernel vectors; those of
    degree k independent of B_k and of each other span H_k.  Then i and p
    include and project H along B + C, and h = -(d|C)^(-1) on B and 0 on
    H + C.  All of it is read from the entries of d, and the identities,
    which hold by construction, are checked by :class:`Contraction`.
    """
    images: dict = {}  # basis vector -> its image under d
    for (sdeg, sidx, tidx), c in d.entries.items():
        images.setdefault((sdeg, sidx), {})[sdeg + d.degree, tidx] = c
    bounds: dict = {}  # degree k -> echelon rows of B_k, tagged by preimages
    cycles: dict = {}  # degree k -> echelon rows of H_k, tagged by minus H's basis
    kernel = []
    for e in space.basis():
        v, pre = dict(images.get(e, {})), {e: 1}
        rows = bounds.setdefault(e[0] + d.degree, [])
        _reduce(v, rows, pre)
        if v:
            rows.append((min(v), v, pre))
        else:
            kernel.append((e[0], pre))
    for k, z in kernel:
        rows = cycles.setdefault(k, [])
        _reduce(z, bounds.get(k, []) + rows, {})
        if z:
            rows.append((min(z), z, {(k, len(rows)): -1}))
    small = GradedSpace({k: len(rows) for k, rows in cycles.items()})
    incl, proj = GradedMap(small, space, 0), GradedMap(space, small, 0)
    h = GradedMap(space, space, -d.degree)
    for k, rows in cycles.items():
        for j, (_pivot, z, _tag) in enumerate(rows):
            for (_, idx), c in z.items():
                incl[k, j, idx] = c
    for e in space.basis():
        x, hx, px = {e: 1}, {}, {}
        _reduce(dict(images.get(e, {})), bounds.get(e[0] + d.degree, ()), x)  # x in ker d
        _reduce(x, bounds.get(e[0], ()), hx)  # minus the preimage of x's part in B
        _reduce(x, cycles.get(e[0], ()), px)  # the rest of x, in H's basis
        for (_, idx), c in hx.items():
            h[e[0], e[1], idx] = c
        for (_, j), c in px.items():
            proj[e[0], e[1], j] = c
    return Contraction(space, small, d, incl, proj, h)


# Unused by the library; kept while perfbench/spans.SolveSizes rebinds it on every run.
def solve_sparse(rows, rhs, nvars):
    """Solve a sparse rational linear system by deterministic elimination.

    ``rows[i]`` is a dict ``var -> coeff`` (``Fraction`` or ``int``
    coefficients; an explicit zero counts as absent) and ``rhs[i]`` the
    right-hand side.  Returns ``(True, solution)`` with free variables set
    to 0, or ``(False, partial)`` where ``partial`` solves the consistent
    subsystem; every value is a ``Fraction``.

    Each equation, its right-hand side under the key ``nvars`` (after every
    variable), is reduced by :func:`_reduce` along the equations kept before
    it.  One with a variable left is kept, pivoting on its lowest variable;
    one with only its right-hand side left makes the system inconsistent.
    The kept equations are back-substituted in reverse order.

    The result is that of the pivot rule "variables in increasing order,
    each on the lowest-index unused row holding it": the kept equations are
    the first rows independent of the rows before them, and so are that
    rule's pivot rows, since a row it never pivots on was only reduced by
    pivot rows of lower index.  Both are echelon bases of one row space, so
    they have the same pivot variables and the same solution with the free
    variables at 0, or partial solution when the system is inconsistent.
    """
    kept = []  # (pivot, equation, no tag): echelon rows as _reduce takes them
    consistent = True
    for row, b in zip(rows, rhs):
        v = {k: c for k, c in row.items() if c}
        put(v, nvars, b)
        _reduce(v, kept, {})
        pivot = min(v, default=nvars)
        if pivot < nvars:
            kept.append((pivot, v, {}))
        elif v:
            consistent = False
    x = [Fraction(0)] * nvars + [Fraction(-1)]  # so v . x is v's left side minus its right side
    for pivot, v, _tag in reversed(kept):
        x[pivot] = Fraction(-sum(c * x[k] for k, c in v.items() if k != pivot), v[pivot])
    return consistent, x[:nvars]
