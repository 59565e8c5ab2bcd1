"""Arity-graded convolution pre-Lie algebra of multilinear operations.

Elements collect one multilinear map per arity on a graded rational space;
the weight of the arity-n component is n - 1.  Everything is stored in
desuspended form: a homotopy-associative structure is a family of degree -1
operations whose square vanishes, a morphism is a family of degree-0
operations.  All signs reduce to one Koszul rule, applied when a map passes
graded inputs inside a partial composition or a tensor of maps.

``star`` is the insertion (pre-Lie) product; ``circle`` is the associative
composition product defined on group-like elements (and extended verbatim to
arbitrary operands).  Maurer-Cartan checking, the infinity-morphism
equation, and the gauge action are built from the two products.
"""

from __future__ import annotations

from fractions import Fraction

from .. import calculus
from ..combination import Combination, add_into, put
from ..errors import BoundsError, DomainError, ShapeError
from ..linalg import GradedMap, GradedSpace

DEFAULT_TRUNCATION_ARITY = 5


class MultiOp(Combination):
    """Sparse multilinear map  source^{tensor n} -> target  of fixed degree.

    Entries are keyed by ``(inputs, output)`` where ``inputs`` is a tuple of
    n basis labels ``(degree, index)`` of the source and ``output`` one basis
    label of the target.  Stored entries always satisfy
    ``output degree == sum of input degrees + self.degree``.
    """

    __slots__ = ("source", "target", "arity", "degree", "entries")
    _shape = ("source", "target", "arity", "degree")
    _store = "entries"

    def __init__(self, source, target, arity, degree, entries=None):
        if arity < 1:
            raise BoundsError(f"arity must be >= 1, got {arity}")
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        self.entries = {}
        if entries:
            for (ins, out), coeff in entries.items():
                self[ins, out] = self.entries.get((ins, out), 0) + coeff

    def __setitem__(self, key, coeff):
        ins, out = key
        ins = tuple(ins)
        coeff = Fraction(coeff)
        if len(ins) != self.arity:
            raise ShapeError(f"expected {self.arity} inputs, got {len(ins)}")
        for b in ins:
            if not self.source.has_basis(b):
                raise ShapeError(f"no basis vector {b} in the source")
        if not self.target.has_basis(out):
            raise ShapeError(f"no basis vector {out} in the target")
        if out[0] != sum(b[0] for b in ins) + self.degree:
            raise ShapeError(
                f"entry {ins} -> {out} violates the degree-{self.degree} rule"
            )
        put(self.entries, (ins, out), coeff)

    @staticmethod
    def identity(space) -> "MultiOp":
        out = MultiOp(space, space, 1, 0)
        for b in space.basis():
            out.entries[(b,), b] = Fraction(1)
        return out

    @staticmethod
    def from_graded_map(gmap: GradedMap) -> "MultiOp":
        out = MultiOp(gmap.source, gmap.target, 1, gmap.degree)
        for (sdeg, sidx, tidx), coeff in gmap.entries.items():
            out.entries[((sdeg, sidx),), (sdeg + gmap.degree, tidx)] = coeff
        return out

    def __repr__(self):
        return (
            f"<MultiOp arity={self.arity} degree={self.degree} "
            f"#entries={len(self.entries)}>"
        )


def compose_at(f: MultiOp, g: MultiOp, j: int) -> MultiOp:
    """Partial composition: plug g into the j-th input slot of f (1-based).

    Koszul rule: moving the degree-|g| map past the first j-1 inputs costs
    (-1)^(|g| * (sum of their degrees)).
    """
    if not 1 <= j <= f.arity:
        raise BoundsError(f"insertion position {j} not in 1..{f.arity}")
    if g.target != f.source:
        raise ShapeError("inner operation does not land in the outer source")
    out = MultiOp(
        g.source if f.arity == 1 else f.source,
        f.target,
        f.arity + g.arity - 1,
        f.degree + g.degree,
    )
    if f.arity > 1 and g.source != f.source:
        raise ShapeError("mixed-space insertion needs an arity-1 outer map")
    by_output: dict = {}
    for (gins, gout), gc in g.entries.items():
        by_output.setdefault(gout, []).append((gins, gc))
    odd = g.degree % 2
    for (fins, fout), fc in f.entries.items():
        slot = fins[j - 1]
        matches = by_output.get(slot)
        if not matches:
            continue
        sign = -1 if odd and sum(b[0] for b in fins[: j - 1]) % 2 else 1
        for gins, gc in matches:
            add_into(out.entries, (fins[: j - 1] + gins + fins[j:], fout), sign * fc * gc)
    return out


def _compose_tensor(f: MultiOp, factors) -> MultiOp:
    """Full composite  f o (g_1 x ... x g_k)  with Koszul signs.

    ``factors`` has length f.arity; factor m picks up the sign
    (-1)^(|g_m| * (sum of raw input degrees of the blocks before it)).
    """
    if len(factors) != f.arity:
        raise ShapeError("need one factor per input slot")
    source = factors[0].source
    for g in factors:
        if g.source != source:
            raise ShapeError("tensor factors start on different spaces")
        if g.target != f.source:
            raise ShapeError("tensor factors do not land in the outer source")
    out = MultiOp(
        source,
        f.target,
        sum(g.arity for g in factors),
        f.degree + sum(g.degree for g in factors),
    )
    by_output = []
    for g in factors:
        table: dict = {}
        for (gins, gout), gc in g.entries.items():
            table.setdefault(gout, []).append((gins, gc))
        by_output.append(table)

    def expand(slot, ins_acc, coeff, parity):
        if slot == f.arity:
            add_into(out.entries, (ins_acc, current_out), coeff)
            return
        for gins, gc in by_output[slot].get(current_ins[slot], ()):
            sign = -1 if (factors[slot].degree % 2) and parity % 2 else 1
            expand(
                slot + 1,
                ins_acc + gins,
                coeff * gc * sign,
                parity + sum(b[0] for b in gins),
            )

    for (fins, fout), fc in f.entries.items():
        current_ins = fins
        current_out = fout
        expand(0, (), fc, 0)
    return out


class ConvElement(Combination):
    """Series of multilinear operations, one per arity, of a common degree.

    ``kind`` is "structure" for degree -1 and "morphism" for degree 0; other
    degrees occur transiently (a homotopy viewed as an element has degree 1).
    """

    __slots__ = ("source", "target", "truncation", "degree", "components")
    _shape = ("source", "target", "truncation", "degree")
    _store = "components"

    def __init__(self, source, target, truncation, degree, components=None):
        if truncation < 1:
            raise BoundsError("truncation arity must be >= 1")
        self.source = source
        self.target = target
        self.truncation = truncation
        self.degree = degree
        self.components = {}
        if components:
            for arity, op in components.items():
                self._insert(arity, op)

    def _insert(self, arity: int, op: MultiOp):
        if not 1 <= arity <= self.truncation:
            return
        if op.arity != arity or op.degree != self.degree:
            raise ShapeError("component does not match the element's arity/degree")
        if op.source != self.source or op.target != self.target:
            raise ShapeError("component does not match the element's spaces")
        if not op.is_zero():
            self.components[arity] = op

    @property
    def kind(self) -> str:
        return {-1: "structure", 0: "morphism"}.get(self.degree, f"degree {self.degree}")

    def component(self, arity: int) -> MultiOp:
        got = self.components.get(arity)
        if got is not None:
            return got
        return MultiOp(self.source, self.target, arity, self.degree)

    # -- protocol for the generic calculus ---------------------------------

    @property
    def max_weight(self) -> int:
        return self.truncation - 1

    def unit_like(self) -> "ConvElement":
        if self.source != self.target:
            raise DomainError("only endomorphism-type elements have a unit")
        return unit_element(self.source, self.truncation)

    def zero_like(self) -> "ConvElement":
        return ConvElement(self.source, self.target, self.truncation, self.degree)

    def weight_component(self, n: int) -> "ConvElement":
        out = self.zero_like()
        if n + 1 in self.components:
            out.components[n + 1] = self.components[n + 1]
        return out

    def star(self, other: "ConvElement") -> "ConvElement":
        return star(self, other)

    def __repr__(self):
        return (
            f"<ConvElement {self.kind} truncation={self.truncation} "
            f"arities={sorted(self.components)}>"
        )


def unit_element(space: GradedSpace, truncation: int) -> ConvElement:
    """The two-sided circle unit / left star unit: identity at arity 1."""
    return ConvElement(space, space, truncation, 0, {1: MultiOp.identity(space)})


def element_from_map(gmap: GradedMap, truncation: int) -> ConvElement:
    """View a graded linear map as the arity-1 convolution element."""
    return ConvElement(
        gmap.source,
        gmap.target,
        truncation,
        gmap.degree,
        {1: MultiOp.from_graded_map(gmap)},
    )


def star(f: ConvElement, g: ConvElement) -> ConvElement:
    """Insertion product  (f * g)_n = sum over slots of f_k o_j g_l.

    Right-symmetric associator (pre-Lie); the unit is a left unit only.
    ``g`` must be an endomorphism-type element of f's source.
    """
    if not isinstance(g, ConvElement):
        raise TypeError(f"expected ConvElement, got {type(g).__name__}")
    if g.source != g.target or g.target != f.source:
        raise ShapeError("star inserts an endomorphism element of f's source")
    if f.truncation != g.truncation:
        raise ShapeError("elements have different truncation arities")
    out = ConvElement(f.source, f.target, f.truncation, f.degree + g.degree)
    for k, fk in f.components.items():
        for l, gl in g.components.items():
            n = k + l - 1
            if n > f.truncation:
                continue
            for j in range(1, k + 1):
                add_into(out.components, n, compose_at(fk, gl, j))
    return out


def circle(f: ConvElement, g: ConvElement) -> ConvElement:
    """Composition product  (f (o) g)_n = sum f_k o (g_{i_1} x .. x g_{i_k}).

    Associative and unital on group-like elements; defined by the same
    formula for arbitrary f.  The right factor must have degree 0 so the
    result stays degree-homogeneous.
    """
    if not isinstance(g, ConvElement):
        raise TypeError(f"expected ConvElement, got {type(g).__name__}")
    if g.target != f.source:
        raise ShapeError("circle composes g into f")
    if f.truncation != g.truncation:
        raise ShapeError("elements have different truncation arities")
    if g.degree != 0 and any(a != 1 for a in f.components):
        # One inhomogeneous factor is fine when f is pure postcomposition.
        raise DomainError("right factor of the circle product must have degree 0")
    out_degree = f.degree + (g.degree if g.degree != 0 else 0)
    out = ConvElement(g.source, f.target, f.truncation, out_degree)
    for k, fk in f.components.items():
        for split in _compositions(k, f.truncation):
            factors = [g.components.get(i) for i in split]
            if any(op is None for op in factors):
                continue
            term = _compose_tensor(fk, factors)
            add_into(out.components, term.arity, term)
    return out


def _compositions(k: int, total_max: int):
    """All tuples (i_1..i_k) of positive integers with sum <= total_max."""
    if k == 1:
        return [(i,) for i in range(1, total_max + 1)]
    out = []
    for first in range(1, total_max - k + 2):
        for rest in _compositions(k - 1, total_max - first):
            out.append((first,) + rest)
    return out


def circle_inverse(g: ConvElement) -> ConvElement:
    """Circle inverse of a group-like element, solved weight by weight."""
    return calculus.circle_inverse(g, circle)


def mc_check(alpha: ConvElement) -> calculus.MCReport:
    """True iff  alpha * alpha = 0  up to the truncation arity; otherwise
    ``stage`` is the first bad arity.

    For the desuspended structure of a differential graded algebra this is
    exactly d^2 = 0, the Leibniz rule, and associativity.
    """
    if alpha.degree != -1:
        raise DomainError("mc_check expects a structure-kind element (degree -1)")
    return calculus.mc_report(alpha)


def inf_morphism_check(f: ConvElement, alpha: ConvElement, beta: ConvElement) -> bool:
    """Does f satisfy the infinity-morphism equation  f * alpha == beta (o) f ?

    ``alpha`` lives on f's source, ``beta`` on f's target; f may relate two
    different spaces (e.g. the extended inclusion of a transfer).
    """
    if f.degree != 0:
        raise DomainError("an infinity-morphism has degree 0")
    if alpha.source != f.source or alpha.target != f.source:
        raise ShapeError("alpha must be a structure on the source of f")
    if beta.source != f.target or beta.target != f.target:
        raise ShapeError("beta must be a structure on the target of f")
    return star(f, alpha) == circle(beta, f)


def gauge_act(lam: ConvElement, alpha: ConvElement) -> ConvElement:
    """Gauge action  (e^lam * alpha) (o) e^{-lam}  on Maurer-Cartan elements."""
    if lam.degree != 0:
        raise DomainError("gauge parameter must have degree 0")
    if not lam.weight_component(0).is_zero():
        raise DomainError("gauge parameter must vanish in arity 1")
    report = mc_check(alpha)
    if not report.ok:
        raise DomainError(f"gauge_act needs a Maurer-Cartan element; fails at arity {report.stage}")
    return circle(star(calculus.exp_series(lam), alpha), calculus.exp_series(-lam))
