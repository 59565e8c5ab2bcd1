"""Arity-graded convolution pre-Lie algebra of multilinear operations.

Elements collect one multilinear map per arity on a graded rational space;
the weight of the arity-n component is n - 1.  Everything is stored in
desuspended form: a homotopy-associative structure is a family of degree -1
operations whose square vanishes, a morphism is a family of degree-0
operations.  All signs reduce to one Koszul rule, applied when a map passes
graded inputs inside a partial composition or a tensor of maps.

``star`` is the insertion (pre-Lie) product; ``circle`` is the associative
composition product defined on group-like elements (and extended verbatim to
arbitrary operands).  Each is one pass over the entries of its left factor
that reads the right factor from one table keyed by output vector.
Maurer-Cartan checking, the infinity-morphism equation, and the gauge action
are built from the two products.
"""

from __future__ import annotations

from .. import calculus
from ..combination import Combination, add_into, exact, put
from ..errors import BoundsError, DomainError, ShapeError
from ..linalg import GradedMap, GradedSpace

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
        coeff = exact(coeff)
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
            out.entries[(b,), b] = 1
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


def _by_output(ops) -> dict:
    """Output basis vector -> [(inputs, coeff)] over the entries of ``ops``,
    in their order, with coeff None when it is 1."""
    table: dict = {}
    for op in ops:
        for (ins, out), coeff in op.entries.items():
            table.setdefault(out, []).append((ins, None if coeff == 1 else coeff))
    return table


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

    def weight_component(self, n: int) -> "ConvElement":
        out = self.zero_like()
        if n + 1 in self.components:
            out.components[n + 1] = self.components[n + 1]
        return out

    def star(self, other: "ConvElement") -> "ConvElement":
        return star(self, other)

    def circle(self, other: "ConvElement") -> "ConvElement":
        return circle(self, other)

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
    ``g`` must be an endomorphism-type element of f's source.  Each input
    slot of each entry of f reads the entries of g with that output from one
    table, fewest inputs first.  Inserting g into slot j costs the Koszul
    sign (-1)^(|g| * (sum of the degrees of the inputs before j)), applied
    once per slot; an entry of g with coefficient 1 multiplies nothing.
    """
    if not isinstance(g, ConvElement):
        raise TypeError(f"expected ConvElement, got {type(g).__name__}")
    if g.source != g.target or g.target != f.source:
        raise ShapeError("star inserts an endomorphism element of f's source")
    if f.truncation != g.truncation:
        raise ShapeError("elements have different truncation arities")
    table = _by_output(g.components[a] for a in sorted(g.components))
    odd = g.degree % 2
    acc: dict = {}  # arity -> {(inputs, output): coefficient}
    for k, fk in f.components.items():
        for (fins, fout), fc in fk.entries.items():
            parity = 0
            for j, b in enumerate(fins):
                entries = table.get(b)
                if entries:
                    sc = -fc if odd and parity else fc
                    for gins, gc in entries:
                        if k + len(gins) - 1 > f.truncation:
                            break
                        ins = fins[:j] + gins + fins[j + 1:]
                        c = sc if gc is None else sc * gc
                        add_into(acc.setdefault(len(ins), {}), (ins, fout), c)
                parity ^= b[0] & 1
    out = ConvElement(f.source, f.target, f.truncation, f.degree + g.degree)
    out.components = {n: out.component(n)._like(e) for n, e in sorted(acc.items()) if e}
    return out


def circle(f: ConvElement, g: ConvElement) -> ConvElement:
    """Composition product  (f (o) g)_n = sum f_k o (g_{i_1} x .. x g_{i_k}).

    Associative and unital on group-like elements; defined by the same
    formula for arbitrary f.  Each entry of f is expanded slot by slot from
    one table of g's entries by output, keeping the input tuples that leave
    one input for each later slot within the truncation; the table lists
    the entries of one output fewest inputs first, so the scan of a slot
    stops at the first entry that does not fit, and an entry of g with
    coefficient 1 multiplies nothing.  The right factor must have
    degree 0 unless f is pure postcomposition (arity 1 only), so no Koszul
    sign arises: a degree-0 g passes every input freely, and an odd g fills
    the one slot of an arity-1 f, with no input before it.
    """
    if not isinstance(g, ConvElement):
        raise TypeError(f"expected ConvElement, got {type(g).__name__}")
    if g.target != f.source:
        raise ShapeError("circle composes g into f")
    if f.truncation != g.truncation:
        raise ShapeError("elements have different truncation arities")
    if g.degree != 0 and any(a != 1 for a in f.components):
        raise DomainError("right factor of the circle product must have degree 0")
    table = _by_output(g.components[a] for a in sorted(g.components))
    acc: dict = {}  # arity -> {(inputs, output): coefficient}
    for k, fk in f.components.items():
        for (fins, fout), fc in fk.entries.items():
            partial = [((), fc)]
            for slot, b in enumerate(fins):
                room = f.truncation - (k - 1 - slot)
                entries = table.get(b, ())
                grown = []
                for ins, c in partial:
                    fit = room - len(ins)
                    for gins, gc in entries:
                        if len(gins) > fit:
                            break
                        grown.append((ins + gins, c if gc is None else c * gc))
                partial = grown
            for ins, c in partial:
                add_into(acc.setdefault(len(ins), {}), (ins, fout), c)
    out = ConvElement(g.source, f.target, f.truncation, f.degree + g.degree)
    out.components = {n: out.component(n)._like(e) for n, e in sorted(acc.items()) if e}
    return out


def mc_check(alpha: ConvElement) -> calculus.MCReport:
    """True iff  alpha * alpha = 0  up to the truncation arity; otherwise
    ``stage`` is the first bad arity.

    For the desuspended structure of a differential graded algebra this is
    exactly d^2 = 0, the Leibniz rule, and associativity.
    """
    if alpha.degree != -1:
        raise DomainError("mc_check expects a structure-kind element (degree -1)")
    if alpha.source != alpha.target:
        raise ShapeError(f'a structure maps one space to itself, but its "space" has dims '
                         f'{alpha.source.dims} and its "target_space" {alpha.target.dims}')
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
    return calculus.gauge_act(lam, alpha)
