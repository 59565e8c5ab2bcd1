"""Homotopy transfer along a contraction, driven by two gauge kernels.

Given a contraction (i, p, h) of a graded space onto a smaller one and a
Maurer-Cartan element alpha = delta + abar, two group-like elements are
computed as fixed points:

    Phi = 1 + (h abar) (o) Phi          (restricts outputs to i(H))
    Psi = 1 - h^*(Psi * abar)           (restricts inputs to i(H))

where h^* precomposes the arity-n part with the symmetrized homotopy h_n:
h on one slot, the projector pi = i p on a set P of the other slots and the
identity on the rest, weighted by |P|! (n-1-|P|)! / n!.  ``h_star``
evaluates this closed form entry by entry and never builds h_n, whose size
grows like dim^n: for each input tuple ``mid`` of y it reads the column
of h_n at ``mid``, the inputs that h_n sends onto ``mid``, expanded slot
by slot from preimage tables of h and pi.  The Psi series of ``transfer``
and of each twist keeps one table of columns for as long as it runs, so
its ``h_star`` calls build each column once.  The gauge actions of Phi and
Psi produce the twisted structures alpha-hat and alpha-check, and the
transferred structure, extended inclusion, and extended projection are

    beta = delta_H + p (abar (o) Phi) i,   i_inf = Phi (o) i,   p_inf = p (o) Psi.

``transfer`` verifies the defining identities exactly and reports them by
name.  Onto the homology, a structure is gauge trivial iff its transferred
structure is its differential, and the two gauges then build the isotopy
(:func:`calculus.trivialize`): ``is_gauge_trivial`` decides for a given
contraction onto the homology, and ``find_trivializer``, which also returns
the isotopy, for the one of :func:`linalg.contraction_of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .. import calculus
from ..calculus import circle_inverse
from ..errors import BoundsError, DomainError, InternalCheckError, ShapeError, ValidationError
from ..combination import Combination, add_into
from ..linalg import Contraction, GradedMap, contraction_of
from .convolution import (
    ConvElement,
    MultiOp,
    circle,
    element_from_map,
    inf_morphism_check,
    mc_check,
    star,
    unit_element,
)


# Unused by the library; kept while perfbench/spans.py patches its compose by name.
class TensorOperator(Combination):
    """Sparse linear operator on a tensor power of a graded space."""

    __slots__ = ("space", "arity", "degree", "entries")
    _shape = ("space", "arity", "degree")
    _store = "entries"

    def __init__(self, space, arity, degree, entries=None):
        if arity < 1:
            raise BoundsError("arity must be >= 1")
        self.space = space
        self.arity = arity
        self.degree = degree
        self.entries = dict(entries) if entries else {}

    def add_entry(self, ins, outs, coeff):
        add_into(self.entries, (tuple(ins), tuple(outs)), coeff)

    def compose(self, other: "TensorOperator") -> "TensorOperator":
        """self after other (plain composition, no extra signs)."""
        if self.space != other.space or self.arity != other.arity:
            raise ShapeError("tensor operators have different shapes")
        out = TensorOperator(self.space, self.arity, self.degree + other.degree)
        by_output: dict = {}
        for (ins, mids), coeff in other.entries.items():
            by_output.setdefault(mids, []).append((ins, coeff))
        for (mids, outs), c2 in self.entries.items():
            for ins, c1 in by_output.get(mids, ()):
                out.add_entry(ins, outs, c1 * c2)
        return out


def _picks(gmap: GradedMap, pi_slots: int) -> dict:
    """Basis vector b -> [(a, c, pi_slots)] for the entries gmap(a) = c b + ...,
    with c None when it is 1."""
    out: dict = {}
    for (sdeg, sidx, tidx), coeff in gmap.entries.items():
        out.setdefault((sdeg + gmap.degree, tidx), []).append(
            ((sdeg, sidx), None if coeff == 1 else coeff, pi_slots))
    return out


class _HnColumns(dict):
    """The columns of the symmetrized homotopies h_n of one contraction:
    ``mid`` -> {inputs: coefficient of ``mid`` in h_n(inputs)}, each built
    by :func:`_hn_column` on first use.  One table serves every
    :func:`h_star` call of one Psi series; it holds no sign of y."""

    def __init__(self, c: Contraction):
        super().__init__()
        self.h_pre = _picks(c.h, 0)
        self.pi_pre = _picks(c.pi, 1)

    def __missing__(self, mid):
        column = self[mid] = _hn_column(mid, self.h_pre, self.pi_pre)
        return column


def h_star(y: ConvElement, c: Contraction, columns: _HnColumns | None = None) -> ConvElement:
    """Graded pullback along the symmetrized homotopies:
    (h^* y)_n = (-1)^{|y|} y_n o h_n.

    h_n is the average over the symmetric group of the staircase operators
    id^(k-1) x h x pi^(n-k); in closed form it places h on one slot, the
    projector pi on a set P of the other slots and the identity on the rest,
    with weight |P|! (n-1-|P|)! / n!.  h_n is never built: for each entry
    (mid, out) of y_n, the column of h_n at ``mid`` (the inputs that h_n
    sends onto ``mid``, see :func:`_hn_column`) is read from ``columns``,
    the table of ``c``'s columns that one Psi series shares across its
    calls; a new table when none is given.  A column term carries the
    Koszul sign of h passing the inputs before its slot; id and pi keep
    degrees, so that is the parity of the degrees of ``mid`` before the h
    slot.  The sign (-1)^{|y|} of the degree-1 operator passing y is applied
    per call, as one table meets y of both parities; it is pinned down by
    the identity suite (gauge-twist formulas and transfer theorems).
    """
    if columns is None:
        columns = _HnColumns(c)
    odd = y.degree % 2
    out = ConvElement(y.source, y.target, y.truncation, y.degree + 1)
    for n, op in y.components.items():
        composed = MultiOp(y.source, y.target, n, op.degree + 1)
        for (mid, out_b), c2 in op.entries.items():
            if odd:
                c2 = -c2
            for ins, c1 in columns[mid].items():
                add_into(composed.entries, (ins, out_b), c1 * c2)
        if not composed.is_zero():
            out.components[n] = composed
    return out


def _hn_column(mid, h_pre, pi_pre) -> dict:
    """Inputs -> coefficient of ``mid`` in their image under h_n.

    The slots are expanded one at a time into partial terms keyed by
    (input prefix, number of pi slots): ``before`` holds the prefixes with
    no h slot yet, ``after`` those with one.  A slot extends both by its
    identity pick and its pi-preimages, and moves ``before`` into ``after``
    by its h-preimages, with the Koszul sign of h passing the slots before
    it.  Terms that reach one key merge there, such as an identity pick and
    a pi pick of a vector that pi fixes, made in different slots.  Nothing
    is expanded when no slot has an h-preimage, no slot after the last one
    that has extends ``before``, and a coefficient of 1 multiplies nothing.
    The weight |P|! (n-1-|P|)! / n! is applied once per finished key, as the
    integer |P|! (n-1-|P|)! with one division by n! per input tuple.
    """
    last = max((k for k, b in enumerate(mid) if b in h_pre), default=None)
    if last is None:
        return {}
    before: dict = {((), 0): 1}
    after: dict = {}
    parity = 0
    for k, b in enumerate(mid):
        picks = [(b, None, 0)] + pi_pre.get(b, [])
        grown = _extend({}, after, picks)
        if b in h_pre:
            _extend(grown, before, h_pre[b], -1 if parity else 1)
        if k < last:
            before = _extend({}, before, picks)
        after = grown
        parity ^= b[0] & 1
    n = len(mid)
    column: dict = {}  # inputs -> n! times their coefficient
    for (ins, r), coeff in after.items():
        add_into(column, ins, coeff * math.factorial(r) * math.factorial(n - 1 - r))
    return {ins: Fraction(coeff, math.factorial(n)) for ins, coeff in column.items()}


def _extend(acc: dict, partial: dict, picks: list, sign: int = 1) -> dict:
    """Add to ``acc`` every term of ``partial`` times ``sign``, extended by
    one slot of ``picks``; return ``acc``."""
    for (ins, r), coeff in partial.items():
        if sign < 0:
            coeff = -coeff
        for a, cf, pi_slots in picks:
            add_into(acc, (ins + (a,), r + pi_slots), coeff if cf is None else coeff * cf)
    return acc


def _require_mc(alpha: ConvElement) -> None:
    report = mc_check(alpha)
    if not report.ok:
        raise DomainError(
            f"expected a Maurer-Cartan element; square is nonzero at arity {report.stage}"
        )


def _abar(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Split off the differential of a Maurer-Cartan structure; insists the
    structure is Maurer-Cartan and that its differential is the contraction's d."""
    _require_mc(alpha)
    if alpha.component(1) != MultiOp.from_graded_map(c.d):
        raise ValidationError(
            "the arity-1 part of the structure differs from the contraction's d"
        )
    out = alpha.zero_like()
    out.components = {a: op for a, op in alpha.components.items() if a >= 2}
    return out


def h_push(abar: ConvElement, c: Contraction) -> ConvElement:
    """Postcompose every component with h (insertion by the arity-1 element h)."""
    return star(element_from_map(c.h, abar.truncation), abar)


def _phi_inv(abar: ConvElement, c: Contraction) -> ConvElement:
    """Phi^{-1} = 1 - h abar:  Phi = 1 + (h abar) (o) Phi  says
    (1 - h abar) (o) Phi = 1, as the circle product is linear in its left
    factor, and group-like elements form a group under (o)."""
    return unit_element(abar.source, abar.truncation) - h_push(abar, c)


def _psi(abar: ConvElement, c: Contraction) -> ConvElement:
    columns = _HnColumns(c)
    return calculus.psi_series(abar, lambda y: h_star(y, c, columns))


def phi_kernel(alpha: ConvElement, c: Contraction) -> ConvElement:
    """The output-restricting kernel: fixed point of Phi = 1 + (h abar) (o) Phi."""
    return circle_inverse(_phi_inv(_abar(alpha, c), c))


def psi_kernel(alpha: ConvElement, c: Contraction) -> ConvElement:
    """The input-restricting kernel  Psi = 1 + R(1) + R^2(1) + ...

    with  R(x) = -h^*(x * abar);  each application raises the weight, so the
    sum is finite per arity.
    """
    return _psi(_abar(alpha, c), c)


def alpha_hat(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Gauge twist  (Phi^{-1} * alpha) (o) Phi ; outputs land in i(H)."""
    phi_inv = _phi_inv(_abar(alpha, c), c)
    return circle(star(phi_inv, alpha), circle_inverse(phi_inv))


def alpha_check(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Gauge twist  (Psi * alpha) (o) Psi^{-1} ; inputs factor through i(H)."""
    psi = psi_kernel(alpha, c)
    return circle(star(psi, alpha), circle_inverse(psi))


@dataclass
class TransferResult:
    """Transferred structure with its extended inclusion/projection and the
    named identity checks performed on them."""

    beta: ConvElement
    i_inf: ConvElement
    p_inf: ConvElement
    checks: list

    def all_green(self) -> bool:
        return all(ok for _name, ok in self.checks)


def transfer(alpha: ConvElement, c: Contraction) -> TransferResult:
    """Transfer a Maurer-Cartan structure across the contraction.

    Returns beta on the small space together with the extended inclusion
    ``i_inf = Phi (o) i`` and extended projection ``p_inf = p (o) Psi``.
    The defining identities are checked exactly and kept on the result by
    name; a failure raises InternalCheckError.  Phi, its inverse 1 - h abar
    and Psi are built once and serve both the transferred structure and the
    checks.

    ``psi_fixes_i_inf`` is  Psi (o) i_inf == i_inf.  Proof: write
    Psi = 1 + Psi'.  Every component of Psi' is y_n o h_n for some y
    (Psi' is a sum of images of h^*), and every summand of h_n puts h on one
    slot.  Every output of i_inf = Phi (o) i lies in im i + im h, since
    Phi - 1 = (h abar) (o) Phi.  As h i = 0 and h h = 0, the h slot kills
    every term of Psi' (o) i_inf, which leaves i_inf.  (Psi (o) Phi ==
    Psi + Phi - 1 does not hold in general: an identity slot of h_n lets
    Phi - 1 through.)
    """
    abar = _abar(alpha, c)
    A = alpha.truncation
    phi_inv = _phi_inv(abar, c)
    phi = circle_inverse(phi_inv)
    psi = _psi(abar, c)
    i_elt = element_from_map(c.incl, A)
    p_elt = element_from_map(c.proj, A)
    pi_elt = element_from_map(c.pi, A)
    mid = circle(abar, phi)

    delta_small = element_from_map(c.d_small, A)
    beta = delta_small + circle(p_elt, circle(mid, i_elt))
    i_inf = circle(phi, i_elt)
    p_inf = circle(p_elt, psi)

    hat = circle(star(phi_inv, alpha), phi)
    check = circle(star(psi, alpha), circle_inverse(psi))
    delta_big = element_from_map(c.d, A)
    checks = [
        ("maurer_cartan_beta", mc_check(beta).ok),
        ("hat_formula", hat == delta_big + circle(pi_elt, mid)),
        ("check_formula", check == delta_big + circle(mid, pi_elt)),
        (
            "hat_check_same_transfer",
            circle(p_elt, circle((hat - delta_big), i_elt))
            == circle(p_elt, circle((check - delta_big), i_elt)),
        ),
        ("psi_fixes_i_inf", circle(psi, i_inf) == i_inf),
        ("p_inf_circle_i_inf", circle(p_inf, i_inf) == unit_element(c.small, A)),
        ("i_inf_morphism", inf_morphism_check(i_inf, beta, alpha)),
        ("p_inf_morphism", star(p_inf, alpha) == circle(beta, p_inf)),
    ]
    result = TransferResult(beta, i_inf, p_inf, checks)
    if not result.all_green():
        bad = [name for name, ok in checks if not ok]
        raise InternalCheckError(f"transfer identities failed: {', '.join(bad)}")
    return result


def _twist(alpha: ConvElement, c: Contraction) -> calculus.Trivialization:
    """:func:`calculus.trivialize` with the homotopy of ``c`` and its
    symmetrized pullback :func:`h_star`, whose calls share one table of
    the columns of h_n."""
    columns = _HnColumns(c)
    return calculus.trivialize(
        alpha, element_from_map(c.h, alpha.truncation), lambda y: h_star(y, c, columns))


def is_gauge_trivial(alpha: ConvElement, c: Contraction) -> bool:
    """Decide triviality by the two gauges of a contraction onto the
    homology (zero induced differential): the structure is gauge trivial
    iff its transfer is trivial above the differential."""
    if not c.d_small.is_zero():
        raise DomainError("the contraction must be onto the homology (d_small = 0)")
    _abar(alpha, c)
    return _twist(alpha, c).found


def find_trivializer(alpha: ConvElement) -> calculus.Trivialization:
    """Decide whether a Maurer-Cartan structure is gauge trivial, and find
    f = 1 + f_(1) + ... with  f * delta = alpha (o) f  if it is.

    :func:`calculus.trivialize` transfers ``alpha`` along the contraction
    of delta from :func:`linalg.contraction_of`; a NOT FOUND is exact and
    names the lowest arity where the transferred structure differs from
    delta.  A found f that fails the infinity-morphism equation is a
    library bug and raises ``InternalCheckError``.
    """
    _require_mc(alpha)
    space = alpha.source
    d_op = alpha.component(1)
    d = GradedMap(space, space, d_op.degree,
                  {(*a, b[1]): c for ((a,), b), c in d_op.entries.items()})
    result = _twist(alpha, contraction_of(space, d))
    if result.found and not inf_morphism_check(result.f, alpha.weight_component(0), alpha):
        raise InternalCheckError("find_trivializer: the isotopy found is no infinity-morphism")
    return result
