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
grows like dim^n.  The gauge actions of Phi and Psi produce the twisted
structures alpha-hat and alpha-check, and the transferred structure,
extended inclusion, and extended projection are

    beta = delta_H + p (abar (o) Phi) i,   i_inf = Phi (o) i,   p_inf = p (o) Psi.

``transfer`` verifies the defining identities exactly and reports them by
name.  ``is_gauge_trivial`` decides triviality through the transferred
structure; ``find_trivializer`` is the constructive stage-wise companion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .. import calculus
from ..calculus import circle_inverse
from ..errors import BoundsError, DomainError, InternalCheckError, ShapeError, ValidationError
from ..combination import Combination, add_into
from ..linalg import GradedMap, solve_stage, stage_rows
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


def _preimages(gmap: GradedMap) -> dict:
    """Basis vector b -> [(a, c)] for the entries gmap(a) = c b + ..."""
    out: dict = {}
    for (sdeg, sidx, tidx), coeff in gmap.entries.items():
        out.setdefault((sdeg + gmap.degree, tidx), []).append(((sdeg, sidx), coeff))
    return out


def h_star(y: ConvElement, c: Contraction) -> ConvElement:
    """Graded pullback along the symmetrized homotopies:
    (h^* y)_n = (-1)^{|y|} y_n o h_n.

    h_n is the average over the symmetric group of the staircase operators
    id^(k-1) x h x pi^(n-k); in closed form it places h on one slot, the
    projector pi on a set P of the other slots and the identity on the rest,
    with weight |P|! (n-1-|P|)! / n!.  h_n is never built: for each entry
    (mid, out) of y_n the inputs that h_n sends onto ``mid`` are read off
    preimage tables of h and pi, one slot at a time.  The sign of a term is
    (-1)^{|y|} times the Koszul sign of h passing the inputs before its
    slot; id and pi keep degrees, so that is the parity of the degrees of
    ``mid`` before the h slot.  The sign (-1)^{|y|} of the degree-1
    operator passing y is pinned down by the identity suite (gauge-twist
    formulas and transfer theorems).
    """
    sign = -1 if y.degree % 2 else 1
    h_pre = _preimages(c.h)
    pi_pre = _preimages(c.pi)
    out = ConvElement(y.source, y.target, y.truncation, y.degree + 1)
    for n, op in y.components.items():
        weights = [
            Fraction(sign * math.factorial(r) * math.factorial(n - 1 - r), math.factorial(n))
            for r in range(n)
        ]
        columns: dict = {}  # mid -> {inputs: coefficient of mid in h_n(inputs)}
        composed = MultiOp(y.source, y.target, n, op.degree + 1)
        for (mid, out_b), c2 in op.entries.items():
            column = columns.get(mid)
            if column is None:
                column = columns[mid] = _hn_column(mid, h_pre, pi_pre, weights)
            for ins, c1 in column.items():
                add_into(composed.entries, (ins, out_b), c1 * c2)
        if not composed.is_zero():
            out.components[n] = composed
    return out


def _hn_column(mid, h_pre, pi_pre, weights) -> dict:
    """Inputs -> coefficient of ``mid`` in their image under h_n, each
    term weighted by ``weights[|P|]`` and by its Koszul sign."""
    # per slot: (input, coefficient, 1 if the slot holds pi) for id and pi
    slots = [[(b, 1, 0)] + [(a, cf, 1) for a, cf in pi_pre.get(b, ())] for b in mid]
    column: dict = {}
    parity = 0
    for k, b in enumerate(mid):
        h_slot = [(a, cf, 0) for a, cf in h_pre.get(b, ())]
        for picks in itertools.product(*slots[:k], h_slot, *slots[k + 1:]):
            coeff = weights[sum(p[2] for p in picks)]
            for p in picks:
                coeff *= p[1]
            add_into(column, tuple(p[0] for p in picks), -coeff if parity else coeff)
        parity ^= b[0] & 1
    return column


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


def _phi(abar: ConvElement, c: Contraction) -> ConvElement:
    return circle_inverse(_phi_inv(abar, c))


def _psi(abar: ConvElement, c: Contraction) -> ConvElement:
    psi = unit_element(abar.source, abar.truncation)
    term = psi
    for _ in range(psi.max_weight):
        term = _r_operator(term, abar, c)
        if term.is_zero():
            break
        psi = psi + term
    return psi


def _hat(alpha: ConvElement, phi_inv: ConvElement, phi: ConvElement) -> ConvElement:
    return circle(star(phi_inv, alpha), phi)


def _check(alpha: ConvElement, psi: ConvElement) -> ConvElement:
    return circle(star(psi, alpha), circle_inverse(psi))


def phi_kernel(alpha: ConvElement, c: Contraction) -> ConvElement:
    """The output-restricting kernel: fixed point of Phi = 1 + (h abar) (o) Phi."""
    return _phi(_abar(alpha, c), c)


def psi_kernel(alpha: ConvElement, c: Contraction) -> ConvElement:
    """The input-restricting kernel  Psi = 1 + R(1) + R^2(1) + ...

    with  R(x) = -h^*(x * abar);  each application raises the weight, so the
    sum is finite per arity.
    """
    return _psi(_abar(alpha, c), c)


def _r_operator(x: ConvElement, abar: ConvElement, c: Contraction) -> ConvElement:
    return h_star(star(x, abar), c) * -1


def alpha_hat(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Gauge twist  (Phi^{-1} * alpha) (o) Phi ; outputs land in i(H)."""
    phi_inv = _phi_inv(_abar(alpha, c), c)
    return _hat(alpha, phi_inv, circle_inverse(phi_inv))


def alpha_check(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Gauge twist  (Psi * alpha) (o) Psi^{-1} ; inputs factor through i(H)."""
    return _check(alpha, psi_kernel(alpha, c))


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

    hat = _hat(alpha, phi_inv, phi)
    check = _check(alpha, psi)
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


def is_gauge_trivial(alpha: ConvElement, c: Contraction) -> bool:
    """Decide triviality through the transferred structure.

    Requires the contraction to land on the homology (zero induced
    differential); the structure is gauge trivial iff every transferred
    operation above the differential vanishes.
    """
    if not c.d_small.is_zero():
        raise DomainError("the contraction must be onto the homology (d_small = 0)")
    beta = transfer(alpha, c).beta
    return all(arity == 1 for arity in beta.components)


def find_trivializer(alpha: ConvElement) -> calculus.Trivialization:
    """Stage-wise solve of  f * delta = alpha (o) f  for f = 1 + f_(1) + ...
    by :func:`calculus.trivialize`.

    The stage in arity n is  sum_j f_n o_j d - d o f_n = RHS, whose matrix
    :func:`linalg.stage_rows` reads off d.  A found f that fails the
    infinity-morphism equation is a library bug and raises
    ``InternalCheckError``.  A failure is not a proof of non-triviality
    (earlier stage choices are greedy); ``is_gauge_trivial`` is the
    decision procedure.
    """
    _require_mc(alpha)
    space = alpha.source
    d_op = alpha.component(1)
    d = GradedMap(space, space, d_op.degree,
                  {(*a, b[1]): c for ((a,), b), c in d_op.entries.items()})
    result = calculus.trivialize(
        alpha, lambda n, rhs: solve_stage(*stage_rows(space, n, 0, d), rhs.entries))
    if result.found and not inf_morphism_check(result.f, alpha.weight_component(0), alpha):
        raise InternalCheckError("find_trivializer: the isotopy found is no infinity-morphism")
    return result
