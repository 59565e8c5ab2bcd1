"""Series calculus and deformation theory generic over weight-graded products.

The functions here work on any element type exposing

    +, -, unary -, scalar * (Fraction or int),
    .star(other)          the pre-Lie product
    .circle(other)        the circle product, on group-like right factors
    .weight_component(n)  projection onto weight n
    .max_weight           the top weight a component can have (inclusive)
    .unit_like()          the unit, same space/truncation
    .zero_like()
    .is_zero()

Tree series, convolution elements, and operator towers all satisfy this
protocol, taking the arithmetic, ``zero_like`` and ``is_zero`` from
:class:`prelie.combination.Combination`, so the exponential, the
Magnus-style logarithm, symmetric braces and circle-product inverses are
implemented once.

The deformation theory is written here once too: the Maurer-Cartan report,
the gauge action, and the trivializer with its result, which decides gauge
triviality by the structure's transfer to the homology and builds the
isotopy from the two gauges of the contraction; operator towers are its
associative case, where the circle product is the product.
Reports name the failing component by its ``stage``, the key of that
component: a weight for towers, an arity for convolution elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .errors import DomainError


@dataclass
class MCReport:
    """Outcome of a Maurer-Cartan check: flat square, or the first bad stage
    with the square's component there."""

    ok: bool
    stage: Optional[int] = None
    residual: Any = None

    def __bool__(self):
        return self.ok


def mc_report(alpha) -> MCReport:
    """Check  alpha.star(alpha) == 0  component by component.

    ``alpha`` keeps its non-zero components in ``.components``, keyed by
    stage; the report names the lowest stage where the square is non-zero.
    """
    square = alpha.star(alpha)
    if not square.components:
        return MCReport(True)
    n = min(square.components)
    return MCReport(False, n, square.components[n])


@dataclass
class Trivialization:
    """Either an isotopy f trivializing a structure, with its logarithm, or
    the lowest stage where the structure, transferred to its homology,
    still differs from its differential, with that component as residual."""

    found: bool
    f: Any = None
    log: Any = None
    stage: Optional[int] = None
    residual: Any = None

    def __bool__(self):
        return self.found


def exp_series(x):
    """Exponential with right-iterated powers: 1 + x + (x*x)*x/3! + ...

    Requires the weight-0 component of ``x`` to vanish, which makes every
    weight of the result a finite sum.  When the product is associative this
    is the ordinary exponential.
    """
    if not x.weight_component(0).is_zero():
        raise DomainError("exponential needs a trivial weight-0 component")
    out = x.unit_like() + x
    power = x
    for n in range(2, x.max_weight + 1):
        power = power.star(x)
        if power.is_zero():
            break
        out = out + power * Fraction(1, math.factorial(n))
    return out


def magnus_series(a):
    """The series L with ``exp_series(L) == unit + a``, solved weight by weight.

    This is the logarithm inverse to :func:`exp_series`; for pre-Lie products
    it is the Magnus expansion, and for associative ones (operator towers)
    the alternating series  sum_k (-1)^(k+1) a^{*k} / k.  With
    ``powers[k][m]`` the weight-m part of the right-iterated power L^{*k},
    the weight-n part of the equation reads

        L_n = a_n - sum_{k=2..n} (L^{*k})_n / k!,
        (L^{*k})_n = sum_j powers[k-1][j] * L_{n-j},

    and every factor has weight below n, so each product of two weight
    components is formed once.  Powers at the top weight are never a factor
    and are not kept.
    """
    if not a.weight_component(0).is_zero():
        raise DomainError("logarithm needs a trivial weight-0 component")
    top = a.max_weight
    lam = a.zero_like()
    parts: dict = {}  # weight -> the non-zero component of L there
    powers: dict = {1: parts}
    for n in range(1, top + 1):
        lam_n = a.weight_component(n)
        for k in range(2, n + 1):
            power_n = a.zero_like()
            for j, factor in powers.get(k - 1, {}).items():
                if n - j in parts:
                    power_n = power_n + factor.star(parts[n - j])
            if power_n.is_zero():
                continue
            lam_n = lam_n - power_n * Fraction(1, math.factorial(k))
            if n < top:
                powers.setdefault(k, {})[n] = power_n
        if not lam_n.is_zero():
            parts[n] = lam_n
            lam = lam + lam_n
    return lam


def symmetric_brace(a, args):
    """Symmetric brace {a; b_1, ..., b_n} built from the product by recursion.

    {a;} = a, {a; b} = a*b, and
    {a; b_1..b_n} = {{a; b_1..b_{n-1}}; b_n}
                    - sum_i {a; b_1, .., {b_i; b_n}, .., b_{n-1}}.
    """
    args = list(args)
    if not args:
        return a
    if len(args) == 1:
        return a.star(args[0])
    head, last = args[:-1], args[-1]
    out = symmetric_brace(a, head).star(last)
    for i in range(len(head)):
        nested = list(head)
        nested[i] = head[i].star(last)
        out = out - symmetric_brace(a, nested)
    return out


def circle_inverse(g):
    """Inverse of a group-like element for its circle product.

    Solved weight by weight from  x (o) g = unit.  The product is linear in
    x, so ``acc`` keeps  x_(<n) (o) g, starting from  unit (o) g = g: the
    weight-n component of  unit - acc  is x_(n), and only that new component
    is then composed with g.
    """
    unit = g.unit_like()
    if not (g.weight_component(0) - unit).is_zero():
        raise DomainError("only group-like elements are circle-invertible")
    x = unit
    acc = g
    for n in range(1, g.max_weight + 1):
        x_n = (unit - acc).weight_component(n)
        if not x_n.is_zero():
            x = x + x_n
            acc = acc + x_n.circle(g)
    return x


def gauge_act(lam, alpha):
    """Gauge action  (e^lam * alpha) (o) e^{-lam}  of a weight-0-free lam."""
    return exp_series(lam).star(alpha).circle(exp_series(-lam))


def psi_series(abar, pullback):
    """The input-restricting kernel  Psi = 1 + R(1) + R^2(1) + ...  with
    R(x) = -h^*(x * abar), ``pullback`` being h^*; each application of R
    raises the weight, so the sum is finite."""
    psi = abar.unit_like()
    term = psi
    for _ in range(psi.max_weight):
        term = pullback(term.star(abar)) * -1
        if term.is_zero():
            break
        psi = psi + term
    return psi


def trivialize(alpha, h, pullback) -> Trivialization:
    """Decide whether ``alpha`` is gauge trivial, and build f with
    f * delta = alpha (o) f  if it is, delta the weight-0 part of ``alpha``.

    ``h`` is the homotopy of a contraction of delta onto its homology, as a
    weight-0 element, and ``pullback`` is h^*; pi = i p = 1 + delta*h + h*delta
    by the contraction identity.  Phi^{-1} = 1 - h * abar  restricts the
    outputs of  alpha-hat = (Phi^{-1} * alpha) (o) Phi = delta + pi (o) (abar (o) Phi)
    to the homology, and Psi, the :func:`psi_series` of alpha-hat - delta,
    twists its inputs there too, to  delta + (alpha-hat - delta) (o) pi.  By
    the transfer theorem alpha is gauge trivial iff that is delta; then
    f = (Psi (o) Phi^{-1})^{-1}, with the logarithm whose gauge action takes
    delta to alpha.  Otherwise the lowest stage where
    (alpha-hat - delta) (o) pi is non-zero is named, with that component.
    """
    delta = alpha.weight_component(0)
    unit = alpha.unit_like()
    pi = unit + delta.star(h) + h.star(delta)
    phi_inv = unit - h.star(alpha - delta)
    hat_bar = pi.circle((alpha - delta).circle(circle_inverse(phi_inv)))
    rest = hat_bar.circle(pi)
    if rest.components:
        stage = min(rest.components)
        return Trivialization(False, stage=stage, residual=rest.components[stage])
    f = circle_inverse(psi_series(hat_bar, pullback).circle(phi_inv))
    return Trivialization(True, f=f, log=magnus_series(f - unit))
