#!/usr/bin/env python3
"""Calculus in the free pre-Lie algebra on labeled rooted trees.

Grafting is the pre-Lie product; iterating it on the right builds the
exponential, whose inverse series is the pre-Lie Magnus expansion.  The sum
of all symmetric braces gives the associative circle product, which turns
group-like series into a group: the gauge group, acting by
(e^L * a) o e^{-L}.
"""

from fractions import Fraction

from prelie.series import (
    TreeSeries,
    bch,
    bracket,
    circle,
    exp,
    format_series,
    gauge_act,
    graft,
    grouplike_inverse,
    magnus,
)
from prelie.trees import aut_order, cm_weight

N = 5
a = TreeSeries.generator("a", N)
b = TreeSeries.generator("b", N)

print("grafting (a (b)) * (c): one new child per vertex of the left factor")
c = TreeSeries.generator("c", N)
print(format_series(graft(graft(a, b), c)))

print("\npre-Lie exponential of a single generator, truncated at 5 vertices:")
e = exp(a)
print(format_series(e))
print("each coefficient is n_t / (number of vertices)! -- for example the")
some = max(e.terms, key=lambda t: (t.nvertices, aut_order(t)))
print(
    f"tree {some.to_text()} has n_t = {cm_weight(some)} "
    f"and coefficient {e.coefficient(some)}"
)

print("\npre-Lie Magnus expansion (the logarithm): leading terms")
print(format_series(magnus(a).weight_component(1) + magnus(a).weight_component(2)
                    + magnus(a).weight_component(3)))

print("\ncircle inverse of the group-like series 1 - (m): all trees, 1/|Aut t|")
m = TreeSeries.generator("m", 4)
inv = grouplike_inverse(TreeSeries.one(4) - m)
print(format_series(inv))
assert circle(inv, TreeSeries.one(4) - m) == TreeSeries.one(4)

print("\nBCH product from the group law  e^BCH(x,y) = e^x o e^y, order 3:")
x = TreeSeries.generator("x", 3)
y = TreeSeries.generator("y", 3)
print(format_series(bch(x, y)))

print("\ngauge action as a conjugation flow: (e^l * a) o e^{-l} equals the")
print("truncated exponential of the adjoint action:")
lam = TreeSeries.generator("l", N)
acted = gauge_act(lam, a)
flow = a
term = a
for k in range(1, N + 1):
    term = bracket(lam, term) * Fraction(1, k)
    flow = flow + term
assert acted == flow
print(format_series(acted.weight_component(1) + acted.weight_component(2)))
print("... (agrees with sum ad_l^k(a)/k! through all computed weights)")
