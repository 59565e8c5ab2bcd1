#!/usr/bin/env python3
"""Homotopy transfer of an associative structure with a Massey product.

The fixture is the classical minimal example of a non-formal algebra: six
basis elements x, y, z, u (odd) and e, w (even, one degree lower on the
desuspended space), with du = e, xy = e, uz = w.  On homology the product
vanishes, but the secondary operation <x, y, z> = [w] survives: the
transferred arity-3 operation is nonzero, so the structure is not gauge
trivial, and the trivializer, which twists by the same two gauges, names
the obstruction exactly.

Everything is driven by the two group-like kernels
    Phi = 1 + (h abar) o Phi      and      Psi = 1 - h^*(Psi * abar),
whose gauge twists restrict outputs / inputs to the embedded homology.
"""

from fractions import Fraction

from prelie.ainf import (
    ConvElement,
    Contraction,
    MultiOp,
    circle,
    find_trivializer,
    h_push,
    is_gauge_trivial,
    mc_check,
    multiop_to_dict,
    phi_kernel,
    psi_kernel,
    transfer,
    unit_element,
)
from prelie.linalg import GradedMap, GradedSpace
from prelie.series import eval_tree
from prelie.trees import aut_order, enumerate_trees

A = 5
# desuspended degrees: x, y, z, u at 0; e, w at -1
big = GradedSpace({0: 4, -1: 2})
X, Y, Z, U = (0, 0), (0, 1), (0, 2), (0, 3)
E, W = (-1, 0), (-1, 1)

b1 = MultiOp(big, big, 1, -1)
b1[(U,), E] = -1                      # du = e
b2 = MultiOp(big, big, 2, -1)
b2[(X, Y), E] = -1                    # xy = e   (odd first factor: sign -1)
b2[(U, Z), W] = -1                    # uz = w
alpha = ConvElement(big, big, A, -1, {1: b1, 2: b2})
print("structure is Maurer-Cartan (= associativity + Leibniz):", mc_check(alpha).ok)

# contraction onto homology: classes [x], [y], [z] and [w]
small = GradedSpace({0: 3, -1: 1})
d = GradedMap(big, big, -1); d[0, 3, 0] = -1
i = GradedMap(small, big, 0)
i[0, 0, 0] = 1; i[0, 1, 1] = 1; i[0, 2, 2] = 1; i[-1, 0, 1] = 1
p = GradedMap(big, small, 0)
p[0, 0, 0] = 1; p[0, 1, 1] = 1; p[0, 2, 2] = 1; p[-1, 1, 0] = 1
h = GradedMap(big, big, 1); h[-1, 0, 3] = 1    # e -> u kills the acyclic pair
c = Contraction(big, small, d, i, p, h)

phi = phi_kernel(alpha, c)
psi = psi_kernel(alpha, c)
habar = h_push(ConvElement(big, big, A, -1, {2: b2}), c)
tree_sum = unit_element(big, A)
for n in range(1, A + 1):
    for shape in enumerate_trees(n, max_vertices=A):
        tree_sum = tree_sum + eval_tree(shape, {"*": habar}) * Fraction(1, aut_order(shape))
print("\nPhi kernel arities:", sorted(phi.components),
      "(fixed point = tree sum with 1/|Aut t| coefficients:",
      phi == tree_sum, ")")
result = transfer(alpha, c)
print("Psi (o) i_inf == i_inf:", circle(psi, result.i_inf) == result.i_inf)
print("\ntransfer identity report:")
for name, ok in result.checks:
    print(f"  {name}: {'PASS' if ok else 'FAIL'}")

b3 = result.beta.component(3)
print("\ntransferred arity-3 operation on ([x],[y],[z]):", multiop_to_dict(b3)["entries"])
print("gauge trivial:", is_gauge_trivial(alpha, c))
attempt = find_trivializer(alpha)
print(f"the trivializer finds the obstruction at arity {attempt.stage} "
      f"with residual {multiop_to_dict(attempt.residual)['entries']}")

# contrast: same shape of algebra but with the Massey product disarmed
b2f = MultiOp(big, big, 2, -1)
b2f[(X, Y), E] = -1
formal = ConvElement(big, big, A, -1, {1: b1, 2: b2f})
print("\ndropping uz = w gives a gauge-trivial structure:",
      is_gauge_trivial(formal, c))
print("and the trivializer now finds an isotopy:", find_trivializer(formal).found)
