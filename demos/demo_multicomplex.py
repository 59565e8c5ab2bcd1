#!/usr/bin/env python3
"""Multicomplexes: towers of operators with a square-zero total structure.

A structure tower stores the differential in weight 0 and higher operators
d_n of degree 2n - 1.  The Maurer-Cartan condition says all weighted squares
sum to zero; gauge towers exponentiate and act by conjugation; trivialization
solves for an isotopy onto the bare differential weight by weight, reporting
the exact obstruction when the homology is in the way.
"""

from fractions import Fraction

from prelie import multicomplex as mcx
from prelie.linalg import GradedMap, GradedSpace

# a commuting square: x(0); y, z (1); w(2) with d: y -> x, w -> z and a
# second operator d1: x -> z, y -> -w anti-commuting with d
V = GradedSpace({0: 1, 1: 2, 2: 1})
d0 = GradedMap(V, V, -1)
d0[1, 0, 0] = 1
d0[2, 0, 1] = 1
d1 = GradedMap(V, V, 1)
d1[0, 0, 1] = 1
d1[1, 0, 0] = -1
alpha = mcx.structure_tower(V, 4, {0: d0, 1: d1})
print("bicomplex fixture passes the Maurer-Cartan check:", mcx.mc_check(alpha).ok)

lam = mcx.gauge_tower(V, 4, {1: GradedMap(V, V, 2, {(0, 0, 0): Fraction(1, 2)})})
beta = mcx.conjugate(lam, alpha)
print("conjugated tower still Maurer-Cartan:", mcx.mc_check(beta).ok)
print("e^lam intertwines the two towers:",
      mcx.isotopy_check(mcx.exp_assoc(lam), alpha, beta))

# acyclic complex with a compatible nonzero d1: trivializable
d = GradedMap(V, V, -1)
d[1, 0, 0] = 1
d[2, 0, 1] = 1
t1 = GradedMap(V, V, 1)
t1[0, 0, 1] = 3
t1[1, 0, 0] = -3
acyclic = mcx.structure_tower(V, 4, {0: d, 1: t1})
result = mcx.trivialize(acyclic)
print("\nacyclic fixture: trivializer found:", result.found)
print("  gauge logarithm weights:", sorted(result.log.components))

# zero differential with d1 nonzero on homology: the obstruction is exact
W = GradedSpace({0: 1, 1: 1})
o1 = GradedMap(W, W, 1)
o1[0, 0, 0] = 1
obstructed = mcx.structure_tower(W, 4, {1: o1})
result = mcx.trivialize(obstructed)
print("\nnontrivial-homology fixture: trivializer found:", result.found)
print(f"  obstruction at weight {result.stage}, "
      f"residual {mcx.map_entries_to_list(result.residual)}")
