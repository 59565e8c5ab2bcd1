#!/usr/bin/env python3
"""Rooted trees, automorphisms, and levelization weights.

A levelization places the vertices of a tree (or forest) on distinct
horizontal levels with every child strictly above its parent.  Each
levelization gets an exact rational weight: draw a virtual stem from every
root down to a ground line, and for each gap between adjacent levels take
one over the number of strands (edges or stems) crossing it.  Summed over
all levelizations the weights recover exactly 1/|Aut|.
"""

from fractions import Fraction

from prelie.trees import (
    Forest,
    LabeledTree,
    aut_order,
    cm_weight,
    enumerate_forests,
    enumerate_trees,
    level_weight,
    levelizations,
)

print("rooted trees by vertex count:")
for n in range(1, 9):
    print(f"  {n} vertices: {len(enumerate_trees(n))} isomorphism classes")

leaf = LabeledTree("*")
t4 = LabeledTree("*", [leaf, LabeledTree("*", [leaf])])
print(f"\nthe 4-vertex tree {t4.to_text()} (a leaf and a 2-chain over the root):")
print(f"  |Aut| = {aut_order(t4)}, Connes-Moscovici weight n_t = {cm_weight(t4)}")
for lev in levelizations(t4):
    print(f"  levelization {lev.order}: weight {level_weight(lev)}")
total = sum(level_weight(lev) for lev in levelizations(t4))
print(f"  sum of weights = {total} = 1/|Aut|")

print("\nthe same identity on a forest (3-vertex tree next to a lone vertex):")
forest = Forest([LabeledTree("*", [leaf, leaf]), leaf])
weights = [level_weight(lev) for lev in levelizations(forest)]
print(f"  |Aut| = {aut_order(forest)}, weights: {[str(w) for w in weights]}")
print(f"  sum = {sum(weights)} = 1/{aut_order(forest)}")

print("\nexhaustive check over every forest with at most 6 vertices:")
checked = 0
for n in range(1, 7):
    for f in enumerate_forests(n):
        assert sum(level_weight(lev) for lev in levelizations(f)) == Fraction(
            1, aut_order(f)
        )
        checked += 1
print(f"  sum of levelization weights = 1/|Aut f| for all {checked} forests")
