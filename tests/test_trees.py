"""Rooted-tree combinatorics against brute-force oracles.

Unlabeled trees are the trees labeled ``*``; the same functions count the
label-preserving automorphisms and levelizations of labeled trees.
"""

import math
import random
from fractions import Fraction

import pytest

from helpers import (
    level_weight_by_gaps,
    levelizations_by_extensions,
    oracle_automorphisms,
    oracle_levelization_orbits,
    oracle_tree_shapes,
    random_labeled_tree,
    tree_to_ahu,
)
from prelie import trees
from prelie.errors import BoundsError, InternalCheckError, ValidationError
from prelie.trees import (
    Forest,
    LabeledTree,
    Levelization,
    aut_order,
    cm_weight,
    enumerate_forests,
    enumerate_trees,
    levelizations,
    level_weight,
)



def node(*children):
    return LabeledTree("*", children)


LEAF = node()
CHAIN2 = node(LEAF)
# root with a leaf child and a 2-chain child; the smallest tree whose
# levelizations are not all forced
T4 = node(LEAF, CHAIN2)


def test_single_vertex():
    assert enumerate_trees(1) == [LEAF]
    assert aut_order(LEAF) == 1
    assert cm_weight(LEAF) == 1


def test_vertex_free_tree():
    assert trees.UNIT.relabel("*") is trees.UNIT
    assert cm_weight(trees.UNIT) == 1
    assert aut_order(trees.UNIT) == 1
    assert LabeledTree.from_text(trees.UNIT.to_text()) is trees.UNIT
    assert trees.UNIT < LEAF


def test_enumeration_matches_parent_function_oracle():
    for n in range(1, 8):
        ours = {tree_to_ahu(t) for t in enumerate_trees(n)}
        assert ours == oracle_tree_shapes(n)
        assert len(enumerate_trees(n)) == len(ours)


def test_enumeration_counts():
    counts = [len(enumerate_trees(n)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115]


def test_enumeration_bounds():
    with pytest.raises(BoundsError):
        enumerate_trees(0)
    with pytest.raises(BoundsError):
        enumerate_trees(11)
    assert len(enumerate_trees(11, max_vertices=11)) == 1842


def test_canonical_form_is_relabeling_invariant():
    # random parent functions; shuffling the construction order of children
    # must not change the canonical object
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 8)
        parents = [rng.randrange(i) for i in range(1, n)]
        children = [[] for _ in range(n)]
        for child, parent in enumerate(parents, start=1):
            children[parent].append(child)

        def build(v, order):
            kids = children[v][:]
            order.shuffle(kids)
            return node(*(build(c, order) for c in kids))

        t1 = build(0, random.Random(rng.random()))
        t2 = build(0, random.Random(rng.random()))
        assert t1 == t2
        assert hash(t1) == hash(t2)


def test_aut_order_against_bijection_oracle():
    rng = random.Random(1)
    pool = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for t in pool:
        assert aut_order(t) == len(oracle_automorphisms(Forest([t])))
    corolla3 = node(LEAF, LEAF, LEAF)
    assert aut_order(corolla3) == 6
    assert aut_order(T4) == 1


def test_aut_order_forest_multiplicities():
    for t in enumerate_trees(3):
        assert aut_order(Forest([t, t])) == 2 * aut_order(t) ** 2
        assert aut_order(Forest([t, t, t])) == 6 * aut_order(t) ** 3


def test_levelizations_of_the_four_vertex_tree():
    levs = levelizations(T4)
    assert len(levs) == 3
    weights = sorted(level_weight(l) for l in levs)
    assert weights == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]


def test_levelizations_chain_and_empty():
    chain5 = LEAF
    for _ in range(4):
        chain5 = node(chain5)
    levs = levelizations(chain5)
    assert len(levs) == 1
    assert level_weight(levs[0]) == 1
    assert levelizations(Forest()) == []


def test_levelizations_count_up_to_isomorphism():
    # identical branches produce identical pictures: corollas have exactly one
    corolla2 = node(LEAF, LEAF)
    assert len(levelizations(corolla2)) == 1
    for n in range(1, 7):
        for forest in enumerate_forests(n):
            orders = [l.order for l in levelizations(forest)]
            assert orders == oracle_levelization_orbits(forest)


def test_levelizations_equal_the_extension_walk():
    # orbit pruning keeps exactly the least extension of each class, in the
    # order the full walk over linear extensions meets them
    objs = [Forest([t]) for n in range(1, 9) for t in enumerate_trees(n)]
    objs += [f for n in range(1, 8) for f in enumerate_forests(n)]
    for f in objs:
        levs, expected = levelizations(f), levelizations_by_extensions(f)
        assert [l.order for l in levs] == [l.order for l in expected]
        assert [level_weight(l) for l in levs] == [level_weight_by_gaps(l) for l in expected]


def test_cm_weight_equals_levelization_count():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert cm_weight(t) == len(levelizations(t))


def test_cm_weight_reports_a_failed_division(monkeypatch):
    # the divisions are checks that hold by theory; they must fail loudly,
    # also under python -O
    with monkeypatch.context() as m:
        m.setattr(trees, "_subtree_size_product", lambda t: 5)
        with pytest.raises(InternalCheckError):
            cm_weight(T4)
    with monkeypatch.context() as m:
        m.setattr(trees, "aut_order", lambda t: 5)
        with pytest.raises(InternalCheckError):
            cm_weight(T4)
    assert cm_weight(T4) == 3


def test_cm_weight_sum_is_factorial():
    # the (n-1)! labeled increasing trees distribute over shapes as cm_weight
    for n in range(1, 8):
        assert sum(cm_weight(t) for t in enumerate_trees(n)) == math.factorial(n - 1)


def test_level_weight_examples():
    # the two-tree forest: 3-vertex tree levelized around a lone vertex on
    # the second level gives 1 * 1/2 * 1/3 * 1/2 = 1/12
    t3 = node(LEAF, LEAF)
    forest = Forest([t3, LEAF])
    target = Fraction(1, 12)
    assert target in {level_weight(l) for l in levelizations(forest)}


def test_level_weight_validation():
    levs = levelizations(T4)
    bad = Levelization(levs[0].forest, tuple(reversed(levs[0].order)))
    with pytest.raises(ValidationError):
        level_weight(bad)


def test_text_encoding_round_trip():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert LabeledTree.from_text(t.to_text()) == t
    assert LabeledTree.from_text("(* (*) (* (*)))") == T4


def test_levelization_weight_sum_small_forests():
    for n in range(1, 6):
        for forest in enumerate_forests(n):
            total = sum(level_weight(l) for l in levelizations(forest))
            assert total == Fraction(1, aut_order(forest))


def _random_labeled_forests(seed, count, max_vertices):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ntrees = rng.choice([1, 1, 2, 3])
        sizes = [rng.randint(1, max_vertices // ntrees) for _ in range(ntrees)]
        out.append(Forest([random_labeled_tree("ab", n, rng) for n in sizes]))
    return out


def test_labeled_trees_against_the_automorphism_oracle():
    # levelizations are counted up to label-preserving automorphisms: the
    # library's orbit pruning against orbits of the brute-force group
    for forest in _random_labeled_forests(2, 200, 7):
        autos = oracle_automorphisms(forest)
        levs = levelizations(forest)
        assert aut_order(forest) == len(autos)
        assert [l.order for l in levs] == oracle_levelization_orbits(forest)
        assert [level_weight(l) for l in levs] == [level_weight_by_gaps(l) for l in levs]
        assert sum(level_weight(l) for l in levs) == Fraction(1, len(autos))
        if len(forest) == 1:
            assert cm_weight(forest.trees[0]) == len(levs)


def test_labels_break_symmetry():
    a, b = LabeledTree("a"), LabeledTree("b")
    mixed = LabeledTree("r", [a, b])
    assert aut_order(mixed) == 1
    assert len(levelizations(mixed)) == 2 == cm_weight(mixed)
    assert aut_order(mixed.relabel("*")) == 2
    assert len(levelizations(mixed.relabel("*"))) == 1 == cm_weight(mixed.relabel("*"))
    assert aut_order(Forest([a, b])) == 1
    assert aut_order(Forest([a, a])) == 2
