"""Rooted trees and forests with exact combinatorics.

Every vertex carries a label, so a tree is a tree of the free pre-Lie algebra
on its labels; unlabeled trees are labeled ``*``.  Trees are stored in a
canonical form (children sorted by a recursive key), so trees isomorphic
under a label-preserving bijection compare equal and hash equal.  On top of
the enumeration of unlabeled trees the module computes automorphism group
orders, levelizations (placements of the vertices on distinct horizontal
levels with every child strictly above its parent, counted up to
isomorphism), Connes-Moscovici weights, and the rational weight of a
levelization used by the tree-sum formulas of the series modules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from .errors import BoundsError, InternalCheckError, ParseError, ValidationError

DEFAULT_MAX_VERTICES = 10


class LabeledTree:
    """A rooted tree with generator labels, canonical under labeled isomorphism.

    Trees compare by ``(vertex count, label, ordered child keys)``.
    """

    __slots__ = ("label", "children", "nvertices", "key", "_hash")

    def __init__(self, label: str, children=()):
        kids = tuple(sorted(children, key=lambda c: c.key))
        _fill(self, label, kids, tuple(c.key for c in kids), 1 + sum(c.nvertices for c in kids))

    def __setattr__(self, name, value):
        raise AttributeError("LabeledTree is immutable")

    def __eq__(self, other):
        return isinstance(other, LabeledTree) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return f"LabeledTree.from_text({self.to_text()!r})"

    def relabel(self, label: str) -> "LabeledTree":
        """Every vertex relabeled by the same symbol."""
        return LabeledTree(label, (c.relabel(label) for c in self.children))

    def to_text(self) -> str:
        """Canonical text form, e.g. ``(* (*) (* (*)))`` for unlabeled trees."""
        if not self.children:
            return f"({self.label})"
        return f"({self.label} " + " ".join(c.to_text() for c in self.children) + ")"

    @staticmethod
    def from_text(text: str) -> "LabeledTree":
        tree, end = _parse_tree(text, 0)
        if text[end:].strip():
            raise ParseError("trailing input after tree", f"column {end + 1}")
        if tree is None:
            raise ParseError("the empty tree '()' is not a LabeledTree", "column 1")
        return tree


def _fill(tree, label, kids, kid_keys, nvertices, _set=object.__setattr__):
    key = (nvertices, label, kid_keys)
    _set(tree, "label", label)
    _set(tree, "children", kids)
    _set(tree, "nvertices", nvertices)
    _set(tree, "key", key)
    _set(tree, "_hash", hash(key))
    return tree


def _canonical_tree(label, kids, kid_keys, nvertices) -> LabeledTree:
    """A tree from children already in canonical order, their keys and the
    vertex count: nothing is sorted or recounted."""
    return _fill(object.__new__(LabeledTree), label, kids, kid_keys, nvertices)


def _parse_tree(text: str, pos: int):
    """Parse one parenthesized tree starting at pos; returns (tree|None, end).

    ``()`` parses to None (the unit marker).
    """
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    if pos >= n or text[pos] != "(":
        raise ParseError("expected '('", f"column {pos + 1}")
    pos += 1
    while pos < n and text[pos].isspace():
        pos += 1
    if pos < n and text[pos] == ")":
        return None, pos + 1
    start = pos
    while pos < n and not text[pos].isspace() and text[pos] not in "()":
        pos += 1
    label = text[start:pos]
    if not label:
        raise ParseError("expected a generator symbol", f"column {pos + 1}")
    children = []
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            raise ParseError("unterminated tree", f"column {pos + 1}")
        if text[pos] == ")":
            return LabeledTree(label, children), pos + 1
        child, pos = _parse_tree(text, pos)
        if child is None:
            raise ParseError("the unit '()' cannot appear as a subtree", f"column {pos}")
        children.append(child)


class Forest:
    """A finite multiset of rooted trees in canonical order.  May be empty."""

    __slots__ = ("trees", "nvertices", "key", "_hash")

    def __init__(self, trees=()):
        ts = tuple(sorted(trees, key=lambda t: t.key))
        object.__setattr__(self, "trees", ts)
        object.__setattr__(self, "nvertices", sum(t.nvertices for t in ts))
        object.__setattr__(self, "key", tuple(t.key for t in ts))
        object.__setattr__(self, "_hash", hash(self.key))

    def __setattr__(self, name, value):
        raise AttributeError("Forest is immutable")

    def __eq__(self, other):
        return isinstance(other, Forest) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.trees)

    def __repr__(self):
        return "Forest([" + ", ".join(t.to_text() for t in self.trees) + "])"


class Levelization:
    """One placement of a forest's vertices on distinct levels, topmost first.

    ``order[i]`` is the vertex id (see :func:`forest_structure`) placed on
    level ``i + 1``.  Every child appears strictly before its parent.
    """

    __slots__ = ("forest", "order")

    def __init__(self, forest: Forest, order):
        self.forest = forest
        self.order = tuple(order)

    def __eq__(self, other):
        return (
            isinstance(other, Levelization)
            and self.forest == other.forest
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.forest, self.order))

    def __repr__(self):
        return f"Levelization({self.forest!r}, {self.order})"


def _as_forest(f) -> Forest:
    if isinstance(f, LabeledTree):
        return Forest((f,))
    if isinstance(f, Forest):
        return f
    raise TypeError(f"expected LabeledTree or Forest, got {type(f).__name__}")


@lru_cache(maxsize=None)
def _trees(n: int):
    if n == 1:
        return (LabeledTree("*"),)
    return tuple(sorted((LabeledTree("*", f) for f in _forest_tuples(n - 1)), key=lambda t: t.key))


@lru_cache(maxsize=None)
def _forest_tuples_bounded(m: int, size_bound: int, idx_bound: int):
    # Nonincreasing sequences of trees with total size m, first tree bounded
    # by trees(size_bound)[idx_bound].
    if m == 0:
        return ((),)
    out = []
    for size in range(min(m, size_bound), 0, -1):
        ts = _trees(size)
        start = idx_bound if size == size_bound else len(ts) - 1
        for i in range(start, -1, -1):
            for rest in _forest_tuples_bounded(m - size, size, i):
                out.append((ts[i],) + rest)
    return tuple(out)


def _forest_tuples(m: int):
    return _forest_tuples_bounded(m, m, len(_trees(m)) - 1)


def enumerate_trees(n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> list:
    """All unlabeled (``*``-labeled) rooted trees with exactly ``n`` vertices.

    Deterministic order (sorted by canonical key), no duplicates.
    """
    if not 1 <= n <= max_vertices:
        raise BoundsError(f"vertex count must be in 1..{max_vertices}, got {n}")
    return list(_trees(n))


def enumerate_forests(n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> list:
    """All nonempty unlabeled forests with exactly ``n`` vertices, deterministic order."""
    if not 1 <= n <= max_vertices:
        raise BoundsError(f"vertex count must be in 1..{max_vertices}, got {n}")
    return [Forest(f) for f in _forest_tuples(n)]


def aut_order(f) -> int:
    """Order of the label-preserving automorphism group of a tree or forest.

    For a forest this includes the factor permuting identical trees, so
    ``aut_order(Forest([t, t])) == 2 * aut_order(t) ** 2``.
    """
    forest = _as_forest(f)
    return _aut_of_children(forest.trees)


def _aut_of_children(trees) -> int:
    result = 1
    for tree, copies in groupby(trees):  # equal trees are adjacent in canonical order
        mult = sum(1 for _ in copies)
        result *= math.factorial(mult) * _aut_of_children(tree.children) ** mult
    return result


def forest_structure(f):
    """Vertex ids for a forest: ``(parents, children)`` arrays.

    Ids are assigned by visiting the trees in canonical order, each tree in
    preorder with children in canonical order.  Roots have parent ``None``.
    """
    parents, children, _subtrees = _structure(_as_forest(f))
    return list(parents), [list(c) for c in children]


@lru_cache(maxsize=4096)
def _structure(forest: Forest):
    # forest_structure as tuples, plus the subtree rooted at each vertex
    parents: list = []
    children: list = []
    subtrees: list = []

    def visit(tree, parent):
        vid = len(parents)
        parents.append(parent)
        children.append([])
        subtrees.append(tree)
        if parent is not None:
            children[parent].append(vid)
        for c in tree.children:
            visit(c, vid)

    for t in forest.trees:
        visit(t, None)
    return tuple(parents), tuple(map(tuple, children)), tuple(subtrees)


def levelizations(f) -> list:
    """All levelizations of a forest, counted up to isomorphism.

    Two placements that differ by an automorphism of the forest are the same
    levelization; the lexicographically least ``order`` of each is returned,
    in lexicographic order.  The empty forest has no levelizations.

    One depth-first search over the linear extensions (vertices tried in
    increasing id) places the levels top down, and at each step tries only
    the first candidate of each orbit of the automorphisms that fix the
    vertices already placed.  Those automorphisms fix every placed vertex,
    since each sits on its own level, and so every ancestor of one.  Hence
    a candidate with children is alone in its orbit.  For a childless
    candidate u, let a be its topmost ancestor (u itself allowed) with
    nothing placed below it: the parent of a is fixed, while the subtree of
    a and its free siblings with the same labeled subtree may be moved
    freely.  The orbit of u is therefore named by the parent of a and the
    labeled subtrees on the path from u up to a.  The least extension of each class is never
    pruned: were its choice at some step not the first of its orbit, an
    automorphism fixing the prefix would map it to a smaller extension of
    the same class.  No class is found twice: at the first step where two
    isomorphic extensions differ, their prefixes agree, so the two choices
    lie in one orbit of the prefix's stabilizer, and only one is tried.
    """
    forest = _as_forest(f)
    n = forest.nvertices
    if n == 0:
        return []
    parents, children, subtrees = _structure(forest)
    ids: dict = {}
    shape = [ids.setdefault(t, len(ids)) for t in subtrees]
    waiting = [len(c) for c in children]  # unplaced children; -1 once placed
    below = [0] * n  # placed vertices in the subtree of each vertex
    order: list = []
    out: list = []

    def rec():
        if len(order) == n:
            out.append(Levelization(forest, order))
            return
        tried = set()
        for v in range(n):
            if waiting[v]:
                continue
            if not children[v]:
                a, path = v, [shape[v]]
                while parents[a] is not None and not below[parents[a]]:
                    a = parents[a]
                    path.append(shape[a])
                orbit = (parents[a], tuple(path))
                if orbit in tried:
                    continue
                tried.add(orbit)
            waiting[v] = -1
            order.append(v)
            p = parents[v]
            if p is not None:
                waiting[p] -= 1
            w = v
            while w is not None:
                below[w] += 1
                w = parents[w]
            rec()
            w = v
            while w is not None:
                below[w] -= 1
                w = parents[w]
            if p is not None:
                waiting[p] += 1
            order.pop()
            waiting[v] = 0

    rec()
    return out


def cm_weight(t: LabeledTree) -> int:
    """Connes-Moscovici weight: the number of levelizations of the tree.

    Computed in closed form as (number of linear extensions) / |Aut t|,
    where the extension count is nvertices! divided by the product of all
    subtree sizes; Aut t acts freely on the extensions, since every vertex
    sits on its own level.
    """
    if not isinstance(t, LabeledTree):
        raise TypeError("cm_weight expects a LabeledTree")
    extensions, sizes = math.factorial(t.nvertices), _subtree_size_product(t)
    le_count, rem = divmod(extensions, sizes)
    if rem:
        raise InternalCheckError(f"cm_weight: {sizes} does not divide {extensions}")
    aut = aut_order(t)
    n_t, rem = divmod(le_count, aut)
    if rem:
        raise InternalCheckError(f"cm_weight: |Aut| = {aut} does not divide {le_count}")
    return n_t


def _subtree_size_product(t: LabeledTree) -> int:
    return t.nvertices * math.prod(_subtree_size_product(c) for c in t.children)


def level_weight(lev: Levelization) -> Fraction:
    """Exact rational weight of a levelization.

    Every root grows a virtual stem down to a ground line below the lowest
    level.  For each gap (between consecutive levels, and between the lowest
    level and ground) count the strands crossing it -- an edge spans from the
    child's level down to the parent's level, a stem from its root's level to
    ground -- and multiply one over the strand count over all gaps.

    The strands crossing the gap below a level are the edges and stems
    leaving the vertices placed so far, less the edges among them; since
    every child of a placed vertex is placed, walking ``lev.order`` top down
    the count moves by ``1 - #children(v)`` at each vertex v.
    """
    parents, children, _subtrees = _structure(_as_forest(lev.forest))
    n = len(parents)
    if sorted(lev.order) != list(range(n)):
        raise ValidationError("levelization order is not a permutation of the vertices")
    level = {v: i + 1 for i, v in enumerate(lev.order)}
    for v, p in enumerate(parents):
        if p is not None and level[v] >= level[p]:
            raise ValidationError(f"vertex {v} is not above its parent {p}")
    strands, product = 0, 1
    for v in lev.order:
        strands += 1 - len(children[v])
        product *= strands
    return Fraction(1, product)
