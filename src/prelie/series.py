"""Truncated free pre-Lie algebra on labeled rooted trees.

Generators are plain string symbols of homological degree 0.  A series is a
finite rational combination of generator-labeled rooted trees, truncated at a
fixed vertex count.  Its unit part is the coefficient of the vertex-free tree
:data:`prelie.trees.UNIT`, one more key of the same combination.  The
grafting product, symmetric braces, circle product, exponential, Magnus
logarithm, group-like inversion, Lie bracket, BCH product and the gauge
action are provided as module-level functions.  For g = 1 + b the circle
product is x(t_1, .., t_k) (o) g = x(t_1 (o) g, .., t_k (o) g) . e^b, with
e^b the sum over m of b attached to the root m times over, divided by m!.

The unit is one-sided:  1 * x = x,  while grafting the unit on the right
contributes nothing (x * 1 = 0 on the pure-unit part).  This convention is
pinned down by the identity  e^{r_lambda}(a) = a (o) e^lambda  exercised in
the test suite.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from . import calculus
from .combination import Combination, add_into, coefficient_text, exact, parse_number
from .errors import DomainError, ParseError, TruncationMismatch, shown
from .trees import UNIT, LabeledTree, _canonical_tree, _parse_tree


def _require_order(order: int) -> None:
    if order < 1:
        raise DomainError(f"truncation order must be >= 1, got {shown(order)}")


class TreeSeries(Combination):
    """Finite rational combination of labeled trees, truncated in vertex count;
    ``unit`` is added to the coefficient of the vertex-free tree :data:`UNIT`."""

    __slots__ = ("order", "terms")
    _shape = ("order",)
    _store = "terms"
    _mismatch = TruncationMismatch

    def __init__(self, order: int, unit=0, terms=None):
        _require_order(order)
        self.order = order
        clean = {}
        if terms:
            for tree, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = exact(coeff)
                if coeff and tree.nvertices <= order:
                    clean[tree] = coeff
        if unit:
            add_into(clean, UNIT, exact(unit))
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "TreeSeries":
        return TreeSeries(order)

    @staticmethod
    def one(order: int) -> "TreeSeries":
        return TreeSeries(order, unit=1)

    @staticmethod
    def generator(symbol: str, order: int) -> "TreeSeries":
        """The one-vertex tree labeled ``symbol``, a symbol that the text format
        reads back: not empty, with no whitespace, ``(``, ``)`` or ``#``."""
        if not symbol or any(ch.isspace() or ch in "()#" for ch in symbol):
            raise DomainError(
                "a generator symbol must be non-empty, with no whitespace, '(', ')' or '#', "
                f"got {shown(symbol)}"
            )
        return TreeSeries(order, terms={LabeledTree(symbol): 1})

    @staticmethod
    def from_tree(tree: LabeledTree, order: int, coeff=1) -> "TreeSeries":
        return TreeSeries(order, terms={tree: coeff})

    # -- protocol for the generic calculus ---------------------------------

    @property
    def max_weight(self) -> int:
        return self.order

    def unit_like(self) -> "TreeSeries":
        return TreeSeries.one(self.order)

    def weight_component(self, n: int) -> "TreeSeries":
        return self._like({t: c for t, c in self.terms.items() if t.nvertices == n})

    def star(self, other: "TreeSeries") -> "TreeSeries":
        return graft(self, other)

    def circle(self, other: "TreeSeries") -> "TreeSeries":
        return circle(self, other)

    def __repr__(self):
        body = "; ".join(format_series(self).splitlines()) or "0"
        return f"<TreeSeries order={self.order}: {body}>"

    @property
    def unit(self):
        return self.coefficient(UNIT)

    def coefficient(self, tree: LabeledTree):
        """The coefficient of ``tree``: an ``int`` when whole, else a ``Fraction``."""
        return self.terms.get(tree, 0)

    def min_tree_weight(self):
        return min((t.nvertices for t in self.terms if t is not UNIT), default=None)


# -- grafting ----------------------------------------------------------------


def _add_child(s: LabeledTree, t: LabeledTree) -> LabeledTree:
    """s with t as one more child of its root, inserted by ``bisect_right``
    among the children's keys, so the children stay in canonical order."""
    kids, keys, n = s.children, s.key[2], s.nvertices + t.nvertices
    j = bisect_right(keys, t.key)
    return _canonical_tree(s.label, kids[:j] + (t,) + kids[j:], keys[:j] + (t.key,) + keys[j:], n)


def _graft_trees(s: LabeledTree, t: LabeledTree, memo: dict):
    """All ways to attach t's root as a new child of a vertex of s.

    ``memo`` maps (subtree, t) to its list, so a subtree shared by several
    trees, or repeated among one tree's children, is grafted into once.
    Each output tree is built in canonical order: the new child by
    :func:`_add_child`, a grown one by ``bisect_right`` among its siblings'
    keys, where it only moves right, since its vertex count, the first entry
    of its key, went up.
    """
    key = (s, t)
    out = memo.get(key)
    if out is None:
        label, kids, keys = s.label, s.children, s.key[2]
        n = s.nvertices + t.nvertices
        out = [_add_child(s, t)]
        for i, child in enumerate(kids):
            for grafted in _graft_trees(child, t, memo):
                j = bisect_right(keys, grafted.key, i + 1)
                out.append(
                    _canonical_tree(
                        label,
                        kids[:i] + kids[i + 1 : j] + (grafted,) + kids[j:],
                        keys[:i] + keys[i + 1 : j] + (grafted.key,) + keys[j:],
                        n,
                    )
                )
        memo[key] = out
    return out


def graft(s: TreeSeries, t: TreeSeries) -> TreeSeries:
    """Pre-Lie grafting product, bilinear over trees.

    The unit :data:`UNIT` grafts as a left unit only:  1 * x = x  while
    sigma * 1 = 0  for every tree sigma.  The grafts of each (subtree, tau)
    pair are computed once per call and shared between the trees of ``s``
    that hold that subtree; the memo is dropped on return.  The trees of
    ``t`` are visited by vertex count, so each sigma stops at the truncation
    instead of testing every pair.
    """
    s._check(t)
    order = s.order
    result = t * s.unit  # 1 * x = x on the unit part of s
    trees = [tc for tc in t.terms.items() if tc[0] is not UNIT]  # sigma * 1 = 0
    taus = sorted(trees, key=lambda tc: tc[0].nvertices)
    memo: dict = {}
    for sigma, cs in s.terms.items():
        if sigma is UNIT:
            continue
        room = order - sigma.nvertices
        for tau, ct in taus:
            if tau.nvertices > room:
                break
            c = cs * ct
            for tree in _graft_trees(sigma, tau, memo):
                add_into(result.terms, tree, c)
    return result


def bracket(x: TreeSeries, y: TreeSeries) -> TreeSeries:
    """Lie bracket  [x, y] = x*y - y*x  (all generators sit in degree 0)."""
    return graft(x, y) - graft(y, x)


def brace(a: TreeSeries, args) -> TreeSeries:
    """Symmetric brace {a; b_1, ..., b_n} by the defining recursion."""
    return calculus.symmetric_brace(a, list(args))


# -- circle product ----------------------------------------------------------


def _require_grouplike(g: TreeSeries):
    if g.unit != 1:
        raise DomainError("right factor of the circle product must have unit part 1")


def _attach(trees, children, room: int):
    """Each of ``trees`` with one of ``children`` added to its root, summed and
    cut to ``room`` vertices; all three hold (tree, coeff) pairs.  ``children``
    is listed by vertex count: a tree stops at the first that does not fit."""
    out: dict = {}
    for s, cs in trees:
        left = room - s.nvertices
        for t, ct in children:
            if t.nvertices > left:
                break
            add_into(out, _add_child(s, t), cs * ct)
    return out.items()


def circle(a: TreeSeries, g: TreeSeries) -> TreeSeries:
    """Circle product  a (o) g = sum_n {a; b, .., b} / n!  for g = 1 + b, by
    the recursion  x(t_1, .., t_k) (o) g = x(t_1 (o) g, .., t_k (o) g) . e^b:
    e^b attaches b to the root m times over and divides by m!, which gives
    each multiset of trees of b its weight prod c^m / m!.  ``decorate(tree,
    room)`` is  tree (o) g  cut to trees of at most ``room`` vertices, listed
    by vertex count and formed once per call; the tests cross-check the
    result against the brace expansion.
    """
    a._check(g)
    _require_grouplike(g)
    b = sorted(g.terms.items(), key=lambda tc: tc[0].key)[1:]  # g = 1 + b; the unit sorts first
    memo: dict = {}

    def decorate(tree, room):
        out = memo.get((tree, room))
        if out is None:
            grown = [(_canonical_tree(tree.label, (), (), 1), 1)]
            rest = tree.nvertices - 1  # the vertices of the children still to come
            for child in tree.children:
                rest -= child.nvertices
                kids = decorate(child, room - tree.nvertices + child.nvertices)
                grown = _attach(grown, kids, room - rest)
            total = dict(grown)
            for m in range(1, room + 1):  # b attached m times over, then / m!
                grown = _attach(grown, b, room)
                if not grown:
                    break
                for tree_m, c in grown:
                    add_into(total, tree_m, c if m == 1 else Fraction(c, math.factorial(m)))
            out = memo[tree, room] = sorted(total.items(), key=lambda tc: tc[0].nvertices)
        return out

    result = g * a.unit  # left linearity: the unit part of a contributes a.unit * g
    for sigma, cs in a.terms.items():
        if sigma is not UNIT:
            for tree, coeff in decorate(sigma, a.order):
                add_into(result.terms, tree, cs * coeff)
    return result


# -- exponential, logarithm, group structure ---------------------------------


def exp(lam: TreeSeries) -> TreeSeries:
    """Pre-Lie exponential  1 + lam + lam^{*2}/2! + ...  (right-iterated powers)."""
    return calculus.exp_series(lam)


def magnus(a: TreeSeries) -> TreeSeries:
    """Pre-Lie Magnus expansion: the unique lam with exp(lam) = 1 + a."""
    return calculus.magnus_series(a)


def grouplike_inverse(g: TreeSeries) -> TreeSeries:
    """Circle-product inverse of a group-like g = 1 - mu, solved weight by
    weight from  x (o) g = 1; it equals the closed tree sum
    sum_t t(mu) / |Aut t|  over unlabeled rooted trees t (a tested identity)."""
    _require_grouplike(g)
    return calculus.circle_inverse(g)


def _log_word_coefficients(weights: dict, order: int) -> dict:
    """Coefficients c_w of log(e^X e^Y) in the free associative algebra.

    Words are strings over "xy", kept while the ``weights`` of their letters
    sum to at most ``order``.  With Z = e^X e^Y - 1, the sum of the pieces
    x^a y^b (a + b >= 1) over a! b!,  c_w = sum_k (-1)^(k+1) [Z^k]_w / k.
    ``level`` holds |w|! [Z^k]_w, an integer (a sum of multinomials over the
    cuts of w into k pieces), and grows by one piece per step, so the only
    fractions formed are the c_w themselves.
    """
    wx, wy = weights["x"], weights["y"]
    pieces = [
        ("x" * a + "y" * b, math.comb(a + b, a), a * wx + b * wy)
        for a in range(order // wx + 1)
        for b in range(order // wy + 1)
        if a + b and a * wx + b * wy <= order
    ]
    longest = order // min(wx, wy)
    scale = math.lcm(*range(1, longest + 1))
    weight = {w: wt for w, _, wt in pieces}
    level = {w: m for w, m, _ in pieces}
    sums: dict = {}
    for k in range(1, longest + 1):
        step = (-1) ** (k + 1) * (scale // k)
        following: dict = {}
        for u, m in level.items():
            sums[u] = sums.get(u, 0) + step * m
            for v, mv, wv in pieces:
                wt = weight[u] + wv
                if wt <= order:
                    w = u + v
                    weight[w] = wt
                    following[w] = following.get(w, 0) + math.comb(len(w), len(u)) * mv * m
        level = following
    return {w: Fraction(s, scale * math.factorial(len(w))) for w, s in sums.items() if s}


def bch(x: TreeSeries, y: TreeSeries) -> TreeSeries:
    """Baker-Campbell-Hausdorff product: the lam with exp(lam) = exp(x) (o) exp(y).

    By the integration theorem for pre-Lie algebras, the group-like elements
    under (o) form the BCH group of the Lie algebra with [a, b] = a*b - b*a,
    so lam is the Lie series log(e^x e^y) in that bracket.  By
    Dynkin-Specht-Wever its degree-n part is (1/n) sum_{|w|=n} c_w r(w), with
    c_w from :func:`_log_word_coefficients` and r(w) = [w_1, [w_2, .., w_n]],
    evaluated by Horner over word prefixes:

        H(p) = sum_b c_{pb} / |pb| * b + sum_b [b, H(pb)],   lam = H(empty word).

    A letter weighs the vertex count of its input's lightest tree; a prefix
    is extended only while its letters leave room for one more under the
    order, and H(p) keeps only the trees that still fit beside p's letters.
    Each H(p) is formed once and dropped once its bracket is taken.  The
    Magnus route  log(exp(x) (o) exp(y))  is the test oracle
    ``bch_by_magnus`` in ``tests/helpers.py``.
    """
    for s in (x, y):
        if s.unit:
            raise DomainError("exponential needs a trivial weight-0 component")
    x._check(y)
    order = x.order
    letters = {"x": x, "y": y}
    # a zero input weighs more than the order, so its letter is never used
    weights = {b: s.min_tree_weight() or order + 1 for b, s in letters.items()}
    coeffs = _log_word_coefficients(weights, order)
    lightest = min(weights.values())

    def horner(prefix: str, used: int) -> TreeSeries:
        out = x.zero_like()
        n = len(prefix) + 1
        for b, s in letters.items():
            fill = used + weights[b]
            if fill > order:
                continue
            c = coeffs.get(prefix + b)
            if c:
                out._iadd(s * Fraction(c, n))
            if fill + lightest <= order:
                out._iadd(bracket(s, horner(prefix + b, fill)))
        out.terms = {t: c for t, c in out.terms.items() if t.nvertices <= order - used}
        return out

    return horner("", 0)


def gauge_act(lam: TreeSeries, alpha: TreeSeries) -> TreeSeries:
    """Gauge action  (exp(lam) * alpha) (o) exp(-lam)  =  e^{ad_lam}(alpha)."""
    return calculus.gauge_act(lam, alpha)


def eval_tree(tree: LabeledTree, values):
    """Evaluate a labeled tree monomial in any pre-Lie target.

    ``values`` maps generator symbols to target elements; a root r with child
    subtrees s_1..s_k evaluates to {values[r]; eval(s_1), .., eval(s_k)},
    the symmetric brace built from ``.star``.  An unlabeled tree t is
    evaluated at v by ``eval_tree(t, {"*": v})``.  The vertex-free tree
    :data:`UNIT` evaluates to the unit of the target of the bound values.
    """
    if tree is UNIT:
        for value in values.values():
            return value.unit_like()
        raise DomainError("the unit () has no target: no generator is bound")
    try:
        root = values[tree.label]
    except KeyError:
        raise KeyError(f"generator {shown(tree.label)} is not bound in the context") from None
    return calculus.symmetric_brace(root, [eval_tree(c, values) for c in tree.children])


# -- text format --------------------------------------------------------------


def parse_series(text: str, order: int) -> TreeSeries:
    """Parse the one-term-per-line format ``<rational> <tree>``.

    The unit term is written ``1 ()``: ``()`` is the vertex-free tree
    :data:`UNIT`.  Children may appear in any order; trees are
    canonicalized.  Blank lines and ``#`` comments are skipped.
    """
    _require_order(order)
    terms: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        if len(fields) != 2:
            raise ParseError("expected '<rational> <tree>'", f"line {lineno}")
        try:
            coeff = parse_number(fields[0], Fraction, "a coefficient")
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"bad rational coefficient {shown(fields[0])}", f"line {lineno}"
            ) from None
        try:
            tree, end = _parse_tree(fields[1], 0)
            if fields[1][end:].strip():
                raise ParseError("trailing input after tree", f"column {end + 1}")
        except ParseError as exc:
            raise ParseError(str(exc), f"line {lineno}") from None
        except RecursionError:
            raise ParseError("tree nested too deeply", f"line {lineno}") from None
        if tree.nvertices > order:
            raise ParseError(
                f"tree has {tree.nvertices} vertices, above truncation {order}",
                f"line {lineno}",
            )
        add_into(terms, tree, coeff)
    return TreeSeries(order, terms=terms)


def format_series(s: TreeSeries) -> str:
    """Inverse of :func:`parse_series`; terms sorted canonically, the unit first."""
    return "\n".join(
        f"{coefficient_text(s.terms[t])} {t.to_text()}" for t in sorted(s.terms, key=lambda t: t.key)
    )
