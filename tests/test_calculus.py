"""The weight-graded series calculus against the routes it replaced.

``calculus.magnus_series`` and ``calculus.circle_inverse`` are compared with
the whole-series oracles ``helpers.magnus_by_exp`` and
``helpers.circle_inverse_by_resolve`` on tree series, convolution elements
and operator towers, ``series.graft`` with ``helpers.graft_by_pairs``, and
``series.grouplike_inverse`` with the closed tree sum
``helpers.grouplike_inverse_by_trees``; on operator towers,
``magnus_series`` is also the alternating ``helpers.assoc_log``.
The laws tying exponential, logarithm and the products together are checked
exactly, and so is the text form of a series, which reads back to itself.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    COEFF_CHOICES,
    acyclic_dga,
    assoc_log,
    bch_by_magnus,
    circle_inverse_by_resolve,
    graft_by_pairs,
    grouplike_inverse_by_trees,
    labeled_trees,
    magnus_by_exp,
    massey_dga,
    random_contraction,
    random_gauge_element,
    random_gauge_tower,
    random_grouplike,
    tree_series,
)
from prelie import calculus
from prelie import multicomplex as mcx
from prelie.ainf import (
    circle as conv_circle,
    circle_inverse as conv_circle_inverse,
    element_from_map,
    find_trivializer,
    gauge_act,
)
from prelie.linalg import GradedSpace
from prelie.series import (
    LabeledTree,
    TreeSeries,
    bch,
    circle,
    exp,
    format_series,
    graft,
    grouplike_inverse,
    parse_series,
)
from prelie.trees import UNIT

BUDGET = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
COEFFS = st.sampled_from(COEFF_CHOICES)
CONV_SPACE = GradedSpace({0: 2, 1: 1, -1: 1})
# every weight w of a gauge tower has degree 2w, so the degrees reach weight 4
TOWER_SPACE = GradedSpace({0: 1, 2: 2, 4: 1, 6: 1, 8: 1})


@st.composite
def magnus_inputs(draw):
    """Two-generator series at orders 1-7, half of them with no weight-1 part."""
    a = draw(tree_series(draw(st.integers(1, 7))))
    if draw(st.booleans()):
        a = a - a.weight_component(1)
    return a


@st.composite
def sharing_series(draw):
    """Series whose trees hang their children from one small pool of
    subtrees, so that trees share subtrees and repeat children."""
    pool = [draw(labeled_trees(draw(st.integers(1, 2)))) for _ in range(2)]
    terms: dict = {}
    for _ in range(draw(st.integers(1, 4))):
        kids = draw(st.lists(st.sampled_from(pool), max_size=3))
        tree = LabeledTree(draw(st.sampled_from("xy")), kids)
        terms[tree] = terms.get(tree, 0) + draw(COEFFS)
    return TreeSeries(7, draw(st.sampled_from([0, 1, -2])), terms)


# -- tree series ------------------------------------------------------------------


@BUDGET
@given(magnus_inputs())
def test_magnus_equals_exp_route_on_tree_series(a):
    lam = calculus.magnus_series(a)
    assert lam == magnus_by_exp(a)
    assert calculus.exp_series(lam) == a.unit_like() + a


@BUDGET
@given(st.integers(1, 6).flatmap(lambda order: tree_series(order)))
def test_circle_inverse_equals_resolve_on_tree_series(b):
    g = b.unit_like() + b
    inv = calculus.circle_inverse(g)
    assert inv == circle_inverse_by_resolve(g, circle)
    assert circle(inv, g) == g.unit_like()
    assert grouplike_inverse(g) == inv


@BUDGET
@given(st.integers(1, 6).flatmap(lambda order: tree_series(order)))
def test_grouplike_inverse_equals_tree_sum(b):
    # (1 - mu)^{(o) -1} = sum over unlabeled trees t of t(mu) / |Aut t|
    g = b.unit_like() + b
    assert grouplike_inverse(g) == grouplike_inverse_by_trees(g)


@st.composite
def bch_operands(draw):
    """Two series at orders 1-6: unrelated, one of them zero, equal,
    opposite, or both with no weight-1 part, so that the word table is cut by
    the letters' weights and not only by the words' lengths."""
    order = draw(st.integers(1, 6))
    x, y = draw(tree_series(order)), draw(tree_series(order))
    case = draw(st.sampled_from(["unrelated", "zero", "equal", "opposite", "heavy"]))
    if case == "zero":
        return draw(st.sampled_from([(x.zero_like(), y), (x, y.zero_like())]))
    if case == "equal":
        return x, x
    if case == "opposite":
        return x, -x
    if case == "heavy":
        return x - x.weight_component(1), y - y.weight_component(1)
    return x, y


@BUDGET
@given(bch_operands())
def test_bch_equals_magnus_route(operands):
    x, y = operands
    assert bch(x, y) == bch_by_magnus(x, y)


def test_exp_of_bch_is_circle_of_exps_at_order_seven():
    x, y = TreeSeries.generator("x", 7), TreeSeries.generator("y", 7)
    assert exp(bch(x, y)) == circle(exp(x), exp(y))


# -- grafting ---------------------------------------------------------------------


@BUDGET
@given(tree_series(6, unit=1), tree_series(6), tree_series(6))
def test_graft_right_symmetric_associator(x, y, z):
    left = graft(graft(x, y), z) - graft(x, graft(y, z))
    right = graft(graft(x, z), y) - graft(x, graft(z, y))
    assert left == right


@BUDGET
@given(sharing_series(), sharing_series())
def test_graft_equals_pairwise_grafting(s, t):
    assert graft(s, t) == graft_by_pairs(s, t)
    assert graft(t, s) == graft_by_pairs(t, s)


@st.composite
def tying_grafts(draw):
    """A tree s and a tree t such that grafting t into s ties with siblings:
    the children of s repeat, t is one of them, and the pool they come from
    also holds each pool tree with t grafted at its root."""
    pool = [draw(labeled_trees(draw(st.integers(1, 3)))) for _ in range(3)]
    t = draw(st.sampled_from(pool))
    pool += [LabeledTree(p.label, p.children + (t,)) for p in pool]
    kids = draw(st.lists(st.sampled_from(pool), max_size=4))
    return LabeledTree(draw(st.sampled_from("xy")), kids), t


def _subtrees(tree):
    yield tree
    for child in tree.children:
        yield from _subtrees(child)


@BUDGET
@given(tying_grafts())
def test_grafted_trees_are_canonical(pair):
    s, t = pair
    order = s.nvertices + t.nvertices
    product = graft(TreeSeries.from_tree(s, order), TreeSeries.from_tree(t, order))
    assert sum(product.terms.values()) == s.nvertices  # one graft per vertex of s
    for tree in product.terms:
        for sub in _subtrees(tree):
            rebuilt = LabeledTree(sub.label, sub.children)
            assert sub.children == rebuilt.children
            assert sub.key == rebuilt.key
            assert hash(sub) == hash(rebuilt)
            assert sub.nvertices == rebuilt.nvertices


# -- convolution elements ---------------------------------------------------------


@st.composite
def gauged_differentials(draw):
    """e^lambda . delta for the differential delta of a contraction: gauge
    trivial by construction, so ``find_trivializer`` succeeds."""
    truncation = draw(st.integers(3, 5))
    source = draw(st.sampled_from(["acyclic", "massey", "random"]))
    if source == "random":
        c = random_contraction(random.Random(draw(st.integers(0, 10**6))), ndeg=3, maxdim=2, npairs=3)
    else:
        c = {"acyclic": acyclic_dga, "massey": massey_dga}[source](truncation)[1]
    delta = element_from_map(c.d, truncation)
    rng = random.Random(draw(st.integers(0, 10**6)))
    lam = random_gauge_element(c.big, truncation, rng, nentries=draw(st.integers(1, 4)))
    return gauge_act(lam, delta)


@settings(BUDGET, max_examples=15)
@given(gauged_differentials())
def test_trivializer_log_equals_exp_route(alpha):
    result = find_trivializer(alpha)
    assert result.found
    assert result.log == magnus_by_exp(result.f - result.f.unit_like())
    assert calculus.exp_series(result.log) == result.f


@BUDGET
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1, 4))
def test_grouplike_inverse_and_log_equal_old_routes_on_conv(seed, truncation, nentries):
    g = random_grouplike(CONV_SPACE, truncation, random.Random(seed), nentries)
    inv = conv_circle_inverse(g)
    assert inv == circle_inverse_by_resolve(g, conv_circle)
    assert conv_circle(inv, g) == g.unit_like()
    a = g - g.unit_like()
    lam = calculus.magnus_series(a)
    assert lam == magnus_by_exp(a)
    assert calculus.exp_series(lam) == g


# -- operator towers --------------------------------------------------------------


@BUDGET
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4))
def test_tower_magnus_equals_assoc_log(seed, truncation, nentries):
    # the tower product is associative, so both logarithms invert exp_series
    lam = random_gauge_tower(TOWER_SPACE, truncation, random.Random(seed), nentries)
    f = calculus.exp_series(lam)
    a = f - f.unit_like()
    assert calculus.magnus_series(a) == assoc_log(f) == mcx.log_assoc(f) == lam
    assert calculus.magnus_series(a) == magnus_by_exp(a)
    assert calculus.exp_series(calculus.magnus_series(a)) == f
    assert mcx.exp_assoc(lam) == f


@BUDGET
@given(st.sampled_from([0, 1, Fraction(-3, 2)]), st.integers(1, 6).flatmap(tree_series))
def test_series_text_round_trip_law(u, trees):
    # the unit part is the coefficient of the vertex-free tree
    s = TreeSeries(trees.order, u, trees.terms)
    assert s == TreeSeries(trees.order, 0, {**trees.terms, UNIT: u})
    assert s.unit == u and s.weight_component(0) == TreeSeries.one(s.order) * u
    assert parse_series(format_series(s), s.order) == s
