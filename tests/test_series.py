"""Free pre-Lie series: products, braces, exponentials, gauge calculus."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import circle_by_braces, circle_pointed, dynkin_bch, random_tree_series, tree_series
from prelie.errors import DomainError, ParseError, TruncationMismatch
from prelie.series import (
    LabeledTree,
    TreeSeries,
    bch,
    brace,
    bracket,
    circle,
    eval_tree,
    exp,
    format_series,
    gauge_act,
    graft,
    grouplike_inverse,
    magnus,
    parse_series,
)
from prelie.trees import aut_order, cm_weight, enumerate_trees

N = 6


def gen(symbol, order=N):
    return TreeSeries.generator(symbol, order)


def one(order=N):
    return TreeSeries.one(order)


def t(text):
    return LabeledTree.from_text(text)


def test_graft_basics():
    a, b, c = gen("a"), gen("b"), gen("c")
    assert graft(a, b) == TreeSeries.from_tree(t("(a (b))"), N)
    assert graft(one(), a) == a
    assert graft(a, one()).is_zero()
    assert graft(one(), one()) == one()
    two_positions = graft(graft(a, b), c)
    assert two_positions == (
        TreeSeries.from_tree(t("(a (b) (c))"), N)
        + TreeSeries.from_tree(t("(a (b (c)))"), N)
    )


def test_graft_respects_truncation_orders():
    with pytest.raises(TruncationMismatch):
        graft(gen("a", 5), gen("b", 6))


def test_right_symmetric_associator():
    rng = random.Random(2)
    for _ in range(8):
        x = random_tree_series("ab", N, rng)
        y = random_tree_series("ab", N, rng, unit=0)
        z = random_tree_series("ab", N, rng, unit=0)
        left = graft(graft(x, y), z) - graft(x, graft(y, z))
        right = graft(graft(x, z), y) - graft(x, graft(z, y))
        assert left == right


def test_jacobi_identity():
    rng = random.Random(3)
    for _ in range(6):
        x = random_tree_series("ab", 5, rng, unit=0)
        y = random_tree_series("ab", 5, rng, unit=0)
        z = random_tree_series("ab", 5, rng, unit=0)
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert total.is_zero()
    x = random_tree_series("ab", 5, rng, unit=0)
    assert bracket(x, x).is_zero()


def test_brace_base_cases_and_corolla():
    a, b = gen("a"), gen("b")
    assert brace(a, []) == a
    assert brace(a, [b]) == graft(a, b)
    # {a; b, c} = (a*b)*c - a*(b*c): the 2-corolla for single-vertex inputs
    c = gen("c")
    assert brace(a, [b, c]) == TreeSeries.from_tree(t("(a (b) (c))"), N)
    assert brace(a, [b, b, b]) == TreeSeries.from_tree(
        t("(a (b) (b) (b))"), N
    ) * math.factorial(3) * Fraction(1, 6) == TreeSeries.from_tree(t("(a (b) (b) (b))"), N)


def test_brace_symmetric_in_arguments():
    rng = random.Random(4)
    a = random_tree_series("abc", 5, rng)
    args = [random_tree_series("abc", 5, rng, unit=0, nterms=2) for _ in range(3)]
    shuffled = args[::-1]
    assert brace(a, args) == brace(a, shuffled)


def test_circle_examples():
    a, b = gen("a"), gen("b")
    g = one() + b
    assert circle(a, one()) == a
    assert circle(one(), g) == g
    expected = a + graft(a, b) + TreeSeries.from_tree(t("(a (b) (b))"), N) * Fraction(1, 2)
    got = circle(a, g)
    for n in range(0, 4):
        assert got.weight_component(n) == expected.weight_component(n)


def test_circle_matches_brace_expansion():
    rng = random.Random(5)
    for _ in range(6):
        a = random_tree_series("ab", 5, rng)
        g = one(5) + random_tree_series("ab", 5, rng, unit=0, nterms=3)
        assert circle(a, g) == circle_by_braces(a, g)


def test_circle_requires_grouplike():
    with pytest.raises(DomainError):
        circle(gen("a"), gen("b"))


def test_circle_associative_on_grouplikes():
    rng = random.Random(6)
    for _ in range(4):
        f = one(5) + random_tree_series("ab", 5, rng, unit=0, nterms=2)
        g = one(5) + random_tree_series("ab", 5, rng, unit=0, nterms=2)
        k = one(5) + random_tree_series("ab", 5, rng, unit=0, nterms=2)
        fg = circle(f, g)
        assert fg.unit == 1  # group-likes are closed under the circle product
        assert circle(fg, k) == circle(f, circle(g, k))


def test_circle_pointed():
    a, b, c = gen("a"), gen("b"), gen("c")
    g = one() + b
    assert circle_pointed(a, one(), c) == graft(a, c)
    assert circle_pointed(a, g, TreeSeries.zero(N)).is_zero()
    # a o (1+b; (1+b)*c) == (a o (1+b)) * c
    rng = random.Random(7)
    for _ in range(4):
        a = random_tree_series("abc", 5, rng)
        bb = random_tree_series("abc", 5, rng, unit=0, nterms=2)
        cc = random_tree_series("abc", 5, rng, unit=0, nterms=2)
        g = one(5) + bb
        assert circle_pointed(a, g, graft(g, cc)) == graft(circle(a, g), cc)


def test_exp_rejects_unit_part():
    with pytest.raises(DomainError):
        exp(one())


def test_exp_weight_two_component():
    lam = gen("a") + random.Random(8).choice([1, 1]) * TreeSeries.from_tree(
        t("(b)"), N
    )
    lam1 = lam.weight_component(1)
    e = exp(lam)
    assert e.weight_component(2) == lam.weight_component(2) + graft(lam1, lam1) * Fraction(1, 2)


def test_exp_coefficients_are_cm_weights():
    e = exp(gen("x"))
    seen_shapes = set()
    for tree, coeff in e.terms.items():
        shape = tree.relabel("*")
        seen_shapes.add(shape)
        assert coeff == Fraction(cm_weight(shape), math.factorial(shape.nvertices))
    for n in range(1, N + 1):
        assert seen_shapes >= set(enumerate_trees(n))


def test_magnus_leading_terms():
    a = gen("a")
    om = magnus(a)
    aa = graft(a, a)
    expected = (
        a
        - aa * Fraction(1, 2)
        + graft(a, aa) * Fraction(1, 4)
        + graft(aa, a) * Fraction(1, 12)
    )
    for n in range(0, 4):
        assert om.weight_component(n) == expected.weight_component(n)


def test_magnus_weight_three_solution():
    # lam_(3) = a_(3) - a_(1)a_(2)/2 - a_(2)a_(1)/2
    #           + a_(1)(a_(1)a_(1))/4 + (a_(1)a_(1))a_(1)/12,
    # the triangular solve of exp(lam) = 1 + a in weight 3
    rng = random.Random(16)
    for _ in range(4):
        a1 = random_tree_series("ab", N, rng, unit=0, max_vertices=1, nterms=2)
        a2 = random_tree_series("ab", N, rng, unit=0, nterms=2).weight_component(2)
        a3 = random_tree_series("ab", N, rng, unit=0, max_vertices=3, nterms=3).weight_component(3)
        a = a1 + a2 + a3
        expected = (
            a3
            - graft(a1, a2) * Fraction(1, 2)
            - graft(a2, a1) * Fraction(1, 2)
            + graft(a1, graft(a1, a1)) * Fraction(1, 4)
            + graft(graft(a1, a1), a1) * Fraction(1, 12)
        )
        assert magnus(a).weight_component(3) == expected


def test_magnus_exp_round_trip():
    rng = random.Random(9)
    for _ in range(6):
        lam = random_tree_series("ab", N, rng, unit=0)
        assert magnus(exp(lam) - one()) == lam
        g = one() + random_tree_series("ab", N, rng, unit=0)
        assert exp(magnus(g - one())) == g


def test_grouplike_inverse_tree_coefficients():
    mu = gen("m", 5)
    inv = grouplike_inverse(one(5) - mu)
    assert circle(inv, one(5) - mu) == one(5)
    for n in range(1, 6):
        for shape in enumerate_trees(n):
            labeled = shape.relabel("m")
            assert inv.coefficient(labeled) == Fraction(1, aut_order(shape))


def test_exp_inverse_is_exp_of_negative():
    rng = random.Random(10)
    for _ in range(4):
        lam = random_tree_series("ab", N, rng, unit=0, nterms=3)
        assert circle(exp(-lam), exp(lam)) == one()
        assert circle(exp(lam), exp(-lam)) == one()


def test_e_r_lambda_is_circle_with_exp():
    rng = random.Random(11)
    for _ in range(10):
        a = random_tree_series("al", N, rng)
        lam = random_tree_series("al", N, rng, unit=0, nterms=3)
        flow = a
        term = a
        for k in range(1, N + 1):
            term = graft(term, lam) * Fraction(1, k)
            flow = flow + term
        assert flow == circle(a, exp(lam))


def test_bch_against_dynkin():
    x, y = gen("x", 5), gen("y", 5)
    assert bch(x, y) == dynkin_bch(x, y, 5)
    zero = TreeSeries.zero(5)
    assert bch(x, zero) == x
    assert bch(zero, y) == y


def test_bch_error_contract():
    x, y = gen("x"), gen("y")
    for operands in ((one() + x, y), (x, one() * 2 + y)):
        with pytest.raises(DomainError, match="exponential needs a trivial weight-0 component"):
            bch(*operands)
    with pytest.raises(TruncationMismatch):
        bch(gen("x", 5), gen("y", 6))


def test_gauge_act_is_exp_adjoint():
    # unit-free alpha: the flow identity lives below the adjoined unit
    rng = random.Random(12)
    for _ in range(5):
        lam = random_tree_series("la", N, rng, unit=0, nterms=3)
        alpha = random_tree_series("la", N, rng, unit=0)
        acc = alpha
        term = alpha
        for k in range(1, N + 1):
            term = bracket(lam, term) * Fraction(1, k)
            acc = acc + term
        assert gauge_act(lam, alpha) == acc
    assert gauge_act(TreeSeries.zero(N), gen("a")) == gen("a")


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 5).flatmap(lambda order: st.tuples(*[tree_series(order)] * 3)))
def test_gauge_action_group_law(operands):
    # exp(mu) (o) exp(lam) = exp(bch(mu, lam)), on series that are no generators
    mu, lam, alpha = operands
    assert gauge_act(mu, gauge_act(lam, alpha)) == gauge_act(bch(mu, lam), alpha)


def test_prelie_interchange_formula():
    # ((a o e^l) * b) o e^-l == a * ((e^l * b) o e^-l)
    rng = random.Random(14)
    for _ in range(4):
        a = random_tree_series("abl", 5, rng, unit=0, nterms=2)
        b = random_tree_series("abl", 5, rng, unit=0, nterms=2)
        lam = random_tree_series("abl", 5, rng, unit=0, nterms=2)
        el, einv = exp(lam), exp(-lam)
        lhs = circle(graft(circle(a, el), b), einv)
        rhs = graft(a, circle(graft(el, b), einv))
        assert lhs == rhs


def test_eval_tree():
    a, b = gen("a"), gen("b")
    values = {"a": a, "b": b}
    assert eval_tree(t("(a)"), values) == a
    assert eval_tree(t("(a (b))"), values) == graft(a, b)
    corolla = t("(a (b) (b))")
    assert eval_tree(corolla, values) == TreeSeries.from_tree(corolla, N)
    with pytest.raises(KeyError):
        eval_tree(t("(q)"), values)


def test_tree_monomial_matches_eval():
    # an unlabeled tree is the *-labeled tree: its monomial at mu is the
    # evaluation of any relabeling with that label bound to mu
    mu = gen("m") + graft(gen("m"), gen("m"))
    for n in range(1, 5):
        for shape in enumerate_trees(n):
            assert eval_tree(shape, {"*": mu}) == eval_tree(shape.relabel("m"), {"m": mu})


def test_aut_order_labeled():
    assert aut_order(t("(a (b) (b))")) == 2
    assert aut_order(t("(a (b) (c))")) == 1
    assert aut_order(t("(a (b (c)) (b (c)))")) == 2


def test_text_round_trip():
    rng = random.Random(15)
    for _ in range(10):
        s = random_tree_series("abc", N, rng)
        assert parse_series(format_series(s), N) == s
    assert parse_series("1 ()", N) == one()
    # unordered children canonicalize
    assert parse_series("1 (a (c) (b))", N) == parse_series("1 (a (b) (c))", N)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError, match="line 2"):
        parse_series("1 (a)\nnonsense", N)
    with pytest.raises(ParseError, match="line 1"):
        parse_series("1/0 (a)", N)
    with pytest.raises(ParseError):
        parse_series("1 (a", N)
