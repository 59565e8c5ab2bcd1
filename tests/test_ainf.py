"""Convolution algebra of multilinear operations: products, MC, gauge."""

import random

import pytest

from helpers import (
    acyclic_dga,
    circle_by_braces,
    line_dga,
    massey_dga,
    random_conv_element,
    random_gauge_element,
    random_grouplike,
    random_multi_op,
)
from prelie import calculus
from prelie.ainf import (
    ConvElement,
    MultiOp,
    circle,
    circle_inverse,
    compose_at,
    element_from_map,
    gauge_act,
    inf_morphism_check,
    mc_check,
    star,
    unit_element,
)
from prelie.errors import BoundsError, DomainError, ShapeError
from prelie.linalg import GradedMap, GradedSpace
from prelie.series import TreeSeries, bch as tree_bch, eval_tree

SPACE = GradedSpace({0: 2, 1: 1, -1: 1})
A = 4


def test_compose_at_identity_and_bounds():
    rng = random.Random(0)
    ident = MultiOp.identity(SPACE)
    g = random_multi_op(SPACE, 2, -1, rng)
    assert compose_at(ident, g, 1) == g
    assert compose_at(g, ident, 1) == g
    assert compose_at(g, ident, 2) == g
    with pytest.raises(BoundsError):
        compose_at(g, ident, 3)


def test_compose_at_operad_axioms():
    # sequential and parallel axioms of partial composition, with signs
    rng = random.Random(1)
    for _ in range(6):
        f = random_multi_op(SPACE, 2, rng.choice([-1, 0]), rng)
        g = random_multi_op(SPACE, 2, rng.choice([-1, 0, 1]), rng)
        h = random_multi_op(SPACE, 2, rng.choice([-1, 0]), rng)
        # sequential: (f o_1 g) o_1 h == f o_1 (g o_1 h)
        assert compose_at(compose_at(f, g, 1), h, 1) == compose_at(f, compose_at(g, h, 1), 1)
        # parallel: (f o_1 g) o_{1+arity(g)} h == +- (f o_2 h) o_1 g
        sign = -1 if (g.degree * h.degree) % 2 else 1
        left = compose_at(compose_at(f, g, 1), h, 1 + g.arity)
        right = compose_at(compose_at(f, h, 2), g, 1) * sign
        assert left == right


def test_star_left_unit_only():
    rng = random.Random(2)
    one = unit_element(SPACE, A)
    f = random_conv_element(SPACE, A, 0, rng, arities=[2, 3])
    assert star(one, f) == f
    # right action of the unit multiplies arity-n by n, so it is not a unit
    g = star(f, one)
    for n, op in f.components.items():
        assert g.component(n) == op * n


def test_star_pre_lie_right_symmetry():
    rng = random.Random(3)
    for _ in range(8):
        degs = [rng.choice([-1, 0, 1]) for _ in range(3)]
        f = random_conv_element(SPACE, A, degs[0], rng, arities=[1, 2])
        g = random_conv_element(SPACE, A, degs[1], rng, arities=[1, 2])
        h = random_conv_element(SPACE, A, degs[2], rng, arities=[1, 2])
        a1 = star(star(f, g), h) - star(f, star(g, h))
        a2 = star(star(f, h), g) - star(f, star(h, g))
        sign = -1 if (degs[1] * degs[2]) % 2 else 1
        assert a1 == a2 * sign


def test_mc_check_of_dga_is_associativity():
    alpha, _ = acyclic_dga()
    assert mc_check(alpha).ok
    alpha, _ = line_dga()
    assert mc_check(alpha).ok
    alpha, _ = massey_dga()
    assert mc_check(alpha).ok


def test_mc_check_truncated_polynomial_algebra():
    # unital algebra on 1, x, x^2 with x^3 = 0, concentrated in one degree;
    # desuspended, every basis vector is odd and the product alone must square
    # to zero, i.e. associativity
    space = GradedSpace({1: 3})
    b2 = MultiOp(space, space, 2, -1)
    for i in range(3):
        for j in range(3):
            if i + j <= 2:
                b2[((1, i), (1, j)), (1, i + j)] = 1
    assert mc_check(ConvElement(space, space, 5, -1, {2: b2})).ok


def test_mc_check_flags_non_associative_product():
    # a.a = b, a.b = a on two odd generators: (aa)a = 0 but a(aa) = a
    space = GradedSpace({1: 2})
    b2 = MultiOp(space, space, 2, -1)
    b2[((1, 0), (1, 0)), (1, 1)] = 1
    b2[((1, 0), (1, 1)), (1, 0)] = 1
    report = mc_check(ConvElement(space, space, A, -1, {2: b2}))
    assert not report.ok
    assert report.stage == 3


def test_mc_check_requires_structure_kind():
    with pytest.raises(DomainError):
        mc_check(unit_element(SPACE, A))


def test_circle_unit_laws():
    rng = random.Random(4)
    one = unit_element(SPACE, A)
    f = random_conv_element(SPACE, A, -1, rng, arities=[1, 2, 3])
    assert circle(f, one) == f
    assert circle(one, f) == f
    g = random_grouplike(SPACE, A, rng)
    assert circle(one, g) == g


def test_circle_equals_brace_expansion():
    rng = random.Random(5)
    for _ in range(8):
        f = random_grouplike(SPACE, A, rng)
        g = random_grouplike(SPACE, A, rng)
        assert circle(f, g) == circle_by_braces(f, g)
        y = random_conv_element(SPACE, A, -1, rng, arities=[1, 2])
        assert circle(y, g) == circle_by_braces(y, g)


def test_circle_associative_and_grouplike_closed():
    rng = random.Random(6)
    for _ in range(5):
        f = random_grouplike(SPACE, A, rng)
        g = random_grouplike(SPACE, A, rng)
        k = random_grouplike(SPACE, A, rng)
        fg = circle(f, g)
        assert fg.component(1) == MultiOp.identity(SPACE)
        assert circle(fg, k) == circle(f, circle(g, k))


def test_circle_inverse():
    rng = random.Random(7)
    one = unit_element(SPACE, A)
    for _ in range(5):
        g = random_grouplike(SPACE, A, rng)
        inv = circle_inverse(g)
        assert circle(inv, g) == one
        assert circle(g, inv) == one


def test_space_mismatch_raises():
    other = GradedSpace({0: 1})
    f = unit_element(SPACE, A)
    g = unit_element(other, A)
    with pytest.raises(ShapeError):
        star(f, g)
    with pytest.raises(ShapeError):
        circle(f, g)


def test_inf_morphism_identity_map():
    alpha, _ = line_dga()
    one = unit_element(alpha.source, alpha.truncation)
    assert inf_morphism_check(one, alpha, alpha)


def test_inf_morphism_strict_dga_map():
    # V -> V doubling map commutes with d but not with the product
    alpha, _ = acyclic_dga()
    space = alpha.source
    doubling = GradedMap.identity(space) * 2
    f = element_from_map(doubling, alpha.truncation)
    assert not inf_morphism_check(f, alpha, alpha)
    ident = element_from_map(GradedMap.identity(space), alpha.truncation)
    assert inf_morphism_check(ident, alpha, alpha)


def test_gauge_act_preserves_mc_and_group_law():
    rng = random.Random(8)
    alpha, _ = acyclic_dga(truncation=A)
    space = alpha.source
    assert gauge_act(random_gauge_element(space, A, rng) * 0, alpha) == alpha
    for _ in range(5):
        lam = random_gauge_element(space, A, rng)
        mu = random_gauge_element(space, A, rng)
        beta = gauge_act(lam, alpha)
        assert mc_check(beta).ok
        assert inf_morphism_check(calculus.exp_series(lam), alpha, beta)
        bch_conv = calculus.magnus_series(
            circle(calculus.exp_series(mu), calculus.exp_series(lam))
            - unit_element(space, A)
        )
        assert gauge_act(mu, gauge_act(lam, alpha)) == gauge_act(bch_conv, alpha)


def test_gauge_group_law_matches_tree_bch():
    # the free pre-Lie BCH series evaluated in this algebra equals the
    # convolution-algebra BCH computed directly
    rng = random.Random(9)
    alpha, _ = acyclic_dga(truncation=A)
    space = alpha.source
    for _ in range(3):
        lam = random_gauge_element(space, A, rng)
        mu = random_gauge_element(space, A, rng)
        bch_conv = calculus.magnus_series(
            circle(calculus.exp_series(mu), calculus.exp_series(lam))
            - unit_element(space, A)
        )
        xs = TreeSeries.generator("x", A - 1)
        ys = TreeSeries.generator("y", A - 1)
        acc = ConvElement(space, space, A, 0)
        for tree, coeff in tree_bch(xs, ys).terms.items():
            acc = acc + eval_tree(tree, {"x": mu, "y": lam}) * coeff
        assert acc == bch_conv


def test_gauge_act_rejects_bad_parameters():
    alpha, _ = acyclic_dga(truncation=A)
    with pytest.raises(DomainError):
        gauge_act(unit_element(alpha.source, A), alpha)  # nonzero arity-1 part
    lam = ConvElement(alpha.source, alpha.source, A, 0)
    bad = alpha + alpha.weight_component(1) * 0
    bad = ConvElement(alpha.source, alpha.source, A, -1, {2: alpha.component(2)})
    sq = star(bad, bad)
    if not sq.is_zero():
        with pytest.raises(DomainError):
            gauge_act(lam, bad)
