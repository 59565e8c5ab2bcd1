"""Convolution algebra of multilinear operations: products, MC, gauge."""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    COEFF_CHOICES,
    acyclic_dga,
    circle_by_braces,
    circle_by_splits,
    compose_at,
    formal_dga,
    line_dga,
    massey_dga,
    random_conv_element,
    random_gauge_element,
    random_grouplike,
    random_multi_op,
    star_by_slots,
)
from prelie import calculus
from prelie.ainf import (
    ConvElement,
    MultiOp,
    circle,
    circle_inverse,
    element_from_dict,
    element_from_map,
    element_to_dict,
    gauge_act,
    inf_morphism_check,
    mc_check,
    phi_kernel,
    psi_kernel,
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


# spaces for the product oracles: degree-0 vectors keep long input tuples in
# range, so that high arities have entries
ORACLE_SPACES = [SPACE, GradedSpace({0: 1, 1: 2}), GradedSpace({-1: 1, 0: 1})]
ORACLE_BUDGET = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def conv_elements(draw, source, target, truncation, degree, arities):
    """An element with up to four random entries in each of ``arities``; an
    entry whose output degree the target lacks is skipped."""
    elt = ConvElement(source, target, truncation, degree)
    for n in arities:
        op = MultiOp(source, target, n, degree)
        for _ in range(draw(st.integers(0, 4))):
            ins = tuple(draw(st.sampled_from(source.basis())) for _ in range(n))
            outs = [b for b in target.basis() if b[0] == sum(d for d, _ in ins) + degree]
            if outs:
                out = draw(st.sampled_from(outs))
                op[ins, out] = op.entries.get((ins, out), 0) + draw(st.sampled_from(COEFF_CHOICES))
        if not op.is_zero():
            elt.components[n] = op
    return elt


SMALL_SPACES = st.dictionaries(
    st.integers(-2, 2), st.integers(1, 2), min_size=1, max_size=3).map(GradedSpace)


@st.composite
def json_elements(draw):
    """An element of degree -1 or 0 between spaces of at most six basis
    vectors, the target often another space than the source."""
    truncation = draw(st.integers(1, 4))
    source = draw(SMALL_SPACES)
    target = draw(st.one_of(st.just(source), SMALL_SPACES))
    arities = draw(st.sets(st.integers(1, truncation), max_size=3))
    return draw(conv_elements(source, target, truncation, draw(st.sampled_from([-1, 0])), arities))


@ORACLE_BUDGET
@given(json_elements())
def test_element_json_round_trip_law(elt):
    data = json.loads(json.dumps(element_to_dict(elt)))
    assert element_from_dict(data) == elt


def test_element_from_dict_reads_a_sub_record():
    # the call that perfbench/checks.py makes on a gauge-act record's
    # "structure": no "space" key, the truncation and degree in the record
    alpha = massey_dga()[0]
    structure = {"operations": element_to_dict(alpha)["operations"]}
    record = {"truncation": alpha.truncation, "degree": -1, **structure}
    assert element_from_dict(record, source=alpha.source) == alpha


@st.composite
def star_operands(draw):
    """f from one space to another, g an endomorphism element of f's source;
    both of degree -1, 0 or 1."""
    truncation = draw(st.integers(2, 4))
    source, target = draw(st.sampled_from(ORACLE_SPACES)), draw(st.sampled_from(ORACLE_SPACES))
    arities = st.sets(st.integers(1, truncation), max_size=3)
    f = draw(conv_elements(source, target, truncation, draw(st.integers(-1, 1)), draw(arities)))
    g = draw(conv_elements(source, source, truncation, draw(st.integers(-1, 1)), draw(arities)))
    return f, g


@ORACLE_BUDGET
@given(star_operands())
def test_star_equals_sum_of_partial_compositions(case):
    f, g = case
    assert star(f, g) == star_by_slots(f, g)


@st.composite
def circle_operands(draw):
    """g from one space into f's source, not group-like; g of odd degree
    comes with an f of arity 1 only, the one case the degree guard allows."""
    truncation = draw(st.integers(2, 4))
    first, middle, last = (draw(st.sampled_from(ORACLE_SPACES)) for _ in range(3))
    g_degree = draw(st.sampled_from([0, 0, 1, -1]))
    arities = st.sets(st.integers(1, truncation), max_size=3)
    f_arities = {1} if g_degree else draw(arities)
    f = draw(conv_elements(middle, last, truncation, draw(st.integers(-1, 1)), f_arities))
    g = draw(conv_elements(first, middle, truncation, g_degree, draw(arities)))
    return f, g


@ORACLE_BUDGET
@given(circle_operands())
def test_circle_equals_sum_over_splits(case):
    f, g = case
    assert circle(f, g) == circle_by_splits(f, g)


@pytest.mark.parametrize("fixture", [acyclic_dga, line_dga, massey_dga, formal_dga])
def test_circle_equals_sum_over_splits_on_transfer_operands(fixture):
    # the mixed-space, non-group-like right factors of a transfer
    alpha, c = fixture(truncation=4)
    phi, psi = phi_kernel(alpha, c), psi_kernel(alpha, c)
    i_elt, p_elt = element_from_map(c.incl, 4), element_from_map(c.proj, 4)
    h_elt = element_from_map(c.h, 4)  # degree 1
    for f, g in [(phi, i_elt), (p_elt, psi), (alpha, phi), (p_elt, h_elt), (psi, phi)]:
        assert circle(f, g) == circle_by_splits(f, g)


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
