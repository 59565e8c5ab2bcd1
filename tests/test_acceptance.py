"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is exact equality of rationals.
"""

import math
import random
from fractions import Fraction

from helpers import (
    acyclic_dga,
    binomial_identities_check,
    circle_by_braces,
    dynkin_bch,
    formal_dga,
    massey_dga,
    random_contraction,
    random_gauge_element,
    random_gauge_tower,
    random_grouplike,
    random_tree_series,
    oracle_tree_shapes,
    sym_homotopy,
    tech_r_check,
    tensor,
    tensor_from_factors,
    tensor_identity,
    tree_to_ahu,
)
from prelie import multicomplex as mcx
from prelie.ainf import (
    alpha_check,
    alpha_hat,
    circle as conv_circle,
    element_from_map,
    find_trivializer,
    gauge_act as conv_gauge_act,
    inf_morphism_check,
    is_gauge_trivial,
    mc_check as conv_mc_check,
    psi_kernel,
    phi_kernel,
    transfer,
    unit_element,
)
from prelie.ainf.transfer import _abar
from prelie.linalg import GradedMap, GradedSpace
from prelie.series import (
    TreeSeries,
    bch,
    bracket,
    circle,
    exp,
    gauge_act,
    graft,
    grouplike_inverse,
    magnus,
)
from prelie.trees import (
    aut_order,
    enumerate_forests,
    enumerate_trees,
    levelizations,
    level_weight,
)


def _report(number, description):
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_01_levelization_weight_sum():
    for n in range(1, 8):
        for forest in enumerate_forests(n):
            total = sum(level_weight(lev) for lev in levelizations(forest))
            assert total == Fraction(1, aut_order(forest)), forest
    _report(1, "sum of levelization weights = 1/|Aut f| for all forests <= 7 vertices")


def test_criterion_02_tree_counts_against_oracle():
    expected = [1, 1, 2, 4, 9, 20, 48, 115]
    for n in range(1, 9):
        oracle = oracle_tree_shapes(n)
        ours = {tree_to_ahu(t) for t in enumerate_trees(n)}
        assert ours == oracle
        assert len(oracle) == expected[n - 1]
    _report(2, "tree counts 1..8 match the parent-function oracle (1,1,2,4,9,20,48,115)")


def test_criterion_03_exponential_coefficients():
    e = exp(TreeSeries.generator("x", 6))
    shapes_seen = set()
    for tree, coeff in e.terms.items():
        shape = tree.relabel("*")
        n_t = len(levelizations(shape))  # independent enumeration
        assert coeff == Fraction(n_t, math.factorial(shape.nvertices))
        shapes_seen.add(shape)
    for n in range(1, 7):
        assert shapes_seen >= set(enumerate_trees(n))
    _report(3, "pre-Lie exponential coefficients equal n_t / nu_t! for all trees <= 6 vertices")


def test_criterion_04_flow_exponential_is_circle():
    rng = random.Random(1004)
    for _ in range(50):
        a = random_tree_series("al", 6, rng)
        lam = random_tree_series("al", 6, rng, unit=0, nterms=3)
        flow = a
        term = a
        for k in range(1, 7):
            term = graft(term, lam) * Fraction(1, k)
            flow = flow + term
        assert flow == circle(a, exp(lam))
    _report(4, "e^{r_lam}(a) = a (o) e^lam for 50 random series, truncation 6")


def test_criterion_05_grouplike_inverse():
    one = TreeSeries.one(7)
    mu = TreeSeries.generator("m", 7)
    g = one - mu
    inv = grouplike_inverse(g)  # solved weight by weight from x (o) g = 1
    assert circle(inv, g) == one
    for n in range(1, 8):
        for shape in enumerate_trees(n):
            coeff = inv.coefficient(shape.relabel("m"))
            assert coeff == Fraction(1, aut_order(shape))
    _report(5, "(1-mu)^{(o)-1} has coefficients 1/|Aut t| and inverts 1-mu, truncation 7")


def test_criterion_06_bch_matches_dynkin():
    x = TreeSeries.generator("x", 5)
    y = TreeSeries.generator("y", 5)
    assert bch(x, y) == dynkin_bch(x, y, 5)
    _report(6, "log(e^x (o) e^y) equals the Dynkin BCH series through weight 5")


def test_criterion_07_gauge_action():
    rng = random.Random(1007)
    for _ in range(5):
        lam = random_tree_series("la", 6, rng, unit=0, nterms=3)
        alpha = random_tree_series("la", 6, rng, unit=0)
        flow = alpha
        term = alpha
        for k in range(1, 7):
            term = bracket(lam, term) * Fraction(1, k)
            flow = flow + term
        assert gauge_act(lam, alpha) == flow
    for _ in range(5):
        lam = random_tree_series("lm", 5, rng, unit=0, nterms=2)
        mu = random_tree_series("lm", 5, rng, unit=0, nterms=2)
        alpha = random_tree_series("lm", 5, rng, unit=0, nterms=2)
        assert gauge_act(mu, gauge_act(lam, alpha)) == gauge_act(bch(mu, lam), alpha)
    _report(7, "gauge action equals truncated e^{ad} (weight 6) and composes via BCH (weight 5)")


def test_criterion_08_magnus_leading_terms():
    a = TreeSeries.generator("a", 4)
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
    _report(8, "Magnus expansion leading coefficients are -1/2, +1/4, +1/12")


def test_criterion_09_homotopy_symmetrization_identities():
    rng = random.Random(1009)
    for _trial in range(10):
        c = random_contraction(rng, ndeg=2, maxdim=1, npairs=2)
        ident = GradedMap.identity(c.big)
        # identity (1), all k >= 0, l >= 0 with k+1+l <= 5
        for k in range(0, 5):
            for l in range(0, 5 - k):
                n = k + 1 + l
                left = sym_homotopy(c, n).compose(
                    tensor_from_factors([c.h] * k + [ident] + [c.pi] * l)
                )
                right = tensor_from_factors(
                    [c.h] * (k + 1) + [c.pi] * l, Fraction((-1) ** k, k + 1)
                )
                assert left == right
        # identity (2), p, q >= 1 with p+q <= 5
        for p in range(1, 5):
            for q in range(1, 6 - p):
                hp, hq = sym_homotopy(c, p), sym_homotopy(c, q)
                lhs = (
                    tensor(hp, tensor_identity(c.big, q))
                    - tensor(tensor_identity(c.big, p), hq)
                ).compose(sym_homotopy(c, p + q))
                assert lhs == tensor(hp, hq)
    assert binomial_identities_check(6)
    _report(9, "symmetrized-homotopy identities (p+q <= 5, 10 contractions) and binomials <= 6")


def test_criterion_10_circle_brace_vs_decomposition():
    rng = random.Random(1010)
    space = GradedSpace({0: 2, 1: 1, -1: 1})
    for _ in range(25):
        f = random_grouplike(space, 4, rng)
        g = random_grouplike(space, 4, rng)
        assert conv_circle(f, g) == circle_by_braces(f, g)
    _report(10, "circle by brace expansion equals the decomposition composite, 25 random cases")


def test_criterion_11_homotopy_transfer_suite():
    for fixture, name in ((acyclic_dga, "2-dim DGA with acyclic summand"),
                          (massey_dga, "6-dim Massey instance")):
        alpha, c = fixture(truncation=5)
        one = unit_element(alpha.source, alpha.truncation)
        delta = element_from_map(c.d, alpha.truncation)
        pi_elt = element_from_map(c.pi, alpha.truncation)
        phi = phi_kernel(alpha, c)
        psi = psi_kernel(alpha, c)
        hat = alpha_hat(alpha, c)
        chk = alpha_check(alpha, c)
        result = transfer(alpha, c)
        mid = conv_circle(_abar(alpha, c), phi)
        assert conv_mc_check(result.beta).ok
        assert hat == delta + conv_circle(pi_elt, mid)
        assert chk == delta + conv_circle(mid, pi_elt)
        assert alpha_hat(hat, c) == hat
        assert alpha_check(chk, c) == chk
        assert alpha_check(hat, c) == alpha_hat(chk, c)
        assert conv_circle(psi, phi) == psi + phi - one
        assert tech_r_check(alpha, c)
        assert conv_circle(result.p_inf, result.i_inf) == unit_element(c.small, 5)
        assert conv_circle(pi_elt, hat - delta) == hat - delta
        assert conv_circle(chk - delta, pi_elt) == chk - delta
        assert result.all_green()
    _report(11, "full transfer identity suite on the acyclic-summand DGA and the Massey instance")


def test_criterion_12_gauge_triviality():
    rng = random.Random(1012)
    alpha0, c = acyclic_dga(truncation=5)
    delta = element_from_map(c.d, 5)
    for _ in range(20):
        lam = random_gauge_element(alpha0.source, 5, rng)
        gauged = conv_gauge_act(lam, delta)
        result = find_trivializer(gauged)
        assert result.found
        assert inf_morphism_check(result.f, delta, gauged)
    malpha, mc = massey_dga(truncation=5)
    assert not is_gauge_trivial(malpha, mc)
    beta3 = transfer(malpha, mc).beta.component(3)
    assert not beta3.is_zero()
    falpha, fc = formal_dga(truncation=5)
    assert is_gauge_trivial(falpha, fc)
    _report(12, "trivializers found for 20 gauged structures; Massey not trivial, formal DGA trivial")


def test_criterion_13_multicomplex_suite():
    rng = random.Random(1013)
    from helpers import acyclic_tower, bicomplex_tower, obstructed_tower

    count = 0
    for base in (bicomplex_tower(), acyclic_tower()):
        for _ in range(13):
            if count == 25:
                break
            lam = random_gauge_tower(base.space, base.truncation, rng)
            alpha = mcx.conjugate(lam, base)
            assert mcx.mc_check(alpha).ok
            mu = random_gauge_tower(base.space, base.truncation, rng)
            assert mcx.mc_check(mcx.conjugate(mu, alpha)).ok
            count += 1
    assert count == 25
    result = mcx.trivialize(acyclic_tower())
    assert result.found
    obstruction = mcx.trivialize(obstructed_tower())
    assert not obstruction.found
    assert obstruction.stage == 1
    assert not obstruction.residual.is_zero()
    _report(13, "conjugation preserves MC (25 towers); acyclic trivializes, obstruction at weight 1")
