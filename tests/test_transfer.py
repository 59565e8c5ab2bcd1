"""Homotopy transfer: contractions, symmetrized homotopies, kernels, triviality."""

import collections
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    COEFF_CHOICES,
    a_infinity_instance,
    acyclic_dga,
    binomial_identities_check,
    formal_dga,
    h_star_by_sym_homotopy,
    line_dga,
    massey_dga,
    phi_kernel_by_fixed_point,
    phi_kernel_by_trees,
    random_contraction,
    random_conv_element,
    random_gauge_element,
    sym_homotopy,
    tech_r_check,
    tensor,
    tensor_from_factors,
    tensor_identity,
    trivialize_by_stages,
)
from prelie import calculus
from prelie.ainf import (
    Contraction,
    ConvElement,
    MultiOp,
    alpha_check,
    alpha_hat,
    circle,
    circle_inverse,
    element_from_map,
    find_trivializer,
    gauge_act,
    h_star,
    inf_morphism_check,
    is_gauge_trivial,
    mc_check,
    phi_kernel,
    psi_kernel,
    star,
    transfer,
    unit_element,
)
from prelie.ainf.transfer import h_push, _HnColumns, _abar, _psi
from prelie.errors import DomainError, ValidationError
from prelie.linalg import GradedMap, GradedSpace

FIXTURES = [acyclic_dga, line_dga, massey_dga, formal_dga]
# the module; ``prelie.ainf.transfer`` as an attribute is the function
transfer_module = importlib.import_module("prelie.ainf.transfer")


def test_contraction_validation_names_the_violated_condition():
    alpha, c = acyclic_dga()
    bad_h = c.h * 2
    with pytest.raises(ValidationError, match="i p - id = d h"):
        Contraction(c.big, c.small, c.d, c.incl, c.proj, bad_h)
    alpha, c = massey_dga()
    bad_p = c.proj * 3
    with pytest.raises(ValidationError, match="p i = id"):
        Contraction(c.big, c.small, c.d, c.incl, bad_p, c.h)
    leaky_h = GradedMap(c.big, c.big, 1, dict(c.h.entries))
    leaky_h[-1, 1, 0] = Fraction(1)  # h now hits the image of i
    with pytest.raises(ValidationError, match="p h = 0|h i = 0|i p - id"):
        Contraction(c.big, c.small, c.d, c.incl, c.proj, leaky_h)


def test_sym_homotopy_base_case():
    rng = random.Random(0)
    for _ in range(3):
        c = random_contraction(rng)
        h1 = sym_homotopy(c, 1)
        assert h1 == tensor_from_factors([c.h])


def test_sym_homotopy_staircase_identity():
    # h_{k+1+l} (h^k x id x pi^l) == (h_{k+1} (h^k x id)) x pi^l
    #                             == (-1)^k/(k+1) h^{k+1} x pi^l
    # The Koszul sign (-1)^k comes from moving the odd h's past each other;
    # the sign-free middle form matches the staircase recursion.
    rng = random.Random(1)
    for _ in range(4):
        c = random_contraction(rng)
        ident = GradedMap.identity(c.big)
        for k in range(0, 3):
            for l in range(0, 3 - k):
                n = k + 1 + l
                left = sym_homotopy(c, n).compose(
                    tensor_from_factors([c.h] * k + [ident] + [c.pi] * l)
                )
                middle = sym_homotopy(c, k + 1).compose(
                    tensor_from_factors([c.h] * k + [ident])
                )
                if l:
                    middle = tensor(middle, tensor_from_factors([c.pi] * l))
                right = tensor_from_factors(
                    [c.h] * (k + 1) + [c.pi] * l, Fraction((-1) ** k, k + 1)
                )
                assert left == middle == right


def test_sym_homotopy_splitting_identity():
    # (h_p x id^q - id^p x h_q) h_{p+q} == h_p x h_q
    rng = random.Random(2)
    for _ in range(3):
        c = random_contraction(rng)
        for p in range(1, 4):
            for q in range(1, 4):
                if p + q > 4:
                    continue
                hp, hq = sym_homotopy(c, p), sym_homotopy(c, q)
                lhs = (
                    tensor(hp, tensor_identity(c.big, q))
                    - tensor(tensor_identity(c.big, p), hq)
                ).compose(sym_homotopy(c, p + q))
                assert lhs == tensor(hp, hq)


# built once, so that the materialized h_n of the oracle is cached per contraction
PULLBACK_CONTRACTIONS = [f()[1] for f in FIXTURES] + [
    random_contraction(random.Random(s), ndeg=3, maxdim=2, npairs=2) for s in range(6)
]
PULLBACK_BUDGET = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _pullback_elements(draw, c, degrees):
    """Elements y of the given degrees on one drawn set of input tuples,
    with components of arities 1-5.  Every input tuple has a slot in the
    image of h, so that h_n reaches it; the target space has every degree
    the elements need."""
    basis = c.big.basis()
    h_image = sorted({(sdeg + 1, tidx) for sdeg, _sidx, tidx in c.h.entries})
    lo, hi = min(b[0] for b in basis), max(b[0] for b in basis)
    target = GradedSpace({k: 1 for k in range(min(lo, 5 * lo) + min(degrees),
                                               max(hi, 5 * hi) + max(degrees) + 1)})
    ys = [ConvElement(c.big, target, 5, degree) for degree in degrees]
    for n in draw(st.sets(st.integers(1, 5), min_size=1, max_size=3)):
        ops = [MultiOp(c.big, target, n, degree) for degree in degrees]
        for _ in range(draw(st.integers(1, 4))):
            ins = [draw(st.sampled_from(basis)) for _ in range(n)]
            ins[draw(st.integers(0, n - 1))] = draw(st.sampled_from(h_image))
            for op in ops:
                op[tuple(ins), (sum(b[0] for b in ins) + op.degree, 0)] = draw(
                    st.sampled_from(COEFF_CHOICES))
        for y, op in zip(ys, ops):
            y.components[n] = op
    return ys


@st.composite
def pullback_cases(draw):
    """A contraction and an element y of odd or even degree."""
    c = draw(st.sampled_from(PULLBACK_CONTRACTIONS))
    return c, _pullback_elements(draw, c, [draw(st.integers(-2, 1))])[0]


@st.composite
def shared_table_cases(draw):
    """A contraction and elements y on shared input tuples, at least one of
    odd and one of even degree, in drawn order."""
    c = draw(st.sampled_from(PULLBACK_CONTRACTIONS))
    degrees = draw(st.permutations([-1, 0])) + draw(st.lists(st.integers(-2, 1), max_size=2))
    return c, _pullback_elements(draw, c, degrees)


@PULLBACK_BUDGET
@given(pullback_cases())
def test_h_star_equals_materialized_pullback(case):
    c, y = case
    assert h_star(y, c) == h_star_by_sym_homotopy(y, c)


@PULLBACK_BUDGET
@given(shared_table_cases())
def test_h_star_shares_one_column_table(case):
    # the columns hold no sign of y, so one table serves y of both parities
    c, ys = case
    columns = _HnColumns(c)
    for y in ys:
        assert h_star(y, c, columns) == h_star_by_sym_homotopy(y, c)
    mids = {mid for y in ys for op in y.components.values() for mid, _out in op.entries}
    assert set(columns) == mids


@pytest.mark.parametrize("fixture", FIXTURES)
def test_h_star_on_kernel_inputs(fixture):
    # the elements h^* meets inside Psi: abar, 1 * abar and Psi * abar
    alpha, c = fixture(truncation=5)
    abar = _abar(alpha, c)
    psi = _psi(abar, c)
    for y in (abar, star(unit_element(c.big, 5), abar), star(psi, abar)):
        assert h_star(y, c) == h_star_by_sym_homotopy(y, c)


def test_psi_phi_sum_fails_on_a_valid_input():
    """Psi (o) Phi == Psi + Phi - 1 is no identity of the transfer: an
    identity slot of h_n lets Phi - 1 through.  ``transfer`` checks
    Psi (o) i_inf == i_inf instead, which holds."""
    c = random_contraction(random.Random(1), ndeg=3, maxdim=2, npairs=3)
    alpha = gauge_act(
        random_gauge_element(c.big, 4, random.Random(101), nentries=4), element_from_map(c.d, 4)
    )
    ident = GradedMap.identity(c.big)
    assert c.proj.compose(c.incl) == GradedMap.identity(c.small)
    assert c.incl.compose(c.proj) - ident == c.d.compose(c.h) + c.h.compose(c.d)
    assert c.h.compose(c.h).is_zero()
    assert c.proj.compose(c.h).is_zero()
    assert c.h.compose(c.incl).is_zero()
    assert mc_check(alpha).ok
    abar = _abar(alpha, c)
    phi, psi = phi_kernel(alpha, c), _psi(abar, c)
    assert circle(psi, phi) != psi + phi - unit_element(c.big, 4)
    result = transfer(alpha, c)
    assert result.all_green()
    assert circle(psi, result.i_inf) == result.i_inf


TWO_ROUTE_BUDGET = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def gauged_structures(draw):
    """A structure e^lambda . alpha and a contraction onto homology: alpha is
    the bare differential of a random contraction, or one of the Massey,
    formal and A-infinity fixtures."""
    truncation = draw(st.integers(3, 4))
    source = draw(st.sampled_from(["random", "massey", "formal", "a_infinity"]))
    if source == "random":
        c = random_contraction(random.Random(draw(st.integers(0, 10**6))), ndeg=3, maxdim=2, npairs=3)
        alpha = element_from_map(c.d, truncation)
    else:
        make = {"massey": massey_dga, "formal": formal_dga, "a_infinity": a_infinity_instance}
        alpha, c = make[source](truncation)
    rng = random.Random(draw(st.integers(0, 10**6)))
    lam = random_gauge_element(c.big, truncation, rng, nentries=draw(st.integers(0, 4)))
    return gauge_act(lam, alpha), c


@TWO_ROUTE_BUDGET
@given(gauged_structures())
def test_gauge_triviality_two_routes_agree(case):
    # for a contraction onto homology, the twist decides as the transferred
    # structure does (trivial above arity 1) and as the stage-wise search
    alpha, c = case
    verdict = is_gauge_trivial(alpha, c)
    assert verdict == all(arity == 1 for arity in transfer(alpha, c).beta.components)
    assert verdict == trivialize_by_stages(alpha).found == find_trivializer(alpha).found


def test_binomial_identities():
    assert binomial_identities_check(6)
    # spot values: a=b=0, c=1 gives C(2,1) = 2 = 1 + 1; a=b=1, c=2 gives 10
    import math

    assert math.comb(2, 1) == 2
    assert math.comb(5, 3) == sum(
        math.comb(1 + i, 1) * math.comb(1 + (2 - i), 1) for i in range(3)
    )


@pytest.mark.parametrize("fixture", FIXTURES)
def test_phi_kernel_four_routes_agree(fixture):
    alpha, c = fixture()
    phi = phi_kernel(alpha, c)
    assert phi == phi_kernel_by_fixed_point(alpha, c)
    assert phi == phi_kernel_by_trees(alpha, c)
    # exponential route: Phi = e^{-Omega(-h abar)}
    habar = h_push(_abar(alpha, c), c)
    assert phi == calculus.exp_series(-calculus.magnus_series(-habar))
    # first step of the fixed point: arity-2 part is h o m2
    assert phi.component(2) == habar.component(2)
    # the inverse alpha-hat takes without a circle inverse
    assert circle_inverse(phi) == phi.unit_like() - habar


def test_phi_with_zero_homotopy_or_zero_structure():
    alpha, c = acyclic_dga()
    one = unit_element(alpha.source, alpha.truncation)
    delta_only = element_from_map(c.d, alpha.truncation)
    assert phi_kernel(delta_only, c) == one
    assert psi_kernel(delta_only, c) == one
    zero_h = Contraction(
        c.big, c.big, c.d, GradedMap.identity(c.big), GradedMap.identity(c.big),
        GradedMap.zero(c.big, c.big, 1),
    )
    assert phi_kernel(alpha, zero_h) == one
    assert psi_kernel(alpha, zero_h) == one


@pytest.mark.parametrize("fixture", FIXTURES)
def test_psi_circle_phi(fixture):
    alpha, c = fixture()
    phi = phi_kernel(alpha, c)
    psi = psi_kernel(alpha, c)
    one = unit_element(alpha.source, alpha.truncation)
    assert circle(psi, phi) == psi + phi - one


@pytest.mark.parametrize("fixture", FIXTURES)
def test_twisted_structures(fixture):
    alpha, c = fixture()
    hat = alpha_hat(alpha, c)
    chk = alpha_check(alpha, c)
    assert mc_check(hat).ok
    assert mc_check(chk).ok
    delta = element_from_map(c.d, alpha.truncation)
    pi_elt = element_from_map(c.pi, alpha.truncation)
    mid = circle(_abar(alpha, c), phi_kernel(alpha, c))
    assert hat == delta + circle(pi_elt, mid)
    assert chk == delta + circle(mid, pi_elt)
    # outputs of hat land in i(H); inputs of check factor through pi
    assert circle(pi_elt, hat - delta) == hat - delta
    assert circle(chk - delta, pi_elt) == chk - delta
    # idempotence and commutation
    assert alpha_hat(hat, c) == hat
    assert alpha_check(chk, c) == chk
    assert alpha_check(hat, c) == alpha_hat(chk, c)


def test_hat_fixed_points():
    # structure already landing in i(H): Phi = 1 and hat = alpha
    alpha, c = line_dga()
    hat = alpha_hat(alpha, c)
    hat2 = alpha_hat(hat, c)
    assert phi_kernel(hat, c) == unit_element(alpha.source, alpha.truncation)
    assert hat2 == hat


@pytest.mark.parametrize("fixture", FIXTURES)
def test_tech_r(fixture):
    alpha, c = fixture()
    rng = random.Random(10)
    xs = [
        unit_element(alpha.source, alpha.truncation),
        random_conv_element(alpha.source, alpha.truncation, 0, rng, arities=[1, 2]),
        random_conv_element(alpha.source, alpha.truncation, 0, rng, arities=[2, 3]),
    ]
    assert tech_r_check(alpha, c, xs=xs)
    assert tech_r_check(alpha, c)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_transfer_identities(fixture):
    alpha, c = fixture()
    result = transfer(alpha, c)
    assert result.all_green()
    names = {name for name, _ok in result.checks}
    assert names == {
        "maurer_cartan_beta",
        "hat_formula",
        "check_formula",
        "hat_check_same_transfer",
        "psi_fixes_i_inf",
        "p_inf_circle_i_inf",
        "i_inf_morphism",
        "p_inf_morphism",
    }


def test_transfer_builds_each_kernel_once(monkeypatch):
    alpha, c = massey_dga(truncation=4)
    calls = collections.Counter()
    for name in ("mc_check", "_phi_inv", "_psi", "circle_inverse"):
        def counted(*args, _name=name, _fn=getattr(transfer_module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(transfer_module, name, counted)
    result = transfer(alpha, c)
    # one Maurer-Cartan check of alpha, one of beta; one circle inverse gives
    # Phi from its known inverse 1 - h abar, the other Psi^{-1} for alpha-check
    assert calls == {"mc_check": 2, "_phi_inv": 1, "_psi": 1, "circle_inverse": 2}
    assert [name for name, _ok in result.checks] == [
        "maurer_cartan_beta",
        "hat_formula",
        "check_formula",
        "hat_check_same_transfer",
        "psi_fixes_i_inf",
        "p_inf_circle_i_inf",
        "i_inf_morphism",
        "p_inf_morphism",
    ]


@pytest.mark.parametrize("run", ["transfer", "find_trivializer"])
def test_psi_series_builds_each_column_once(monkeypatch, run):
    """One Psi series shares one table of the columns of h_n across its
    h^* calls: each distinct ``mid`` met is expanded exactly once."""
    alpha, c = massey_dga(truncation=5)
    lam = random_gauge_element(alpha.source, 5, random.Random(5), nentries=3)
    met, built, tables = set(), collections.Counter(), []
    h_star_fn, column_fn = transfer_module.h_star, transfer_module._hn_column

    def counted_h_star(y, contraction, columns=None):
        met.update(mid for op in y.components.values() for mid, _out in op.entries)
        tables.append(columns)
        return h_star_fn(y, contraction, columns)

    def counted_column(mid, *args):
        built[mid] += 1
        return column_fn(mid, *args)

    monkeypatch.setattr(transfer_module, "h_star", counted_h_star)
    monkeypatch.setattr(transfer_module, "_hn_column", counted_column)
    if run == "transfer":
        assert transfer(gauge_act(lam, alpha), c).all_green()
    else:
        assert find_trivializer(gauge_act(lam, element_from_map(c.d, 5))).found
    assert tables[0] is not None and all(table is tables[0] for table in tables)
    assert met and set(built) == met
    assert set(built.values()) == {1}


def test_transfer_of_bare_differential():
    alpha, c = acyclic_dga()
    delta_only = element_from_map(c.d, alpha.truncation)
    result = transfer(delta_only, c)
    assert result.beta == element_from_map(c.d_small, alpha.truncation)
    assert result.i_inf == element_from_map(c.incl, alpha.truncation)
    assert result.p_inf == element_from_map(c.proj, alpha.truncation)


def test_transfer_beta2_is_induced_product():
    # beta_2 = p m2 (i x i): the single class [g] is idempotent, so the
    # transferred product has exactly one entry, [g] * [g] = [g]
    alpha, c = line_dga()
    b2 = transfer(alpha, c).beta.component(2)
    assert dict(b2.entries) == {(((1, 0), (1, 0)), (1, 0)): Fraction(1)}


def test_massey_transferred_triple_product():
    alpha, c = massey_dga()
    result = transfer(alpha, c)
    b3 = result.beta.component(3)
    assert len(b3.entries) == 1
    ((ins, out),) = b3.entries
    assert ins == ((0, 0), (0, 1), (0, 2))  # the classes of x, y, z
    assert out == (-1, 0)  # the class of w
    assert b3.entries[ins, out] != 0


def test_i_inf_tree_closed_form():
    # i_inf = i + sum over rooted trees of  h t(abar; h) i / |Aut t|  where
    # t(abar; h) labels the root by abar and every other vertex by h abar
    from prelie.trees import aut_order, enumerate_trees

    for fixture in (line_dga, massey_dga):
        alpha, c = fixture(truncation=4)
        A = alpha.truncation
        result = transfer(alpha, c)
        abar = _abar(alpha, c)
        habar = h_push(abar, c)
        i_elt = element_from_map(c.incl, A)
        h_elt = element_from_map(c.h, A)

        def subtree_value(sh):
            return calculus.symmetric_brace(
                habar, [subtree_value(child) for child in sh.children]
            )

        def tree_value(sh):
            return calculus.symmetric_brace(
                abar, [subtree_value(child) for child in sh.children]
            )

        acc = i_elt
        for n in range(1, A):
            for shape in enumerate_trees(n, max_vertices=A):
                term = circle(h_elt, circle(tree_value(shape), i_elt))
                acc = acc + term * Fraction(1, aut_order(shape))
        assert acc == result.i_inf


def test_a_infinity_instance_with_arity_three_operation():
    from helpers import a_infinity_instance

    alpha, c = a_infinity_instance()
    assert mc_check(alpha).ok
    assert tech_r_check(alpha, c)
    result = transfer(alpha, c)
    assert result.all_green()
    assert not result.beta.component(3).is_zero()
    assert not is_gauge_trivial(alpha, c)


def test_is_gauge_trivial_decisions():
    alpha, c = massey_dga()
    assert not is_gauge_trivial(alpha, c)
    alpha, c = formal_dga()
    assert is_gauge_trivial(alpha, c)
    alpha, c = acyclic_dga()
    assert is_gauge_trivial(alpha, c)  # everything dies on H = 0


def test_is_gauge_trivial_requires_homology_contraction():
    alpha, c = line_dga()
    # build a contraction whose small differential is nonzero: H = V itself
    ident_c = Contraction(
        c.big, c.big, c.d, GradedMap.identity(c.big), GradedMap.identity(c.big),
        GradedMap.zero(c.big, c.big, 1),
    )
    with pytest.raises(DomainError):
        is_gauge_trivial(alpha, ident_c)


def test_find_trivializer_on_gauged_differentials():
    rng = random.Random(11)
    alpha, c = acyclic_dga(truncation=4)
    space = alpha.source
    delta = element_from_map(c.d, 4)
    for _ in range(6):
        lam = random_gauge_element(space, 4, rng)
        gauged = gauge_act(lam, delta)
        result = find_trivializer(gauged)
        assert result.found
        assert inf_morphism_check(result.f, delta, gauged)
        assert calculus.exp_series(result.log) == result.f


def test_find_trivializer_of_bare_differential_is_unit():
    alpha, c = acyclic_dga(truncation=4)
    delta = element_from_map(c.d, 4)
    result = find_trivializer(delta)
    assert result.found
    assert result.f == unit_element(alpha.source, 4)
    assert result.log.is_zero()


def test_find_trivializer_truncation_six():
    """A gauge-trivial structure at truncation 6 over the Massey space: the
    twist finds its isotopy without the stage-wise solve, whose last stage
    would have 40,960 unknowns."""
    alpha, c = massey_dga(truncation=6)
    delta = element_from_map(c.d, 6)
    gauged = gauge_act(random_gauge_element(alpha.source, 6, random.Random(6)), delta)
    result = find_trivializer(gauged)
    assert result.found
    assert inf_morphism_check(result.f, delta, gauged)


def test_find_trivializer_massey_obstruction():
    alpha, _ = massey_dga()
    result = find_trivializer(alpha)
    assert not result.found
    assert result.stage == 3
    assert not result.residual.is_zero()


def test_transfer_requires_matching_differential():
    alpha, c = massey_dga()
    _alpha2, c2 = acyclic_dga()
    with pytest.raises((ValidationError, Exception)):
        transfer(alpha, c2)
