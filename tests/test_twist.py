"""The trivializer by the transfer theorem, against two oracles and known answers.

``linalg.contraction_of`` contracts any drawn complex (V, d) onto its
homology: the constructor of ``Contraction`` re-checks the five identities,
and the small space has dimension dim ker - dim im in each degree.  On
A-infinity elements, gauged or not, and on operator towers,
``calculus.trivialize`` reaches the verdict of the greedy stage-wise search
``helpers.trivialize_by_stages`` and reports the same NOT FOUND stage; it
finds f exactly when the full twist ``helpers.twist_residual`` is zero, and
a NOT FOUND's stage and residual are the lowest component of that twist.  A
found f is an infinity-morphism (an isotopy, for towers) from the
differential, and the gauge action of its logarithm takes the differential
to the structure.  Towers built as sums of pieces x -> y with a known
obstruction, and A-infinity structures built from a minimal one plus
acyclic pairs, get the known verdict and stage.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    a_infinity_instance,
    acyclic_dga,
    acyclic_tower,
    bicomplex_tower,
    COEFF_CHOICES,
    formal_dga,
    homotopy_and_pullback,
    line_dga,
    massey_dga,
    obstructed_tower,
    random_contraction,
    random_conv_element,
    random_gauge_element,
    random_gauge_tower,
    trivialize_by_stages,
    twist_residual,
)
from prelie import multicomplex as mcx
from prelie.ainf import (
    ConvElement,
    MultiOp,
    element_from_map,
    find_trivializer,
    gauge_act,
    inf_morphism_check,
    transfer,
)
from prelie.linalg import Contraction, GradedMap, GradedSpace, contraction_of

LAWS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 10**6)


def _rank(rows) -> int:
    """Rank of a list of rows ``{column: coefficient}``, by dense elimination."""
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        col = min(row)
        rank += 1
        for other in rows:
            if col in other:
                factor = other[col] / row[col]
                for k, c in row.items():
                    other[k] = other.get(k, 0) - factor * c
                    if not other[k]:
                        del other[k]
    return rank


def _unitriangular(space, rng):
    """A random unitriangular change of basis in each degree, and its inverse."""
    lower = GradedMap(space, space, 0)
    for deg, dim in space.dims.items():
        for i in range(dim):
            for j in range(i):
                if rng.random() < 0.5:
                    lower[deg, j, i] = rng.choice([1, -1, 2, Fraction(1, 2)])
    inverse, power = GradedMap.identity(space), lower
    for k in range(1, max(space.dims.values(), default=0)):
        inverse = inverse + power * (-1) ** k  # (1 + N)^(-1) = sum (-N)^k, N nilpotent
        power = power.compose(lower)
    return GradedMap.identity(space) + lower, inverse


@st.composite
def complexes(draw, maxdim=2, npairs=4):
    """(V, d): the split differential of a random contraction, conjugated by
    a random unitriangular change of basis in each degree."""
    rng = random.Random(draw(SEEDS))
    c = random_contraction(rng, ndeg=3, maxdim=maxdim, npairs=draw(st.integers(0, npairs)))
    change, inverse = _unitriangular(c.big, rng)
    return c.big, change.compose(c.d).compose(inverse)


@LAWS
@given(complexes())
def test_contraction_of_lands_on_the_homology(complex_):
    space, d = complex_
    c = contraction_of(space, d)
    assert isinstance(c, Contraction) and c.d_small.is_zero()
    columns = {}  # degree -> rows of the matrix of d from that degree
    for (sdeg, sidx, tidx), coeff in d.entries.items():
        columns.setdefault(sdeg, {}).setdefault(sidx, {})[tidx] = coeff
    rank = {deg: _rank(rows.values()) for deg, rows in columns.items()}
    for deg in space.dims:
        kernel = space.dim(deg) - rank.get(deg, 0)
        assert c.small.dim(deg) == kernel - rank.get(deg + 1, 0)


@st.composite
def ainf_structures(draw):
    """An A-infinity structure: a fixture or the differential of a drawn
    complex, gauged by a random gauge or not.  The complexes are smaller
    than for towers: the stage oracle's unknowns grow like dim^arity."""
    truncation = draw(st.integers(2, 4))
    source = draw(st.sampled_from(["complex", "acyclic", "line", "massey", "formal", "a_infinity"]))
    if source == "complex":
        space, d = draw(complexes(maxdim=1, npairs=3))
        alpha = element_from_map(d, truncation)
    else:
        make = {"acyclic": acyclic_dga, "line": line_dga, "massey": massey_dga,
                "formal": formal_dga, "a_infinity": a_infinity_instance}
        alpha, c = make[source](truncation)
        space = c.big
    if draw(st.booleans()):
        rng = random.Random(draw(SEEDS))
        alpha = gauge_act(random_gauge_element(space, truncation, rng, draw(st.integers(1, 3))), alpha)
    return alpha


@st.composite
def towers(draw):
    """A structure tower: a fixture or the differential of a drawn complex,
    gauged by a random gauge tower or not."""
    truncation = draw(st.integers(1, 5))
    source = draw(st.sampled_from(["complex", "acyclic", "bicomplex", "obstructed"]))
    if source == "complex":
        space, d = draw(complexes())
        alpha = mcx.structure_tower(space, truncation, {0: d})
    else:
        make = {"acyclic": acyclic_tower, "bicomplex": bicomplex_tower,
                "obstructed": obstructed_tower}
        alpha = make[source](truncation)
    if draw(st.booleans()):
        rng = random.Random(draw(SEEDS))
        lam = random_gauge_tower(alpha.space, truncation, rng, draw(st.integers(1, 3)))
        alpha = mcx.conjugate(lam, alpha)
    return alpha


@st.composite
def known_towers(draw):
    """(alpha, stage): a direct sum of pieces x -> y, d_k x = y with
    |y| = |x| + 2k - 1, and of free classes, moved by a random unitriangular
    change of basis in weight 0 and then by a random gauge.  A piece with
    k = 0 is acyclic, and one with k >= 1 is a pair of homology classes
    joined by d_k, which no gauge removes; so alpha is gauge trivial iff no
    piece has 1 <= k <= max_weight, and otherwise ``stage`` is the least such k
    (it is None for a trivial alpha)."""
    rng = random.Random(draw(SEEDS))
    truncation = draw(st.integers(1, 4))
    pieces = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))
    free = draw(st.lists(st.integers(0, 3), min_size=0 if pieces else 1, max_size=2))
    dims = {}

    def basis_vector(deg):
        dims[deg] = dims.get(deg, 0) + 1
        return deg, dims[deg] - 1

    placed = [(k, basis_vector(x), basis_vector(x + 2 * k - 1)) for x, k in pieces]
    for deg in free:
        basis_vector(deg)
    space = GradedSpace(dims)
    components = {}
    for k, (xdeg, xidx), (_ydeg, yidx) in placed:
        if k <= truncation:
            d_k = components.setdefault(k, GradedMap(space, space, 2 * k - 1))
            d_k[xdeg, xidx, yidx] = rng.choice(COEFF_CHOICES)
    change, inverse = _unitriangular(space, rng)
    alpha = mcx.structure_tower(space, truncation, {
        k: change.compose(d_k).compose(inverse) for k, d_k in components.items()})
    alpha = mcx.conjugate(random_gauge_tower(space, truncation, rng, draw(st.integers(1, 3))), alpha)
    stages = [k for k, _x, _y in placed if 1 <= k <= alpha.max_weight]
    return alpha, min(stages, default=None)


def _assert_the_full_twist_agrees(alpha, result):
    rest = twist_residual(alpha, *homotopy_and_pullback(alpha))
    assert result.found == rest.is_zero()
    if not result.found:
        assert result.stage == min(rest.components)
        assert result.residual == rest.components[result.stage]


@LAWS
@given(ainf_structures())
def test_ainf_twist_agrees_with_the_stage_search(alpha):
    result = find_trivializer(alpha)
    oracle = trivialize_by_stages(alpha)
    assert result.found == oracle.found
    _assert_the_full_twist_agrees(alpha, result)
    delta = alpha.weight_component(0)
    if result.found:
        assert inf_morphism_check(result.f, delta, alpha)
        assert gauge_act(result.log, delta) == alpha
    else:
        assert result.stage == oracle.stage


@LAWS
@given(towers())
def test_tower_twist_agrees_with_the_stage_search(alpha):
    result = mcx.trivialize(alpha)
    oracle = trivialize_by_stages(alpha)
    assert result.found == oracle.found
    _assert_the_full_twist_agrees(alpha, result)
    delta = alpha.weight_component(0)
    if result.found:
        assert mcx.isotopy_check(result.f, delta, alpha)
        assert mcx.conjugate(result.log, delta) == alpha
    else:
        assert result.stage == oracle.stage


@LAWS
@given(known_towers())
def test_tower_trivializer_gives_the_known_answer(case):
    alpha, stage = case
    result = mcx.trivialize(alpha)
    assert result.found == (stage is None)
    if stage is not None:
        assert result.stage == stage


@st.composite
def known_ainf_structures(draw):
    """(alpha, d, stage): beta, the transferred structure of the Massey, line
    or formal fixture, is minimal (d = 0 on its space H).  Acyclic pairs
    x -> y in degrees (k, k - 1), d x = c y, extend it to H + K with its
    transfer to the homology H still beta, and a random gauge moves it; the
    gauge has entries in arities 2 and 3 only, since drawing one at arity 5
    lists all 10^5 inputs of a 10-dimensional space (about 0.6 s a draw).
    The lowest operation of a minimal structure above arity 1 is unchanged
    by isotopies, so alpha is gauge trivial iff beta has none, and otherwise
    ``stage`` is its arity (it is None for a trivial alpha)."""
    truncation = draw(st.integers(3, 5))
    beta = transfer(*draw(st.sampled_from([massey_dga, line_dga, formal_dga]))(truncation)).beta
    dims, d_entries = dict(beta.source.dims), {}
    for k in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)):
        x, y = dims.get(k, 0), dims.get(k - 1, 0)
        dims[k], dims[k - 1] = x + 1, y + 1
        d_entries[k, x, y] = draw(st.sampled_from(COEFF_CHOICES))
    space = GradedSpace(dims)
    d = GradedMap(space, space, -1, d_entries)
    components = {n: MultiOp(space, space, n, -1, op.entries) for n, op in beta.components.items()}
    components[1] = MultiOp.from_graded_map(d)
    rng = random.Random(draw(SEEDS))
    gauge = random_conv_element(space, truncation, 0, rng, arities=(2, 3), nentries=3)
    alpha = gauge_act(gauge, ConvElement(space, space, truncation, -1, components))
    return alpha, d, min((n for n in beta.components if n >= 2), default=None)


@LAWS
@given(known_ainf_structures())
def test_ainf_trivializer_gives_the_known_answer(case):
    alpha, d, stage = case
    result = find_trivializer(alpha)
    assert result.found == (stage is None)
    if stage is not None:
        assert result.stage == stage
    assert transfer(alpha, contraction_of(alpha.source, d)).all_green()
