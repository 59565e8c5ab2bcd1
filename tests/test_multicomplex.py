"""Operator towers: convolution, Maurer-Cartan, conjugation, trivialization."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    COEFF_CHOICES,
    acyclic_tower,
    bicomplex_tower,
    obstructed_tower,
    random_gauge_tower,
)
from prelie import multicomplex as mcx
from prelie.ainf import element_from_dict
from prelie.errors import DomainError, ShapeError, ValidationError
from prelie.linalg import GradedMap, GradedSpace


def test_star_unit_and_associativity():
    rng = random.Random(0)
    alpha = bicomplex_tower()
    one = mcx.unit_tower(alpha.space, alpha.truncation)
    assert mcx.star(one, alpha) == alpha
    assert mcx.star(alpha, one) == alpha
    for _ in range(6):
        f = random_gauge_tower(alpha.space, alpha.truncation, rng)
        g = random_gauge_tower(alpha.space, alpha.truncation, rng)
        h = random_gauge_tower(alpha.space, alpha.truncation, rng)
        assert mcx.star(mcx.star(f, g), h) == mcx.star(f, mcx.star(g, h))


def test_star_shape_errors():
    alpha = bicomplex_tower()
    other = mcx.unit_tower(GradedSpace({0: 1}), alpha.truncation)
    with pytest.raises(ShapeError):
        mcx.star(alpha, other)


def test_mc_check_fixtures():
    assert mcx.mc_check(bicomplex_tower()).ok
    assert mcx.mc_check(acyclic_tower()).ok
    # chain-complex-only tower
    V = GradedSpace({0: 1, 1: 1})
    d = GradedMap(V, V, -1)
    d[1, 0, 0] = 1
    assert mcx.mc_check(mcx.structure_tower(V, 3, {0: d})).ok


def test_mc_check_detects_bad_square():
    # d = 0 and a weight-1 operator whose square is nonzero needs a weight-2
    # corrector; three occupied degrees are required for d1^2 to be visible
    V = GradedSpace({0: 1, 1: 1, 2: 1})
    d1 = GradedMap(V, V, 1)
    d1[0, 0, 0] = 1
    d1[1, 0, 0] = 1
    alpha = mcx.structure_tower(V, 4, {1: d1})
    report = mcx.mc_check(alpha)
    assert not report.ok
    assert report.stage == 2
    assert not report.residual.is_zero()


def test_exp_log_round_trip():
    rng = random.Random(1)
    space = bicomplex_tower().space
    for _ in range(6):
        lam = random_gauge_tower(space, 4, rng)
        e = mcx.exp_assoc(lam)
        assert e.component(0) == GradedMap.identity(space)
        assert mcx.log_assoc(e) == lam
    zero = mcx.gauge_tower(space, 4, {})
    assert mcx.exp_assoc(zero) == mcx.unit_tower(space, 4)


def test_exp_weight_two_component():
    rng = random.Random(6)
    space = bicomplex_tower().space
    for _ in range(4):
        lam = random_gauge_tower(space, 4, rng)
        e = mcx.exp_assoc(lam)
        lam1 = lam.weight_component(1)
        expected = lam.weight_component(2) + mcx.star(lam1, lam1) * Fraction(1, 2)
        assert e.weight_component(2) == expected.weight_component(2)


def test_exp_rejects_nonzero_weight_zero():
    space = bicomplex_tower().space
    with pytest.raises(DomainError):
        mcx.exp_assoc(mcx.unit_tower(space, 4))


def test_conjugate_preserves_mc_and_intertwines():
    rng = random.Random(2)
    for alpha in (bicomplex_tower(), acyclic_tower()):
        for _ in range(5):
            lam = random_gauge_tower(alpha.space, alpha.truncation, rng)
            beta = mcx.conjugate(lam, alpha)
            assert mcx.mc_check(beta).ok
            assert mcx.isotopy_check(mcx.exp_assoc(lam), alpha, beta)
    assert mcx.conjugate(mcx.gauge_tower(alpha.space, alpha.truncation, {}), alpha) == alpha


def test_conjugate_group_law():
    rng = random.Random(3)
    alpha = bicomplex_tower()
    for _ in range(4):
        lam = random_gauge_tower(alpha.space, alpha.truncation, rng)
        mu = random_gauge_tower(alpha.space, alpha.truncation, rng)
        bch = mcx.log_assoc(mcx.star(mcx.exp_assoc(mu), mcx.exp_assoc(lam)))
        assert mcx.conjugate(mu, mcx.conjugate(lam, alpha)) == mcx.conjugate(bch, alpha)


def test_isotopy_check_basics():
    alpha = bicomplex_tower()
    one = mcx.unit_tower(alpha.space, alpha.truncation)
    assert mcx.isotopy_check(one, alpha, alpha)
    # a generic non-intertwining isotopy fails
    f = one + mcx.gauge_tower(
        alpha.space,
        alpha.truncation,
        {1: GradedMap(alpha.space, alpha.space, 2, {(0, 0, 0): Fraction(1)})},
    )
    assert not mcx.isotopy_check(f, alpha, alpha)


def test_trivialize_acyclic():
    alpha = acyclic_tower()
    result = mcx.trivialize(alpha)
    assert result.found
    delta = mcx.structure_tower(alpha.space, alpha.truncation, {0: alpha.component(0)})
    assert mcx.isotopy_check(result.f, delta, alpha)
    assert mcx.exp_assoc(result.log) == result.f


def test_trivialize_bare_differential_is_trivial():
    V = GradedSpace({0: 1, 1: 1})
    d = GradedMap(V, V, -1)
    d[1, 0, 0] = 1
    alpha = mcx.structure_tower(V, 3, {0: d})
    result = mcx.trivialize(alpha)
    assert result.found
    assert result.log.is_zero()


def test_trivialize_obstruction():
    result = mcx.trivialize(obstructed_tower())
    assert not result.found
    assert result.stage == 1
    assert not result.residual.is_zero()


def test_trivialize_rejects_non_mc():
    V = GradedSpace({0: 1, 1: 1, 2: 1})
    d1 = GradedMap(V, V, 1)
    d1[0, 0, 0] = 1
    d1[1, 0, 0] = 1
    with pytest.raises(DomainError):
        mcx.trivialize(mcx.structure_tower(V, 3, {1: d1}))


def test_trivialize_random_conjugates_of_delta():
    rng = random.Random(4)
    V = GradedSpace({0: 1, 1: 2, 2: 1})
    d = GradedMap(V, V, -1)
    d[1, 0, 0] = 1
    d[2, 0, 1] = 1
    delta = mcx.structure_tower(V, 4, {0: d})
    for _ in range(5):
        lam = random_gauge_tower(V, 4, rng)
        alpha = mcx.conjugate(lam, delta)
        result = mcx.trivialize(alpha)
        assert result.found
        assert mcx.isotopy_check(result.f, delta, alpha)


def test_json_round_trip():
    alpha = bicomplex_tower()
    data = mcx.tower_to_dict(alpha)
    assert mcx.tower_from_dict(data, offset=mcx.STRUCTURE) == alpha
    rng = random.Random(5)
    lam = random_gauge_tower(alpha.space, alpha.truncation, rng)
    data = mcx.tower_to_dict(lam)
    assert mcx.tower_from_dict(data, offset=mcx.GAUGE) == lam


@st.composite
def towers(draw, offset):
    """A tower of kind ``offset`` on a space of at most six basis vectors in
    degrees 0..5, with up to three random entries in each weight."""
    dims = draw(st.dictionaries(st.integers(0, 5), st.integers(1, 2), min_size=1, max_size=3))
    space, truncation = GradedSpace(dims), draw(st.integers(1, 3))
    components = {}
    for w in range(truncation + 1):
        gmap = GradedMap(space, space, 2 * w + offset)
        keys = [(d, i, j) for d, n in dims.items() for i in range(n)
                for j in range(space.dim(d + gmap.degree))]
        for key in draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else ():
            gmap[key] = gmap.entries.get(key, 0) + draw(st.sampled_from(COEFF_CHOICES))
        components[w] = gmap
    return mcx.OperatorTower(space, truncation, offset, components)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([mcx.STRUCTURE, mcx.GAUGE]).flatmap(towers))
def test_tower_json_round_trip_law(tower):
    data = json.loads(json.dumps(mcx.tower_to_dict(tower)))
    assert mcx.tower_from_dict(data, tower.offset) == tower


TYPED_ERROR_RECORDS = [
    ("no-space", {"operators": []}, '"space" record'),
    ("truncation-x", {"space": {"dims": {"0": 1}}, "truncation": "x"}, "got 'x'"),
    ("truncation-null", {"space": {"dims": {"0": 1}}, "truncation": None}, "got None"),
    ("no-truncation", {"space": {"dims": {"0": 1}}}, "got None"),
]


@pytest.mark.parametrize("reader, record, message", [
    pytest.param(reader, record, message, id=prefix + name)
    for prefix, reader in (("", mcx.tower_from_dict), ("element-", element_from_dict))
    for name, record, message in TYPED_ERROR_RECORDS
])
def test_tower_from_dict_typed_errors(reader, record, message):
    # both readers take a record's space and truncation the same way
    with pytest.raises(ValidationError, match=message):
        reader(record)
