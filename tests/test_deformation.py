"""Laws of the deformation theory written once in ``calculus``.

The circle product is associative on group-like elements, for convolution
elements and for tree series; the insertion product of convolution
elements has a right-symmetric associator; and the shared trivializer
undoes a random gauge of a bare differential, for operator towers (the
associative case) and for A-infinity elements alike: the gauge
action of the logarithm it returns takes the differential back to the
gauged structure.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    random_contraction,
    random_conv_element,
    random_gauge_element,
    random_gauge_tower,
    random_grouplike,
    tree_series,
)
from prelie import calculus
from prelie import multicomplex as mcx
from prelie.ainf import (
    circle as conv_circle,
    element_from_map,
    find_trivializer,
    gauge_act,
    star as conv_star,
)
from prelie.linalg import GradedSpace
from prelie.series import circle

LAWS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SPACE = GradedSpace({0: 2, 1: 1, -1: 1})
SEEDS = st.integers(0, 10**6)


@LAWS
@given(SEEDS, st.integers(2, 4), st.integers(1, 3))
def test_conv_circle_associative_on_grouplikes(seed, truncation, nentries):
    rng = random.Random(seed)
    f, g, k = (random_grouplike(SPACE, truncation, rng, nentries) for _ in range(3))
    assert conv_circle(conv_circle(f, g), k) == conv_circle(f, conv_circle(g, k))


@LAWS
@given(st.integers(1, 6).flatmap(lambda order: st.tuples(*[tree_series(order, unit=1)] * 3)))
def test_tree_circle_associative_on_grouplikes(grouplikes):
    f, g, k = grouplikes
    assert circle(circle(f, g), k) == circle(f, circle(g, k))


@LAWS
@given(SEEDS, st.integers(2, 4), st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3))
def test_conv_star_right_symmetric_associator(seed, truncation, degrees):
    # (f * g) * h - f * (g * h) is graded symmetric in g and h
    rng = random.Random(seed)
    f, g, h = (random_conv_element(SPACE, truncation, deg, rng, nentries=2) for deg in degrees)
    left = conv_star(conv_star(f, g), h) - conv_star(f, conv_star(g, h))
    right = conv_star(conv_star(f, h), g) - conv_star(f, conv_star(h, g))
    sign = -1 if degrees[1] * degrees[2] % 2 else 1
    assert left == right * sign


@st.composite
def gauged_differentials(draw, tower):
    """(delta, alpha): the bare differential of a random contraction as a
    structure tower or an A-infinity element, and a random gauge of it."""
    rng = random.Random(draw(SEEDS))
    truncation = draw(st.integers(2, 5 if tower else 4))
    nentries = draw(st.integers(1, 4))
    c = random_contraction(rng, ndeg=3, maxdim=2, npairs=3)
    if tower:
        delta = mcx.structure_tower(c.big, truncation, {0: c.d})
        lam = random_gauge_tower(c.big, truncation, rng, nentries)
        return delta, mcx.conjugate(lam, delta)
    delta = element_from_map(c.d, truncation)
    return delta, gauge_act(random_gauge_element(c.big, truncation, rng, nentries), delta)


@LAWS
@given(gauged_differentials(tower=True))
def test_tower_trivializer_log_gauges_delta_to_alpha(pair):
    delta, alpha = pair
    result = mcx.trivialize(alpha)
    assert result.found
    assert calculus.gauge_act(result.log, delta) == mcx.conjugate(result.log, delta) == alpha


@settings(LAWS, max_examples=15)
@given(gauged_differentials(tower=False))
def test_ainf_trivializer_log_gauges_delta_to_alpha(pair):
    delta, alpha = pair
    result = find_trivializer(alpha)
    assert result.found
    assert calculus.gauge_act(result.log, delta) == gauge_act(result.log, delta) == alpha
