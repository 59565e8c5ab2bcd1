"""Laws of the shared sparse-combination kernel, for all six element types.

Each element type is a vector space over the rationals: the tests check the
laws, that no zero is ever stored, that ``+``, ``-`` and scalar ``*`` leave
their operands untouched, and that the products which accumulate in place
are bilinear and leave their operands untouched too.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import compose_at
from prelie import multicomplex as mcx
from prelie.ainf import ConvElement, MultiOp, TensorOperator, star
from prelie.combination import Combination, add_into
from prelie.errors import ShapeError, TruncationMismatch, ValidationError
from prelie.linalg import GradedMap, GradedSpace
from prelie.series import LabeledTree, TreeSeries, graft

SPACE = GradedSpace({0: 1, 1: 2, 2: 1})
BASIS = SPACE.basis()
TREES = [LabeledTree.from_text(t) for t in ("(a)", "(b)", "(a (a))", "(a (b))", "(b (a))",
                                              "(a (a) (b))", "(a (b (a)))")]

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = COEFFS.filter(bool)
LAWS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _sparse(keys, coeffs=COEFFS):
    return st.dictionaries(st.sampled_from(keys), coeffs, max_size=6) if keys else st.just({})


def _map_keys(degree):
    return [(sd, si, ti) for sd, si in BASIS for td, ti in BASIS if td == sd + degree]


def _op_keys(arity, degree):
    return [
        (ins, out)
        for ins in itertools.product(BASIS, repeat=arity)
        for out in BASIS
        if out[0] == sum(b[0] for b in ins) + degree
    ]


def graded_maps(shape):
    source, target, degree = shape
    return _sparse(_map_keys(degree)).map(lambda e: GradedMap(source, target, degree, e))


def multi_ops(shape):
    source, target, arity, degree = shape
    return _sparse(_op_keys(arity, degree)).map(
        lambda e: MultiOp(source, target, arity, degree, e)
    )


def tensor_operators(shape):
    space, arity, degree = shape
    tuples = list(itertools.product(BASIS, repeat=arity))
    keys = list(itertools.product(tuples, tuples))
    return _sparse(keys, NONZERO).map(lambda e: TensorOperator(space, arity, degree, e))


def tree_series(shape):
    (order,) = shape
    trees = [t for t in TREES if t.nvertices <= order]
    return st.tuples(COEFFS, _sparse(trees)).map(lambda ut: TreeSeries(order, ut[0], ut[1]))


def towers(shape):
    space, truncation, offset = shape
    weights = range(truncation + 1)
    parts = [graded_maps((space, space, 2 * w + offset)) for w in weights]
    return st.tuples(*parts).map(
        lambda maps: mcx.OperatorTower(space, truncation, offset, dict(zip(weights, maps)))
    )


def conv_elements(shape):
    source, target, truncation, degree = shape
    arities = range(1, truncation + 1)
    parts = [multi_ops((source, target, a, degree)) for a in arities]
    return st.tuples(*parts).map(
        lambda ops: ConvElement(source, target, truncation, degree, dict(zip(arities, ops)))
    )


@dataclass
class Kind:
    name: str
    elements: object  # shape -> strategy of elements of that shape
    shapes: list  # shapes to draw same-shape operands from
    mismatch: object  # a shape other than ``shapes[0]``
    error: type

    def __repr__(self):
        return self.name


KINDS = [
    Kind("GradedMap", graded_maps, [(SPACE, SPACE, 0), (SPACE, SPACE, -1)],
         (SPACE, SPACE, 1), ShapeError),
    Kind("MultiOp", multi_ops, [(SPACE, SPACE, 1, -1), (SPACE, SPACE, 2, 0)],
         (SPACE, SPACE, 2, -1), ShapeError),
    Kind("TensorOperator", tensor_operators, [(SPACE, 1, 0), (SPACE, 2, 1)],
         (SPACE, 2, 0), ShapeError),
    Kind("TreeSeries", tree_series, [(3,), (4,)], (2,), TruncationMismatch),
    Kind("OperatorTower", towers, [(SPACE, 2, mcx.STRUCTURE), (SPACE, 2, mcx.GAUGE)],
         (SPACE, 1, mcx.GAUGE), ShapeError),
    Kind("ConvElement", conv_elements, [(SPACE, SPACE, 2, -1), (SPACE, SPACE, 3, 0)],
         (SPACE, SPACE, 2, 0), ShapeError),
]


def triples(kind):
    """Three elements of one shape of ``kind``."""
    return st.sampled_from(kind.shapes).flatmap(
        lambda shape: st.tuples(*[kind.elements(shape)] * 3)
    )


SAME_SHAPE = st.sampled_from(KINDS).flatmap(triples)


def snapshot(x):
    """Plain nested copy of everything an element stores."""
    coeffs = {
        k: snapshot(v) if isinstance(v, Combination) else v for k, v in x._coeffs.items()
    }
    return getattr(x, "unit", None), coeffs


def stores_no_zero(x) -> bool:
    return all(
        v and (stores_no_zero(v) if isinstance(v, Combination) else True)
        for v in x._coeffs.values()
    )


@LAWS
@given(SAME_SHAPE)
def test_addition_is_commutative_and_invertible(abc):
    a, b, _c = abc
    assert a + b == b + a
    assert (a + b) - b == a
    assert (a + b) + abc[2] == a + (b + abc[2])


@LAWS
@given(SAME_SHAPE, COEFFS, COEFFS)
def test_scalars_distribute(abc, r, s):
    a, b, _c = abc
    assert (r + s) * a == r * a + s * a
    assert r * (a + b) == r * a + b * r
    assert -a == a * -1


@LAWS
@given(SAME_SHAPE, COEFFS)
def test_zero_results_store_nothing(abc, r):
    a, b, _c = abc
    for zero in (0 * a, a - a, a + (-a)):
        assert zero.is_zero() and not zero
        assert zero._coeffs == {}
        assert getattr(zero, "unit", 0) == 0
    for x in (a, a + b, a - b, r * a):
        assert stores_no_zero(x)


@LAWS
@given(SAME_SHAPE, COEFFS)
def test_arithmetic_leaves_operands_unmodified(abc, r):
    a, b, _c = abc
    before = snapshot(a), snapshot(b)
    total = a + b
    _ = a - b, -b, r * a, a * r, total - a, total + b
    assert (snapshot(a), snapshot(b)) == before


@LAWS
@given(st.sampled_from(KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), kind.elements(kind.shapes[0]),
                           kind.elements(kind.mismatch))))
def test_shape_mismatch_raises_the_type_error(kab):
    kind, a, b = kab
    with pytest.raises(kind.error):
        a + b
    with pytest.raises(kind.error):
        b - a
    with pytest.raises(TypeError):
        a + 1
    assert a != b


def test_mixed_types_raise_type_error():
    gmap = GradedMap.identity(SPACE)
    with pytest.raises(TypeError):
        gmap + MultiOp.from_graded_map(gmap)
    with pytest.raises(TypeError):
        TreeSeries.one(3) - gmap


@pytest.mark.parametrize("entry", ["graded-map", "multi-op", "tree-series-terms",
                                   "tree-series-unit", "scalar-product"])
def test_coefficient_entry_points_refuse_floats(entry):
    # Fraction(0.1) is 3602879701896397/36028797018963968, the float's binary expansion
    x = LabeledTree.from_text("(x)")
    set_coefficient = {
        "graded-map": lambda c: GradedMap(SPACE, SPACE, 0).__setitem__((0, 0, 0), c),
        "multi-op": lambda c: MultiOp(SPACE, SPACE, 1, 0).__setitem__((((0, 0),), (0, 0)), c),
        "tree-series-terms": lambda c: TreeSeries(3, terms={x: c}),
        "tree-series-unit": lambda c: TreeSeries(3, unit=c),
        "scalar-product": lambda c: TreeSeries.generator("x", 3) * c,
    }[entry]
    with pytest.raises(ValidationError, match="must be exact, not the float 0.1"):
        set_coefficient(0.1)
    set_coefficient(Fraction(1, 10))  # an exact tenth is taken


@pytest.mark.parametrize("dims", [{0: 2.9}, {0: 2.0}, {1.0: 1}, {"0": 1}, {0: True}])
def test_graded_space_refuses_a_degree_or_dimension_not_an_int(dims):
    with pytest.raises(ValidationError, match="a degree or dimension must be an int, got "):
        GradedSpace(dims)


def test_add_into_updates_owned_values_in_place():
    acc = {}
    add_into(acc, "x", Fraction(1, 2))
    add_into(acc, "x", Fraction(-1, 2))
    assert acc == {}
    first = GradedMap.identity(SPACE)
    add_into(acc, 0, first)
    add_into(acc, 0, GradedMap.identity(SPACE) * -1)
    assert acc == {} and first.is_zero()  # the stored map was updated, not copied


# -- products that accumulate in place ------------------------------------------


PRODUCTS = {
    "GradedMap": lambda f, g: f.compose(g),
    "TensorOperator": lambda f, g: f.compose(g),
    "TreeSeries": graft,
    "OperatorTower": mcx.star,
    "ConvElement": star,
    "MultiOp": lambda f, g: compose_at(f, g, 1),
}


def _product_inputs(kind):
    if kind.name == "MultiOp":  # compose_at plugs an arity-1 operation into slot 1
        return st.tuples(multi_ops((SPACE, SPACE, 2, 0)), multi_ops((SPACE, SPACE, 2, 0)),
                         multi_ops((SPACE, SPACE, 1, -1)))
    return triples(kind)


@LAWS
@given(st.sampled_from(KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), _product_inputs(kind))))
def test_products_are_bilinear_and_leave_operands_unmodified(k_abc):
    kind, (a, b, c) = k_abc
    product = PRODUCTS[kind.name]
    before = [snapshot(x) for x in (a, b, c)]
    left = product(a + b, c)
    assert left == product(a, c) + product(b, c)
    assert stores_no_zero(left)
    assert product(a * 2, c) == product(a, c) * 2
    assert [snapshot(x) for x in (a, b, c)] == before


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_element_types_take_all_arithmetic_from_combination():
    overridable = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__",
                   "__hash__", "is_zero"}
    library = [c for c in _subclasses(Combination) if c.__module__.startswith("prelie.")]
    assert sorted(c.__name__ for c in library) == sorted(kind.name for kind in KINDS)
    for cls in library:
        assert not overridable & set(vars(cls)), cls.__name__
