"""The library computes with exact rationals only: no float enters its source,
no division can give one, and every stored coefficient is an ``int`` when it
is a whole number and a ``Fraction`` only when it is not."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    a_infinity_instance,
    acyclic_tower,
    bicomplex_tower,
    formal_dga,
    massey_dga,
    obstructed_tower,
    random_contraction,
    random_gauge_element,
    random_gauge_tower,
    tree_series,
)
from prelie import multicomplex as mcx
from prelie.ainf import element_from_map, find_trivializer, gauge_act, transfer
from prelie.combination import Combination
from prelie.series import bch, exp, gauge_act as series_gauge_act, magnus

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "prelie"
SOURCES = sorted(LIBRARY.rglob("*.py"))


def _is_call_of(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _floats(tree):
    """(line, what) for every float literal, every call of ``float`` and
    every ``/`` or ``/=`` with no ``Fraction(...)`` call as an operand, which
    gives a float between two ints."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif _is_call_of(node, "float"):
            yield node.lineno, "call of float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if isinstance(node, ast.BinOp):
                sides = (node.left, node.right)
            else:
                sides = (node.target, node.value)
            if not any(_is_call_of(side, "Fraction") for side in sides):
                yield node.lineno, "division with no Fraction operand"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(LIBRARY)))
def test_no_float_in_the_library(path):
    assert list(_floats(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_guard_sees_floats():
    found = _floats(ast.parse("x = 0.5\ny = float(x) + 1j\nz = isinstance(x, float)\n"))
    assert [line for line, _ in found] == [1, 2, 2]


def test_the_guard_sees_bare_divisions():
    code = ("a = c / n\nb = Fraction(c) / n\nc = c * Fraction(1, n)\nd = c / Fraction(n)\n"
            "c /= n\nc /= Fraction(n)\ne = c // n\nf = (a / b) / Fraction(n)\n")
    assert sorted(line for line, _ in _floats(ast.parse(code))) == [1, 5, 8]


# -- stored coefficients ----------------------------------------------------------


def _coefficients(value):
    """Every coefficient ``value`` holds, through nested combinations."""
    if isinstance(value, Combination):
        for inner in value._coeffs.values():
            yield from _coefficients(inner)
    else:
        yield value


def _is_stored_exactly(coeff) -> bool:
    return type(coeff) is int or type(coeff) is Fraction and coeff.denominator > 1


@st.composite
def _ainf_outputs(draw):
    """beta, i_inf and p_inf of a transfer and f and its log (or the
    residual) of a trivializer, on a gauged fixture or complex."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    truncation = draw(st.integers(2, 4))
    source = draw(st.sampled_from(["complex", "massey", "formal", "a_infinity"]))
    if source == "complex":
        c = random_contraction(rng, ndeg=3, maxdim=2, npairs=3)
        alpha = element_from_map(c.d, truncation)
    else:
        make = {"massey": massey_dga, "formal": formal_dga, "a_infinity": a_infinity_instance}
        alpha, c = make[source](truncation)
    if draw(st.booleans()):  # a gauged differential, for which the trivializer finds f
        alpha = alpha.weight_component(0)
    alpha = gauge_act(random_gauge_element(c.big, truncation, rng, draw(st.integers(0, 3))), alpha)
    result, trivial = transfer(alpha, c), find_trivializer(alpha)
    return [result.beta, result.i_inf, result.p_inf, trivial.f, trivial.log, trivial.residual]


@st.composite
def _tower_outputs(draw):
    """f and its log (or the residual) of a tower trivializer."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    truncation = draw(st.integers(1, 4))
    make = draw(st.sampled_from([acyclic_tower, bicomplex_tower, obstructed_tower]))
    alpha = make(truncation)
    lam = random_gauge_tower(alpha.space, truncation, rng, draw(st.integers(1, 3)))
    result = mcx.trivialize(mcx.conjugate(lam, alpha))
    return [result.f, result.log, result.residual]


@st.composite
def _series_outputs(draw):
    """exp, magnus, bch and gauge_act of drawn tree series."""
    order = draw(st.integers(1, 5))
    x, y = draw(tree_series(order)), draw(tree_series(order))
    return [exp(x), magnus(x), bch(x, y), series_gauge_act(x, y)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_ainf_outputs(), _tower_outputs(), _series_outputs()))
def test_whole_coefficients_are_stored_as_int(outputs):
    for output in outputs:
        if output is None:
            continue
        bad = [c for c in _coefficients(output) if not _is_stored_exactly(c)]
        assert bad == [], f"{type(output).__name__} stores {bad[:3]!r}"
