"""Trivializer stages: the column-indexed solver and the stage matrices.

``linalg.solve_sparse`` must agree exactly with the row-scanning
elimination in ``helpers.solve_sparse_by_scan`` (same pivot rule), the
stage routine ``linalg.solve_stage`` with the assembly it replaced, and the
stage matrices read off d with the per-unknown operators
``helpers.stage_operator`` (A-infinity) and ``helpers.commutator``
(multicomplex).  A solver returning a wrong solution must be caught by the
post-solve checks.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prelie import linalg
from prelie import multicomplex as mcx
from prelie.ainf import MultiOp, element_from_map, find_trivializer, gauge_act
from prelie.ainf.transfer import _stage_rows as ainf_stage_rows
from prelie.errors import InternalCheckError
from prelie.linalg import GradedMap, GradedSpace, solve_sparse, solve_stage
from helpers import (
    a_infinity_instance,
    acyclic_dga,
    acyclic_tower,
    bicomplex_tower,
    commutator,
    formal_dga,
    massey_dga,
    obstructed_tower,
    random_gauge_element,
    random_gauge_tower,
    random_multi_op,
    solve_sparse_by_scan,
    stage_operator,
)

COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
BUDGET = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def systems(draw):
    """A sparse rational system; half of them consistent by construction.

    Small coefficient ranges and dense-ish rows make fill-in and
    cancellation common; ``COEFFS`` includes 0, so rows carry explicit
    zeros, and a row may be empty."""
    nvars = draw(st.integers(0, 7))
    nrows = draw(st.integers(0, 9))
    keys = st.sampled_from(range(nvars or 1))
    rows = [draw(st.dictionaries(keys, COEFFS, max_size=4 if nvars else 0)) for _ in range(nrows)]
    if draw(st.booleans()):
        x0 = [draw(COEFFS) for _ in range(nvars)]
        rhs = [sum((c * x0[k] for k, c in row.items()), Fraction(0)) for row in rows]
    else:
        rhs = [draw(COEFFS) for _ in range(nrows)]
    return rows, rhs, nvars


@BUDGET
@given(systems())
def test_solve_sparse_matches_the_scanning_oracle(system):
    rows, rhs, nvars = system
    before = [dict(r) for r in rows]
    got = solve_sparse(rows, rhs, nvars)
    assert got == solve_sparse_by_scan(rows, rhs, nvars)
    assert rows == before  # the input rows are not modified
    consistent, x = got
    if consistent:
        for row, b in zip(rows, rhs):
            assert sum((c * x[k] for k, c in row.items()), Fraction(0)) == b


F = Fraction


@pytest.mark.parametrize(
    "rows, rhs, nvars, expected",
    [
        # an explicit zero is no pivot: var 0 is free, var 1 pivots on row 0
        ([{0: F(0), 1: F(2)}], [F(4)], 2, (True, [F(0), F(2)])),
        ([{}, {0: F(1)}], [F(0), F(3)], 1, (True, [F(3)])),
        ([{}], [F(1)], 1, (False, [F(0)])),  # empty row, non-zero right-hand side
        ([{0: F(1)}, {0: F(2)}], [F(1), F(3)], 1, (False, [F(1)])),  # inconsistent
        ([{1: F(1)}], [F(5)], 3, (True, [F(0), F(5), F(0)])),  # unknowns no row mentions
        # fill-in: eliminating var 0 puts var 2 into row 1
        ([{0: F(1), 2: F(1)}, {0: F(1), 1: F(1)}], [F(1), F(2)], 3, (True, [F(1), F(1), F(0)])),
        # cancellation: eliminating var 0 empties var 1 from row 1, var 2 pivots there
        ([{0: F(1), 1: F(1)}, {0: F(1), 1: F(1), 2: F(1)}], [F(2), F(5)], 3,
         (True, [F(2), F(0), F(3)])),
    ],
    ids=["explicit-zero", "empty-row", "empty-row-inconsistent", "inconsistent",
         "unmentioned-unknowns", "fill-in", "cancellation"],
)
def test_solve_sparse_edge_cases(rows, rhs, nvars, expected):
    assert solve_sparse(rows, rhs, nvars) == expected
    assert solve_sparse_by_scan(rows, rhs, nvars) == expected


def test_solve_sparse_stays_exact_on_int_coefficients():
    consistent, x = solve_sparse([{0: 3, 1: 1}, {1: 2}], [1, 4], 2)
    assert consistent and x == [Fraction(-1, 3), Fraction(2)]
    assert all(type(v) is Fraction for v in x)


@st.composite
def stages(draw):
    """Unknown keys, rows by target key (possibly empty) and a right-hand side."""
    nvars = draw(st.integers(0, 6))
    unknowns = [("u", i) for i in range(nvars)]
    targets = st.sampled_from([("t", i) for i in range(7)])
    keys = st.sampled_from(range(nvars or 1))
    nonzero = COEFFS.filter(bool)
    row = st.dictionaries(keys, nonzero, max_size=3 if nvars else 0)
    rows = draw(st.dictionaries(targets, row, max_size=6))
    rhs = draw(st.dictionaries(targets, nonzero, max_size=4))
    return unknowns, rows, rhs


@BUDGET
@given(stages())
def test_solve_stage_matches_the_assembly_it_replaced(stage):
    unknowns, rows_by_target, rhs_entries = stage
    targets = sorted(set(rows_by_target) | set(rhs_entries))
    rows = [rows_by_target.get(t, {}) for t in targets]
    rhs = [rhs_entries.get(t, Fraction(0)) for t in targets]
    ok, x = solve_sparse_by_scan(rows, rhs, len(unknowns))
    entries = {key: x[var] for var, key in enumerate(unknowns) if x[var]}
    residual = {}
    if not ok:  # rhs - L(x), with L applied column by column
        residual = dict(rhs_entries)
        for var, key in enumerate(unknowns):
            for t, row in rows_by_target.items():
                residual[t] = residual.get(t, 0) - row.get(var, 0) * x[var]
        residual = {t: c for t, c in residual.items() if c}
    assert solve_stage(unknowns, rows_by_target, rhs_entries) == (ok, entries, residual)


def _columns(rows):
    columns = {}
    for target, row in rows.items():
        for var, coeff in row.items():
            assert coeff  # no explicit zeros reach the solver
            columns.setdefault(var, {})[target] = coeff
    return columns


def _check_ainf_stage(space, n, d_op):
    unknowns, rows = ainf_stage_rows(space, n, d_op)
    basis = space.basis()
    assert unknowns == [
        (ins, out)
        for ins in itertools.product(basis, repeat=n)
        for out in basis
        if out[0] == sum(b[0] for b in ins)
    ]
    columns = _columns(rows)
    for var, key in enumerate(unknowns):
        unit = MultiOp(space, space, n, 0, {key: Fraction(1)})
        assert columns.get(var, {}) == stage_operator(unit, d_op).entries


@pytest.mark.parametrize("fixture", [massey_dga, formal_dga, a_infinity_instance])
def test_ainf_stage_columns_equal_the_stage_operator(fixture):
    alpha, _c = fixture(truncation=4)
    for n in range(2, 5):
        _check_ainf_stage(alpha.source, n, alpha.component(1))


def test_ainf_stage_columns_on_random_differentials():
    rng = random.Random(23)
    for _ in range(6):
        space = GradedSpace({k: rng.randint(0, 2) for k in range(-1, 2)})
        if not space.dims:
            continue
        d_op = random_multi_op(space, 1, -1, rng, nentries=rng.randint(1, 5))
        for n in (2, 3):
            _check_ainf_stage(space, n, d_op)


def _check_tower_stage(space, degree, d):
    unknowns, rows = mcx._stage_rows(space, degree, d)
    assert unknowns == [
        (sdeg, sidx, tidx)
        for sdeg, sdim in space.dims.items()
        for sidx in range(sdim)
        for tidx in range(space.dim(sdeg + degree))
    ]
    columns = _columns(rows)
    for var, key in enumerate(unknowns):
        unit = GradedMap(space, space, degree, {key: Fraction(1)})
        assert columns.get(var, {}) == commutator(unit, d).entries


def test_tower_stage_columns_equal_the_commutator():
    towers = [acyclic_tower(), bicomplex_tower(), obstructed_tower()]
    rng = random.Random(29)
    for _ in range(6):
        space = GradedSpace({k: rng.randint(0, 3) for k in range(6)})
        d = GradedMap(space, space, -1)
        keys = [(s, i, t) for s, dim in space.dims.items() for i in range(dim)
                for t in range(space.dim(s - 1))]
        for key in rng.sample(keys, min(len(keys), rng.randint(1, 8))):
            d[key] = rng.choice([-2, -1, Fraction(1, 2), 1, 3])
        towers.append(mcx.structure_tower(space, 3, {0: d}))
    for tower in towers:
        for n in range(1, 4):
            _check_tower_stage(tower.space, 2 * n, tower.component(0))


def _zero_solver(rows, rhs, nvars):
    return True, [Fraction(0)] * nvars


def test_find_trivializer_rejects_a_wrong_solution(monkeypatch):
    _alpha, c = acyclic_dga(truncation=4)
    delta = element_from_map(c.d, 4)
    gauged = gauge_act(random_gauge_element(c.big, 4, random.Random(3)), delta)
    assert find_trivializer(gauged).found
    monkeypatch.setattr(linalg, "solve_sparse", _zero_solver)
    with pytest.raises(InternalCheckError):
        find_trivializer(gauged)


def test_trivialize_rejects_a_wrong_solution(monkeypatch):
    V = GradedSpace({0: 1, 1: 2, 2: 1})
    d = GradedMap(V, V, -1)
    d[1, 0, 0] = 1
    d[2, 0, 1] = 1
    delta = mcx.structure_tower(V, 4, {0: d})
    alpha = mcx.conjugate(random_gauge_tower(V, 4, random.Random(4)), delta)
    assert mcx.trivialize(alpha).found
    monkeypatch.setattr(linalg, "solve_sparse", _zero_solver)
    with pytest.raises(InternalCheckError):
        mcx.trivialize(alpha)
