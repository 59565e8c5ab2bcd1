"""The stage-wise trivializer oracle and the trivializers' own checks.

``linalg.solve_sparse``, which keeps each row independent of the rows
before it, must agree exactly with the row-scanning elimination in
``helpers.solve_sparse_by_scan``, which pivots by variable, the
oracle's stage routine ``helpers.solve_stage`` with the assembly it
replaced, and the stage matrices of ``helpers.stage_rows`` with the
per-unknown operator ``helpers.stage_operator``; at arity 1, the
multicomplex stage, also with ``helpers.commutator``.  A trivializer whose
twist returns a wrong isotopy must be caught by the checks after it, and
the stage sizes of the oracle stay pinned.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
from prelie import calculus
from prelie import linalg
from prelie import multicomplex as mcx
from prelie.ainf import MultiOp, element_from_map, find_trivializer, gauge_act
from prelie.errors import InternalCheckError
from prelie.linalg import GradedMap, GradedSpace, solve_sparse
from helpers import (
    a_infinity_instance,
    acyclic_dga,
    acyclic_tower,
    arity_one,
    bicomplex_tower,
    commutator,
    formal_dga,
    massey_dga,
    obstructed_tower,
    random_gauge_element,
    random_gauge_tower,
    solve_sparse_by_scan,
    solve_stage,
    stage_operator,
    stage_rows,
    trivialize_by_stages,
)

COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
BUDGET = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def systems(draw):
    """A sparse rational system; half of them consistent by construction.

    Small coefficient ranges and dense-ish rows make fill-in and
    cancellation common; ``COEFFS`` includes 0, so rows carry explicit
    zeros, and a row may be empty.  Up to three more rows are linear
    combinations of the rows drawn, inserted anywhere, so rank-deficient
    systems, consistent or not, are common, and a row may depend on rows
    after it."""
    nvars = draw(st.integers(0, 7))
    nrows = draw(st.integers(0, 9))
    keys = st.sampled_from(range(nvars or 1))
    rows = [draw(st.dictionaries(keys, COEFFS, max_size=4 if nvars else 0)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        combination = {}
        for i, c in draw(st.lists(st.tuples(st.sampled_from(range(len(rows))), COEFFS),
                                  min_size=1, max_size=3)):
            for k, v in rows[i].items():
                combination[k] = combination.get(k, 0) + c * v
        rows.insert(draw(st.integers(0, len(rows))), combination)
    if draw(st.booleans()):
        x0 = [draw(COEFFS) for _ in range(nvars)]
        rhs = [sum((c * x0[k] for k, c in row.items()), Fraction(0)) for row in rows]
    else:
        rhs = [draw(COEFFS) for _ in range(len(rows))]
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


def _check_stage(space, arity, degree, d):
    unknowns, rows = stage_rows(space, arity, degree, d)
    basis = space.basis()
    assert unknowns == [
        (ins, out)
        for ins in itertools.product(basis, repeat=arity)
        for out in basis
        if out[0] == sum(b[0] for b in ins) + degree
    ]
    columns = _columns(rows)
    d_op = MultiOp.from_graded_map(d)
    for var, key in enumerate(unknowns):
        unit = MultiOp(space, space, arity, degree, {key: Fraction(1)})
        assert columns.get(var, {}) == stage_operator(unit, d_op).entries
        if arity == 1:  # the multicomplex stage: a commutator of graded maps
            ((s, i),), (_, t) = key
            comm = commutator(GradedMap(space, space, degree, {(s, i, t): 1}), d)
            assert columns.get(var, {}) == arity_one(comm)


@pytest.mark.parametrize("fixture", [massey_dga, formal_dga, a_infinity_instance])
def test_ainf_stage_columns_equal_the_stage_operator(fixture):
    alpha, c = fixture(truncation=4)
    for n in range(2, 5):
        _check_stage(alpha.source, n, 0, c.d)


def test_tower_stage_columns_equal_the_commutator():
    for tower in (acyclic_tower(), bicomplex_tower(), obstructed_tower()):
        for n in range(1, 4):
            _check_stage(tower.space, 1, 2 * n, tower.component(0))


@st.composite
def stage_shapes(draw):
    """A space of at most six basis vectors in degrees -1..2, a random map d
    on it of degree -1, 0 or 1, an arity 1..3 and an unknown degree -1..4."""
    arity = draw(st.integers(1, 3))
    room = 6
    dims = {}
    for deg in range(-1, 3):
        dims[deg] = draw(st.integers(0, min(2, room)))
        room -= dims[deg]
    space = GradedSpace(dims)
    d = GradedMap(space, space, draw(st.integers(-1, 1)))
    keys = [(s, i, t) for s, dim in space.dims.items() for i in range(dim)
            for t in range(space.dim(s + d.degree))]
    if keys:
        for key in draw(st.lists(st.sampled_from(keys), max_size=5)):
            d[key] = draw(COEFFS)
    return space, arity, draw(st.integers(-1, 4)), d


@BUDGET
@given(stage_shapes())
def test_stage_columns_equal_the_stage_operator(shape):
    _check_stage(*shape)


def test_stage_sizes_the_benchmark_records(monkeypatch):
    # perfbench/spans.SolveSizes records rows x unknowns per job by rebinding
    # linalg.solve_sparse; the trivializers no longer call it, and the stage
    # oracle keeps the sizes older records hold
    sizes = []

    def recording(rows, rhs, nvars):
        sizes.append((len(rows), nvars))
        return solve_sparse(rows, rhs, nvars)

    monkeypatch.setattr(linalg, "solve_sparse", recording)
    monkeypatch.setattr(helpers, "solve_sparse", recording)
    _alpha, c = massey_dga(truncation=4)
    gauged = gauge_act(random_gauge_element(c.big, 4, random.Random(5)), element_from_map(c.d, 4))
    assert mcx.trivialize(acyclic_tower()).found
    assert find_trivializer(gauged).found
    assert sizes == []
    assert trivialize_by_stages(acyclic_tower()).found
    assert sizes == [(2, 1)]
    sizes.clear()
    assert trivialize_by_stages(gauged).found
    assert sizes == [(101, 448), (431, 2048)]


def _unit_isotopy(monkeypatch):
    """Make the twist report every structure trivial with the unit as its
    isotopy, which is wrong for any structure but the differential."""
    monkeypatch.setattr(calculus, "trivialize", lambda alpha, h, pullback:
                        calculus.Trivialization(True, f=alpha.unit_like()))


def test_find_trivializer_rejects_a_wrong_solution(monkeypatch):
    _alpha, c = acyclic_dga(truncation=4)
    delta = element_from_map(c.d, 4)
    gauged = gauge_act(random_gauge_element(c.big, 4, random.Random(3)), delta)
    assert find_trivializer(gauged).found
    _unit_isotopy(monkeypatch)
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
    _unit_isotopy(monkeypatch)
    with pytest.raises(InternalCheckError):
        mcx.trivialize(alpha)
