"""Seeded inputs for the benchmark: DGA fixtures, random gauges and towers.

The algebra fixtures are written on an unshifted differential graded algebra
(homological grading, d of degree -1) and encoded into the library's
desuspended form: degree k moves to k + 1, b_1 = -s d s^-1,
b_2(sx, sy) = (-1)^|x| s m2(x, y), and h moves to -s h s^-1.  They are the
benchmark's own copies, so a change to the test helpers cannot change the
workloads.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from prelie import multicomplex as mcx
from prelie.ainf import Contraction, ConvElement, MultiOp
from prelie.linalg import GradedMap, GradedSpace
from prelie.series import LabeledTree, TreeSeries

COEFFS = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(-1, 3),
]


# -- DGA encoding ---------------------------------------------------------------


def _shift(dims: dict) -> GradedSpace:
    return GradedSpace({k + 1: v for k, v in dims.items()})


def encode_dga(dims, d_rows, products, truncation) -> ConvElement:
    """Structure of a DGA.  ``d_rows``: ((deg, i), j, c) for d(b) = c b'_j;
    ``products``: ((a, b)) -> [((deg, k), c)] on basis labels."""
    space = _shift(dims)
    b1 = MultiOp(space, space, 1, -1)
    for (deg, i), j, c in d_rows:
        b1[((deg + 1, i),), (deg, j)] = -Fraction(c)
    b2 = MultiOp(space, space, 2, -1)
    for ((da, ia), (db, ib)), images in products.items():
        sign = -1 if da % 2 else 1
        for (dout, iout), c in images:
            b2[((da + 1, ia), (db + 1, ib)), (dout + 1, iout)] = sign * Fraction(c)
    return ConvElement(space, space, truncation, -1, {1: b1, 2: b2})


def encode_contraction(dims, hdims, d_rows, i_rows, p_rows, h_rows) -> Contraction:
    big, small = _shift(dims), _shift(hdims)
    d = GradedMap(big, big, -1)
    incl = GradedMap(small, big, 0)
    proj = GradedMap(big, small, 0)
    h = GradedMap(big, big, 1)
    for gmap, rows, sign in ((d, d_rows, -1), (incl, i_rows, 1), (proj, p_rows, 1), (h, h_rows, -1)):
        for (deg, i), j, c in rows:
            gmap[deg + 1, i, j] = sign * Fraction(c)
    return Contraction(big, small, d, incl, proj, h)


# -- fixtures -------------------------------------------------------------------


def massey_dga(truncation):
    """6-dim DGA with a nonzero triple Massey product on its homology:
    x, y, z, u in degree -1, e, w in degree -2; du = e, xy = e, uz = w."""
    X, Y, Z, U = (-1, 0), (-1, 1), (-1, 2), (-1, 3)
    E, W = (-2, 0), (-2, 1)
    dims = {-1: 4, -2: 2}
    alpha = encode_dga(dims, [(U, 0, 1)], {(X, Y): [(E, 1)], (U, Z): [(W, 1)]}, truncation)
    c = encode_contraction(
        dims,
        {-1: 3, -2: 1},
        [(U, 0, 1)],
        [((-1, 0), 0, 1), ((-1, 1), 1, 1), ((-1, 2), 2, 1), ((-2, 0), 1, 1)],
        [(X, 0, 1), (Y, 1, 1), (Z, 2, 1), (W, 0, 1)],
        [(E, 3, -1)],
    )
    return alpha, c


def line_dga(truncation):
    """g, s in degree 0, t in degree 1; dt = s; g idempotent and a unit on
    s, t; ss = s, st = ts = t.  One homology class [g] with beta_2 != 0."""
    G, S, T = (0, 0), (0, 1), (1, 0)
    products = {
        (G, G): [(G, 1)], (G, S): [(S, 1)], (S, G): [(S, 1)], (G, T): [(T, 1)],
        (T, G): [(T, 1)], (S, S): [(S, 1)], (S, T): [(T, 1)], (T, S): [(T, 1)],
    }
    dims = {0: 2, 1: 1}
    alpha = encode_dga(dims, [(T, 1, 1)], products, truncation)
    c = encode_contraction(
        dims, {0: 1}, [(T, 1, 1)], [((0, 0), 0, 1)], [((0, 0), 0, 1)], [((0, 1), 0, -1)]
    )
    return alpha, c


def formal_dga(truncation):
    """x, y, u in degree -1, e in degree -2; du = e, xy = e.  The whole
    transferred structure vanishes."""
    X, Y, U, E = (-1, 0), (-1, 1), (-1, 2), (-2, 0)
    dims = {-1: 3, -2: 1}
    alpha = encode_dga(dims, [(U, 0, 1)], {(X, Y): [(E, 1)]}, truncation)
    c = encode_contraction(
        dims,
        {-1: 2},
        [(U, 0, 1)],
        [((-1, 0), 0, 1), ((-1, 1), 1, 1)],
        [(X, 0, 1), (Y, 1, 1)],
        [(E, 2, -1)],
    )
    return alpha, c


def a_infinity_instance(truncation):
    """A genuine arity-3 operation and no product, on the desuspended space
    directly; one acyclic pair is contracted away."""
    big, small = GradedSpace({0: 3, -1: 2}), GradedSpace({0: 2, -1: 1})
    d = GradedMap(big, big, -1, {(0, 2, 1): Fraction(1)})
    incl = GradedMap(small, big, 0, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(1), (-1, 0, 0): Fraction(1)})
    proj = GradedMap(big, small, 0, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(1), (-1, 0, 0): Fraction(1)})
    h = GradedMap(big, big, 1, {(-1, 1, 2): Fraction(-1)})
    b3 = MultiOp(big, big, 3, -1)
    b3[((0, 0), (0, 1), (0, 0)), (-1, 0)] = 1
    b3[((0, 1), (0, 1), (0, 1)), (-1, 0)] = -2
    alpha = ConvElement(big, big, truncation, -1, {1: MultiOp.from_graded_map(d), 3: b3})
    return alpha, Contraction(big, small, d, incl, proj, h)


def differential_only(alpha: ConvElement) -> ConvElement:
    return ConvElement(alpha.source, alpha.target, alpha.truncation, -1, {1: alpha.component(1)})


# -- random generators ----------------------------------------------------------


def random_multi_op(space, arity, degree, where, coeffs, nentries):
    """``nentries`` entries at positions drawn from ``where``, with
    coefficients drawn from ``coeffs``."""
    op = MultiOp(space, space, arity, degree)
    basis = space.basis()
    candidates = [
        (ins, out)
        for ins in itertools.product(basis, repeat=arity)
        for out in basis
        if out[0] == sum(b[0] for b in ins) + degree
    ]
    where.shuffle(candidates)
    for ins, out in candidates[:nentries]:
        op[ins, out] = coeffs.choice(COEFFS)
    return op


def random_gauge(space, truncation, where, coeffs, nentries):
    """Degree-0 element with ``nentries`` entries in every arity >= 2."""
    comps = {}
    for arity in range(2, truncation + 1):
        comps[arity] = random_multi_op(space, arity, 0, where, coeffs, nentries)
    return ConvElement(space, space, truncation, 0, comps)


def random_labeled_tree(symbols, nvertices, rng) -> LabeledTree:
    label = rng.choice(symbols)
    children, remaining = [], nvertices - 1
    while remaining:
        size = rng.randint(1, remaining)
        children.append(random_labeled_tree(symbols, size, rng))
        remaining -= size
    return LabeledTree(label, children)


def random_series(symbols, order, where, coeffs, weights) -> TreeSeries:
    """Series with unit 0: every generator of ``symbols`` at weight 1 plus
    one tree of each listed weight, trees drawn from ``where`` and
    coefficients from ``coeffs``."""
    terms = {LabeledTree(s): coeffs.choice(COEFFS) for s in symbols}
    for w in weights:
        t = random_labeled_tree(symbols, w, where)
        terms[t] = terms.get(t, 0) + coeffs.choice(COEFFS)
    return TreeSeries(order, 0, {t: c for t, c in terms.items() if c})


def random_differential(space: GradedSpace, rng) -> GradedMap:
    """Random d of degree -1 with d^2 = 0.  Going down the degrees, half of
    the vectors not yet hit by d are paired with distinct vectors one degree
    lower; a vector that is hit is never a source, so d^2 = 0."""
    d = GradedMap(space, space, -1)
    hit = {k: set() for k in space.dims}
    for k in sorted(space.dims, reverse=True):
        if k - 1 not in space.dims:
            continue
        sources = [i for i in range(space.dim(k)) if i not in hit[k]]
        targets = list(range(space.dim(k - 1)))
        rng.shuffle(sources)
        rng.shuffle(targets)
        for src, dst in list(zip(sources, targets))[: len(sources) // 2]:
            d[k, src, dst] = rng.choice(COEFFS)
            hit[k - 1].add(dst)
    return d


def random_gauge_tower(space, truncation, rng, nentries):
    comps = {}
    for w in range(1, truncation + 1):
        gm = GradedMap(space, space, 2 * w)
        cands = [
            (sdeg, sidx, tidx)
            for sdeg, sdim in space.dims.items()
            for sidx in range(sdim)
            for tidx in range(space.dim(sdeg + 2 * w))
        ]
        rng.shuffle(cands)
        for key in cands[:nentries]:
            gm[key] = gm.entries.get(key, 0) + rng.choice(COEFFS)
        if not gm.is_zero():
            comps[w] = gm
    return mcx.gauge_tower(space, truncation, comps)
