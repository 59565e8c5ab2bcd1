"""Shared fixtures and independent oracles for the test suite.

Algebra fixtures are specified on an unshifted space (a differential graded
algebra with homological grading, d of degree -1, Leibniz rule
d(ab) = (da)b + (-1)^{|a|} a(db)) and encoded into the library's desuspended
form here:

    basis of degree k        ->  basis of degree k+1
    b_1  =  - s d s^{-1}
    b_2(sx, sy) = (-1)^{|x|} s m2(x, y)
    contraction:  i, p carried over;  h  ->  -s h s^{-1}

so that Maurer-Cartan for the encoded element is exactly d^2 = 0, Leibniz,
and associativity (checked in the tests themselves).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from prelie import calculus, series
from prelie.ainf import (
    Contraction,
    ConvElement,
    MultiOp,
    TensorOperator,
    circle,
    element_from_map,
    h_push,
    star,
    unit_element,
)
from prelie.ainf.transfer import _abar, _psi, h_star, phi_kernel
from prelie.combination import add_into, put
from prelie.errors import BoundsError, DomainError, ShapeError
from prelie.linalg import GradedMap, GradedSpace, contraction_of, solve_sparse
from prelie.series import LabeledTree, TreeSeries, bracket, eval_tree
from prelie.trees import UNIT, Levelization, aut_order, enumerate_trees, forest_structure
from prelie import multicomplex as mcx


# -- DGA encoding ---------------------------------------------------------------


def shift_space(dims: dict) -> GradedSpace:
    return GradedSpace({k + 1: v for k, v in dims.items()})


def encode_dga(dims, d_entries, products, truncation):
    """ConvElement of a DGA given by basis data on the unshifted space.

    ``dims``: degree -> dimension.  ``d_entries``: list of ((deg, i), (j,), c)
    meaning d(basis) = sum c * basis(deg-1, j).  ``products``: dict
    ((deg_a, i), (deg_b, j)) -> list of ((deg_out, k), coeff).
    """
    space = shift_space(dims)
    b1 = MultiOp(space, space, 1, -1)
    for (deg, i), j, coeff in d_entries:
        b1[((deg + 1, i),), (deg, j)] = (
            b1.entries.get((((deg + 1, i),), (deg, j)), 0) - Fraction(coeff)
        )
    b2 = MultiOp(space, space, 2, -1)
    for ((da, ia), (db, ib)), images in products.items():
        sign = -1 if da % 2 else 1
        for (dout, iout), coeff in images:
            key = (((da + 1, ia), (db + 1, ib)), (dout + 1, iout))
            b2[key[0], key[1]] = b2.entries.get(key, 0) + sign * Fraction(coeff)
    components = {1: b1}
    if not b2.is_zero():
        components[2] = b2
    return ConvElement(space, space, truncation, -1, components)


def encode_contraction(dims, hdims, d_entries, i_entries, p_entries, h_entries):
    """Contraction on the desuspended spaces from unshifted basis data.

    Entry lists hold ((deg, i), j, coeff) rows: the image of basis (deg, i)
    hits index j of the appropriate degree (deg-1 for d, deg+1 for h, deg
    for i and p).
    """
    big = shift_space(dims)
    small = shift_space(hdims)
    d = GradedMap(big, big, -1)
    for (deg, i), j, coeff in d_entries:
        d[deg + 1, i, j] = d.entries.get((deg + 1, i, j), 0) - Fraction(coeff)
    incl = GradedMap(small, big, 0)
    for (deg, i), j, coeff in i_entries:
        incl[deg + 1, i, j] = incl.entries.get((deg + 1, i, j), 0) + Fraction(coeff)
    proj = GradedMap(big, small, 0)
    for (deg, i), j, coeff in p_entries:
        proj[deg + 1, i, j] = proj.entries.get((deg + 1, i, j), 0) + Fraction(coeff)
    h = GradedMap(big, big, 1)
    for (deg, i), j, coeff in h_entries:
        h[deg + 1, i, j] = h.entries.get((deg + 1, i, j), 0) - Fraction(coeff)
    return Contraction(big, small, d, incl, proj, h)


# -- concrete fixtures ------------------------------------------------------------


def acyclic_dga(truncation=5):
    """2-dim acyclic DGA: basis s (deg 0), t (deg 1), dt = s, ss = s, st = ts = t.

    Its homology vanishes, so every transferred operation does too; all
    kernel and twist identities are still nontrivial on the space itself.
    """
    S, T = (0, 0), (1, 0)
    alpha = encode_dga(
        {0: 1, 1: 1},
        [(T, 0, 1)],
        {(S, S): [(S, 1)], (S, T): [(T, 1)], (T, S): [(T, 1)]},
        truncation,
    )
    contraction = encode_contraction(
        {0: 1, 1: 1}, {}, [(T, 0, 1)], [], [], [(S, 0, -1)]
    )
    return alpha, contraction


def line_dga(truncation=5):
    """3-dim DGA with one homology class and an acyclic summand.

    Basis g, s (deg 0), t (deg 1); dt = s; g is idempotent and acts as a
    unit on s, t; ss = s, st = ts = t, tt = 0.  The transferred product on
    the single class [g] is nonzero: beta_2 = p m2 (i x i).
    """
    G, S, T = (0, 0), (0, 1), (1, 0)
    products = {
        (G, G): [(G, 1)],
        (G, S): [(S, 1)],
        (S, G): [(S, 1)],
        (G, T): [(T, 1)],
        (T, G): [(T, 1)],
        (S, S): [(S, 1)],
        (S, T): [(T, 1)],
        (T, S): [(T, 1)],
    }
    alpha = encode_dga({0: 2, 1: 1}, [(T, 1, 1)], products, truncation)
    contraction = encode_contraction(
        {0: 2, 1: 1},
        {0: 1},
        [(T, 1, 1)],
        [((0, 0), 0, 1)],
        [((0, 0), 0, 1)],
        [((0, 1), 0, -1)],
    )
    return alpha, contraction


def massey_dga(truncation=5):
    """6-dim DGA with a nonzero triple Massey product on its homology.

    Homological degrees: x, y, z, u in degree -1; e, w in degree -2.
    du = e, m2(x, y) = e, m2(u, z) = w, all other products zero.  The classes
    [x], [y], [z], [w] survive to homology; the transferred arity-3 operation
    sends ([x], [y], [z]) to a nonzero multiple of [w].
    """
    X, Y, Z, U = ((-1, 0), (-1, 1), (-1, 2), (-1, 3))
    E, W = ((-2, 0), (-2, 1))
    alpha = encode_dga(
        {-1: 4, -2: 2},
        [(U, 0, 1)],
        {(X, Y): [(E, 1)], (U, Z): [(W, 1)]},
        truncation,
    )
    contraction = encode_contraction(
        {-1: 4, -2: 2},
        {-1: 3, -2: 1},
        [(U, 0, 1)],
        [((-1, 0), 0, 1), ((-1, 1), 1, 1), ((-1, 2), 2, 1), ((-2, 0), 1, 1)],
        [(X, 0, 1), (Y, 1, 1), (Z, 2, 1), (W, 0, 1)],
        [(E, 3, -1)],
    )
    return alpha, contraction


def formal_dga(truncation=5):
    """4-dim DGA whose entire transferred structure vanishes.

    Basis x, y, u (deg 1), e (deg 2), cohomologically graded and negated to
    homological degrees; du = e, m2(x, y) = e.  The homology product is zero
    and every higher transferred operation hits m2(u, -) = 0.
    """
    X, Y, U, E = ((-1, 0), (-1, 1), (-1, 2), (-2, 0))
    alpha = encode_dga(
        {-1: 3, -2: 1},
        [(U, 0, 1)],
        {(X, Y): [(E, 1)]},
        truncation,
    )
    contraction = encode_contraction(
        {-1: 3, -2: 1},
        {-1: 2},
        [(U, 0, 1)],
        [((-1, 0), 0, 1), ((-1, 1), 1, 1)],
        [(X, 0, 1), (Y, 1, 1)],
        [(E, 2, -1)],
    )
    return alpha, contraction


def a_infinity_instance(truncation=4):
    """Structure with a genuine arity-3 operation and no product.

    Already given on the desuspended space: two degree-0 classes and one
    degree -1 class survive to homology, one acyclic pair (u, e) is
    contracted away; the arity-3 operation eats three classes and lands on
    the surviving degree -1 class.  Squares vanish for degree reasons.
    """
    big = GradedSpace({0: 3, -1: 2})
    small = GradedSpace({0: 2, -1: 1})
    d = GradedMap(big, big, -1)
    d[0, 2, 1] = 1
    incl = GradedMap(small, big, 0)
    incl[0, 0, 0] = 1
    incl[0, 1, 1] = 1
    incl[-1, 0, 0] = 1
    proj = GradedMap(big, small, 0)
    proj[0, 0, 0] = 1
    proj[0, 1, 1] = 1
    proj[-1, 0, 0] = 1
    h = GradedMap(big, big, 1)
    h[-1, 1, 2] = -1
    contraction = Contraction(big, small, d, incl, proj, h)
    b1 = MultiOp.from_graded_map(d)
    b3 = MultiOp(big, big, 3, -1)
    b3[((0, 0), (0, 1), (0, 0)), (-1, 0)] = 1
    b3[((0, 1), (0, 1), (0, 1)), (-1, 0)] = -2
    alpha = ConvElement(big, big, truncation, -1, {1: b1, 3: b3})
    return alpha, contraction


# -- multicomplex fixtures ---------------------------------------------------------


def bicomplex_tower(truncation=4):
    """Commuting-square bicomplex: x(0); y,z(1); w(2); second differential
    anti-commutes with the first and squares to zero."""
    V = GradedSpace({0: 1, 1: 2, 2: 1})
    d0 = GradedMap(V, V, -1)
    d0[1, 0, 0] = 1
    d0[2, 0, 1] = 1
    d1 = GradedMap(V, V, 1)
    d1[0, 0, 1] = 1
    d1[1, 0, 0] = -1
    return mcx.structure_tower(V, truncation, {0: d0, 1: d1})


def acyclic_tower(truncation=4, scale=3):
    """Acyclic 4-dim complex with a genuinely nonzero compatible d1."""
    V = GradedSpace({0: 1, 1: 2, 2: 1})
    d = GradedMap(V, V, -1)
    d[1, 0, 0] = 1
    d[2, 0, 1] = 1
    d1 = GradedMap(V, V, 1)
    d1[0, 0, 1] = Fraction(scale)
    d1[1, 0, 0] = -Fraction(scale)
    return mcx.structure_tower(V, truncation, {0: d, 1: d1})


def obstructed_tower(truncation=4):
    """Zero differential with d1 nonzero on homology: no trivializer exists."""
    V = GradedSpace({0: 1, 1: 1})
    d1 = GradedMap(V, V, 1)
    d1[0, 0, 0] = 1
    return mcx.structure_tower(V, truncation, {1: d1})


# -- random generators ---------------------------------------------------------------


COEFF_CHOICES = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(-1, 3),
]


def random_labeled_tree(symbols, nvertices, rng):
    label = rng.choice(symbols)
    if nvertices == 1:
        return LabeledTree(label)
    children = []
    remaining = nvertices - 1
    while remaining:
        size = rng.randint(1, remaining)
        children.append(random_labeled_tree(symbols, size, rng))
        remaining -= size
    return LabeledTree(label, children)


def random_tree_series(symbols, order, rng, nterms=4, max_vertices=3, unit=None):
    terms = {}
    for _ in range(nterms):
        t = random_labeled_tree(symbols, rng.randint(1, max_vertices), rng)
        terms[t] = terms.get(t, Fraction(0)) + rng.choice(COEFF_CHOICES)
    u = unit if unit is not None else rng.choice([0, 0, 1, -1])
    return TreeSeries(order, u, terms)


@st.composite
def labeled_trees(draw, nvertices):
    """Hypothesis strategy: a tree on ``nvertices`` vertices labeled x or y."""
    label = draw(st.sampled_from("xy"))
    children, left = [], nvertices - 1
    while left:
        size = draw(st.integers(1, left))
        children.append(draw(labeled_trees(size)))
        left -= size
    return LabeledTree(label, children)


@st.composite
def tree_series(draw, order, unit=0):
    """Hypothesis strategy: one to three trees of at most 3 vertices."""
    terms: dict = {}
    for _ in range(draw(st.integers(1, 3))):
        tree = draw(labeled_trees(draw(st.integers(1, min(order, 3)))))
        terms[tree] = terms.get(tree, 0) + draw(st.sampled_from(COEFF_CHOICES))
    return TreeSeries(order, unit, terms)


def random_multi_op(space, arity, degree, rng, nentries=3):
    op = MultiOp(space, space, arity, degree)
    basis = space.basis()
    candidates = [
        (ins, out)
        for ins in itertools.product(basis, repeat=arity)
        for out in basis
        if out[0] == sum(b[0] for b in ins) + degree
    ]
    rng.shuffle(candidates)
    for ins, out in candidates[:nentries]:
        key = (ins, out)
        op[key[0], key[1]] = op.entries.get(key, 0) + rng.choice(COEFF_CHOICES)
    return op


def random_conv_element(space, truncation, degree, rng, arities=None, nentries=3):
    arities = arities if arities is not None else range(1, truncation + 1)
    comps = {}
    for a in arities:
        op = random_multi_op(space, a, degree, rng, nentries)
        if not op.is_zero():
            comps[a] = op
    return ConvElement(space, space, truncation, degree, comps)


def random_gauge_element(space, truncation, rng, nentries=2):
    return random_conv_element(
        space, truncation, 0, rng, arities=range(2, truncation + 1), nentries=nentries
    )


def random_grouplike(space, truncation, rng, nentries=2):
    return unit_element(space, truncation) + random_gauge_element(
        space, truncation, rng, nentries
    )


def random_contraction(rng, ndeg=2, maxdim=2, npairs=2):
    """Homologically split contraction with random degrees and scalings."""
    hdims = {k: rng.randint(0, maxdim) for k in range(ndeg)}
    dims = dict(hdims)
    pairs = []
    for _ in range(npairs):
        k = rng.randint(-1, ndeg)
        top = dims.get(k, 0)
        bot = dims.get(k - 1, 0)
        pairs.append((k, top, bot, rng.choice([c for c in COEFF_CHOICES if c])))
        dims[k] = top + 1
        dims[k - 1] = bot + 1
    big = GradedSpace(dims)
    small = GradedSpace(hdims)
    d = GradedMap(big, big, -1)
    h = GradedMap(big, big, 1)
    incl = GradedMap(small, big, 0)
    proj = GradedMap(big, small, 0)
    for k, dim in hdims.items():
        for idx in range(dim):
            incl[k, idx, idx] = 1
            proj[k, idx, idx] = 1
    for k, top, bot, coeff in pairs:
        d[k, top, bot] = coeff
        h[k - 1, bot, top] = -1 / coeff
    return Contraction(big, small, d, incl, proj, h)


def random_gauge_tower(space, truncation, rng, nentries=2):
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
            gm[key] = gm.entries.get(key, 0) + rng.choice(COEFF_CHOICES)
        if not gm.is_zero():
            comps[w] = gm
    return mcx.gauge_tower(space, truncation, comps)


# -- independent oracles -----------------------------------------------------------


def oracle_tree_shapes(n):
    """Isomorphism classes of rooted trees with n vertices, as AHU strings,
    by brute force over parent functions p(i) < i on vertices 0..n-1."""
    if n == 1:
        return {"()"}
    shapes = set()
    for parents in itertools.product(*[range(i) for i in range(1, n)]):
        children = [[] for _ in range(n)]
        for child, parent in enumerate(parents, start=1):
            children[parent].append(child)

        def ahu(v):
            return "(" + "".join(sorted(ahu(c) for c in children[v])) + ")"

        shapes.add(ahu(0))
    return shapes


def tree_to_ahu(tree):
    return "(" + "".join(sorted(tree_to_ahu(c) for c in tree.children)) + ")"


def _vertex_labels(forest):
    """The label of each vertex, by the ids of ``forest_structure``: trees
    in canonical order, each in preorder with children in canonical order."""
    labels: list = []

    def visit(tree):
        labels.append(tree.label)
        for child in tree.children:
            visit(child)

    for tree in forest.trees:
        visit(tree)
    return labels


def oracle_automorphisms(forest):
    """All vertex bijections of a forest preserving roots, edges and labels."""
    parents, _children = forest_structure(forest)
    labels = _vertex_labels(forest)
    n = len(parents)
    autos = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for v in range(n):
            pv = parents[v]
            if labels[perm[v]] != labels[v]:
                ok = False
                break
            if pv is None:
                if parents[perm[v]] is not None:
                    ok = False
                    break
            elif parents[perm[v]] != perm[pv]:
                ok = False
                break
        if ok:
            autos.append(perm)
    return autos


def _linear_extensions(parents, children):
    """Every order of the vertices with each child before its parent, in
    lexicographic order."""
    n = len(parents)
    placed = [False] * n
    waiting = [len(children[v]) for v in range(n)]  # unplaced children per vertex
    order: list = []

    def rec():
        if len(order) == n:
            yield tuple(order)
            return
        for v in range(n):
            if not placed[v] and waiting[v] == 0:
                placed[v] = True
                order.append(v)
                p = parents[v]
                if p is not None:
                    waiting[p] -= 1
                yield from rec()
                if p is not None:
                    waiting[p] += 1
                order.pop()
                placed[v] = False

    yield from rec()


def _picture_key(order, parents, children):
    """An isomorphism invariant of a placement: each vertex as its level and
    the sorted pictures of its children."""
    level = {v: i for i, v in enumerate(order)}

    def enc(v):
        return (level[v], tuple(sorted(enc(c) for c in children[v])))

    return tuple(sorted(enc(v) for v in range(len(parents)) if parents[v] is None))


def levelizations_by_extensions(forest):
    """Levelizations by walking every linear extension and keeping the first
    of each picture key: the lexicographically least order of each class."""
    parents, children = forest_structure(forest)
    seen = set()
    out = []
    for order in _linear_extensions(parents, children):
        key = _picture_key(order, parents, children)
        if key not in seen:
            seen.add(key)
            out.append(Levelization(forest, order))
    return out


def level_weight_by_gaps(lev):
    """The weight of a levelization by counting the strands across each gap
    directly: one over the product of the counts."""
    parents, _children = forest_structure(lev.forest)
    n = len(parents)
    level = {v: i + 1 for i, v in enumerate(lev.order)}
    weight = Fraction(1)
    for gap in range(1, n + 1):
        strands = 0
        for v, p in enumerate(parents):
            if p is None:
                if level[v] <= gap:
                    strands += 1
            elif level[v] <= gap < level[p]:
                strands += 1
        weight /= strands
    return weight


def oracle_levelization_orbits(forest):
    """Linear extensions (children before parents) grouped into orbits under
    the explicit automorphism action; independent of the library's keying."""
    parents, children = forest_structure(forest)
    autos = oracle_automorphisms(forest)
    orders = list(_linear_extensions(parents, children))
    seen = set()
    orbits = []
    for order in orders:
        if order in seen:
            continue
        orbit = {tuple(perm[v] for v in order) for perm in autos}
        seen |= orbit
        orbits.append(sorted(orbit)[0])
    return orbits


def dynkin_bch(x: TreeSeries, y: TreeSeries, max_weight: int) -> TreeSeries:
    """Classical Dynkin series for log(e^x e^y) through the given weight,
    written with right-nested brackets; independent of the Magnus route."""
    total = x.zero_like()
    block_choices = [
        (r, s)
        for r in range(max_weight + 1)
        for s in range(max_weight + 1)
        if 1 <= r + s <= max_weight
    ]

    def rec(blocks, letters_used):
        nonlocal total
        if blocks:
            n = len(blocks)
            letters = []
            for r, s in blocks:
                letters += ["x"] * r + ["y"] * s
            word = [x if l == "x" else y for l in letters]
            term = word[-1]
            for element in reversed(word[:-1]):
                term = bracket(element, term)
            denom = letters_used * math.prod(
                math.factorial(r) * math.factorial(s) for r, s in blocks
            )
            total = total + term * Fraction((-1) ** (n - 1), n * denom)
        for r, s in block_choices:
            if letters_used + r + s <= max_weight:
                rec(blocks + [(r, s)], letters_used + r + s)

    rec([], 0)
    return total


# -- series calculus oracles: the routes the weight-graded code replaced --------------


def magnus_by_exp(a):
    """The logarithm inverse to ``exp_series``, found by re-running the whole
    exponential once per weight and correcting the weight-n defect."""
    if not a.weight_component(0).is_zero():
        raise DomainError("logarithm needs a trivial weight-0 component")
    lam = a.zero_like()
    unit = a.unit_like()
    for n in range(1, a.max_weight + 1):
        defect = (a - (calculus.exp_series(lam) - unit)).weight_component(n)
        if not defect.is_zero():
            lam = lam + defect
    return lam


def bch_by_magnus(x: TreeSeries, y: TreeSeries) -> TreeSeries:
    """BCH product  log(exp(x) (o) exp(y))  as one Magnus run on the whole
    circle product, independent of the word table of ``series.bch``."""
    return series.magnus(series.circle(series.exp(x), series.exp(y)) - x.unit_like())


def assoc_log(f):
    """Alternating logarithm  m - m*m/2 + m*m*m/3 - ...  with m = f - unit.

    The logarithm inverse to ``exp_series`` only when the product is
    associative (operator towers)."""
    mu = f - f.unit_like()
    if not mu.weight_component(0).is_zero():
        raise DomainError("logarithm needs unit weight-0 component")
    out = mu.zero_like()
    power = None
    for n in range(1, f.max_weight + 1):
        power = mu if power is None else power.star(mu)
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (n + 1), n)
    return out


def circle_inverse_by_resolve(g, circle):
    """Circle inverse solved from  x (o) g = unit, composing the whole growing
    x with g again at every weight."""
    unit = g.unit_like()
    if not (g.weight_component(0) - unit).is_zero():
        raise DomainError("only group-like elements are circle-invertible")
    x = unit
    for n in range(1, g.max_weight + 1):
        defect = (unit - circle(x, g)).weight_component(n)
        if not defect.is_zero():
            x = x + defect
    return x


def circle_by_braces(a, g):
    """Circle product  a (o) g = sum_n {a; b,..,b} / n!  with g = unit + b."""
    if not (g.weight_component(0) - g.unit_like()).is_zero():
        raise DomainError("right factor of the circle product must be group-like")
    b = g - g.unit_like()
    out = a
    args: list = []
    for n in range(1, a.max_weight + 1):
        args.append(b)
        term = calculus.symmetric_brace(a, args)
        if term.is_zero():
            break
        out = out + term * Fraction(1, math.factorial(n))
    return out


def circle_pointed(a: TreeSeries, g: TreeSeries, c: TreeSeries) -> TreeSeries:
    """One-argument-distinguished circle product sum_n {a; b,..,b, c} / n!."""
    a._check(g)
    a._check(c)
    if g.unit != 1:
        raise DomainError("right factor of the circle product must have unit part 1")
    b = g - g.unit_like()
    out = a.zero_like()
    args = [c]
    for n in range(0, a.max_weight + 1):
        term = calculus.symmetric_brace(a, args)
        out = out + term * Fraction(1, math.factorial(n))
        if b.is_zero():
            break
        args = [b] + args
    return out


def _graft_pair(s: LabeledTree, t: LabeledTree):
    out = [LabeledTree(s.label, s.children + (t,))]
    for i, child in enumerate(s.children):
        for grafted in _graft_pair(child, t):
            out.append(
                LabeledTree(s.label, s.children[:i] + (grafted,) + s.children[i + 1 :])
            )
    return out


def graft_by_pairs(s: TreeSeries, t: TreeSeries) -> TreeSeries:
    """Grafting with every pair of trees grafted from scratch, no shared work."""
    s._check(t)
    result = t * s.unit
    for sigma, cs in s.terms.items():
        for tau, ct in t.terms.items():
            if UNIT in (sigma, tau) or sigma.nvertices + tau.nvertices > s.order:
                continue
            for tree in _graft_pair(sigma, tau):
                add_into(result.terms, tree, cs * ct)
    return result


def solve_sparse_by_scan(rows, rhs, nvars):
    """Gaussian elimination that scans every unused row for each pivot:
    variables in increasing order, each on the first unused row holding it.
    ``linalg.solve_sparse`` keeps the rows independent of the rows before
    them instead, and its docstring says why the results are the same."""
    work = [(dict(r), Fraction(v)) for r, v in zip(rows, rhs)]
    pivots = []
    used = [False] * len(work)
    for var in range(nvars):
        pick = None
        for i, (row, _val) in enumerate(work):
            if not used[i] and row.get(var):
                pick = i
                break
        if pick is None:
            continue
        used[pick] = True
        row, val = work[pick]
        inv = 1 / row[var]
        row = {k: c * inv for k, c in row.items()}
        val = val * inv
        pivots.append((var, row, val))
        for i, (other, oval) in enumerate(work):
            if used[i] or not other.get(var):
                continue
            factor = other[var]
            for k, c in row.items():
                new = other.get(k, 0) - factor * c
                if new:
                    other[k] = new
                else:
                    other.pop(k, None)
            work[i] = (other, oval - factor * val)
    consistent = all(used[i] or not val for i, (_row, val) in enumerate(work))
    solution = [Fraction(0)] * nvars
    for var, row, val in reversed(pivots):
        solution[var] = val - sum(c * solution[k] for k, c in row.items() if k != var)
    return consistent, solution


# -- the stage-wise trivializer: the greedy linear solve the twist replaced -----


def solve_stage(unknowns, rows_by_target, rhs_entries):
    """Solve one stage  L(x) = rhs  of a stage-wise trivializer search.

    ``unknowns`` lists the entry keys of the unknown map, ``rows_by_target``
    maps each target key to its row ``{unknown index: coeff}`` of the matrix
    of L, and ``rhs_entries`` is the right-hand side by target key.  Rows
    are ordered by target key and solved by :func:`solve_sparse`.  Returns
    ``(ok, entries, residual)``: the solution as a dict ``unknown key ->
    non-zero value`` and, when the system is inconsistent, the non-zero part
    of ``rhs - L(x)`` by target key, computed from the same rows.
    """
    targets = sorted(set(rows_by_target) | set(rhs_entries))
    rows = [rows_by_target.get(t, {}) for t in targets]
    rhs = [rhs_entries.get(t, Fraction(0)) for t in targets]
    ok, solution = solve_sparse(rows, rhs, len(unknowns))
    entries = {key: x for key, x in zip(unknowns, solution) if x}
    residual = {}
    if not ok:
        for t, row, b in zip(targets, rows, rhs):
            put(residual, t, b - sum(c * solution[var] for var, c in row.items()))
    return ok, entries, residual


def stage_rows(space, arity, degree, d):
    """Unknowns and matrix rows of  x -> sum_j x o_j d - d o x  on the maps
    space^{tensor arity} -> space of degree ``degree``, for a ``GradedMap`` d.

    The unknowns are the entry keys ``(inputs, output)``: inputs in basis
    order, then each output of degree sum(input degrees) + ``degree`` in
    basis order.  Row ``t`` maps an unknown's index to the coefficient of
    target entry ``t`` in the image of that unit map.  Inserting d into slot
    j costs (-1)^(|d| * (sum of the degrees of the inputs before j)); at
    arity 1 no input comes first and the image is the commutator x d - d x.
    Every row entry is read off one entry of d through its preimage and
    image tables, built once per call.
    """
    odd = d.degree % 2
    preimage = {}  # basis vector b -> [(a, c)] for the entries d(a) = c b + ...
    image = {}  # basis vector a -> [(b, c)] for the same entries
    for (sdeg, sidx, tidx), c in d.entries.items():
        a, b = (sdeg, sidx), (sdeg + d.degree, tidx)
        preimage.setdefault(b, []).append((a, c))
        image.setdefault(a, []).append((b, c))
    basis = space.basis()
    by_degree = {}
    for b in basis:
        by_degree.setdefault(b[0], []).append(b)
    unknowns = []
    rows: dict = {}
    for ins in itertools.product(basis, repeat=arity):
        outs = by_degree.get(sum(b[0] for b in ins) + degree)
        if not outs:
            continue
        slot_terms = []  # (inputs of the target, coeff) of  sum_j e o_j d
        parity = 0
        for j, b in enumerate(ins):
            for a, c in preimage.get(b, ()):
                slot_terms.append((ins[:j] + (a,) + ins[j + 1:], -c if odd and parity else c))
            parity ^= b[0] & 1
        for out in outs:
            var = len(unknowns)
            unknowns.append((ins, out))
            for tins, c in slot_terms:
                add_into(rows.setdefault((tins, out), {}), var, c)
            for b, c in image.get(out, ()):
                add_into(rows.setdefault((ins, b), {}), var, -c)
    return unknowns, rows


def arity_one(gmap: GradedMap) -> dict:
    """The entries ``(s, i, t)`` of a graded map keyed as the arity-1 entries
    ``(((s, i),), (s + degree, t))`` of :func:`stage_rows`."""
    return {(((s, i),), (s + gmap.degree, t)): c for (s, i, t), c in gmap.entries.items()}


def tower_keys(entries: dict) -> dict:
    """Arity-1 entries ``(((s, i),), (_, t))`` keyed back as ``(s, i, t)``."""
    return {(s, i, t): c for (((s, i),), (_, t)), c in entries.items()}


def space_and_differential(alpha):
    """The space of a convolution element or an operator tower, and its
    differential (the arity-1 or the weight-0 part) as a ``GradedMap``."""
    if isinstance(alpha, mcx.OperatorTower):
        return alpha.space, alpha.component(0)
    space, d_op = alpha.source, alpha.component(1)
    return space, GradedMap(space, space, d_op.degree,
                            {(*a, b[1]): c for ((a,), b), c in d_op.entries.items()})


def homotopy_and_pullback(alpha):
    """The homotopy h of :func:`linalg.contraction_of` as a weight-0
    element, and the pullback h^* along it, as ``find_trivializer`` and
    ``multicomplex.trivialize`` pass them to ``calculus.trivialize``."""
    space, d = space_and_differential(alpha)
    c = contraction_of(space, d)
    if isinstance(alpha, mcx.OperatorTower):
        h = mcx.OperatorTower(space, alpha.truncation, 1, {0: c.h})
        return h, lambda y: y.star(h) * -1
    return element_from_map(c.h, alpha.truncation), lambda y: h_star(y, c)


def twist_residual(alpha, h, pullback):
    """(G * alpha) (o) G^{-1} - delta, for the two gauges G = Psi (o) Phi^{-1}
    of a contraction of delta onto its homology: Phi^{-1} = 1 - h * abar,
    and Psi the ``psi_series`` of alpha-hat - delta, with
    alpha-hat = (Phi^{-1} * alpha) (o) Phi.  The full twist: it is zero
    exactly when alpha is gauge trivial.  ``calculus.trivialize`` reads the
    same element off the transferred structure, as (alpha-hat - delta) (o) pi.
    """
    delta = alpha.weight_component(0)
    unit = alpha.unit_like()
    phi_inv = unit - h.star(alpha - delta)
    hat = phi_inv.star(alpha).circle(calculus.circle_inverse(phi_inv))
    g = calculus.psi_series(hat - delta, pullback).circle(phi_inv)
    return g.star(alpha).circle(calculus.circle_inverse(g)) - delta


def trivialize_by_stages(alpha) -> calculus.Trivialization:
    """Solve  f * delta = alpha (o) f  for f = 1 + f_1 + ... one weight at a
    time, for a convolution element or an operator tower.

    With f = f_(<n), the weight-n part of  alpha (o) f - f * delta  is the
    right-hand side of a linear equation in f_n, whose matrix
    :func:`stage_rows` reads off d (a tower's stage is the arity-1 case at
    degree 2n); a zero one is solved by f_n = 0.  Earlier stages are fixed
    greedily, so a stage without solution ends the search with its
    unmatched part as the residual, but proves nothing on its own.
    """
    delta = alpha.weight_component(0)
    space, d = space_and_differential(alpha)
    if isinstance(alpha, mcx.OperatorTower):
        def solve(n, rhs):
            ok, entries, residual = solve_stage(*stage_rows(space, 1, 2 * n, d), arity_one(rhs))
            return ok, tower_keys(entries), tower_keys(residual)
    else:
        def solve(n, rhs):
            return solve_stage(*stage_rows(space, n, 0, d), rhs.entries)
    f = alpha.unit_like()
    for n in range(1, alpha.max_weight + 1):
        rhs = (alpha.circle(f) - f.star(delta)).weight_component(n)
        if rhs.is_zero():
            continue
        ((stage, want),) = rhs.components.items()
        ok, entries, residual = solve(stage, want)
        if not ok:
            return calculus.Trivialization(False, stage=stage, residual=want._like(residual))
        f_n = f.component(stage)._like(entries)  # f has no component at stage yet
        f = f + f._like({stage: f_n})
    return calculus.Trivialization(True, f=f, log=calculus.magnus_series(f - f.unit_like()))


def compose_at(f: MultiOp, g: MultiOp, j: int) -> MultiOp:
    """Partial composition: plug g into the j-th input slot of f (1-based).

    Koszul rule: moving the degree-|g| map past the first j-1 inputs costs
    (-1)^(|g| * (sum of their degrees)).
    """
    if not 1 <= j <= f.arity:
        raise BoundsError(f"insertion position {j} not in 1..{f.arity}")
    if g.target != f.source:
        raise ShapeError("inner operation does not land in the outer source")
    out = MultiOp(
        g.source if f.arity == 1 else f.source,
        f.target,
        f.arity + g.arity - 1,
        f.degree + g.degree,
    )
    if f.arity > 1 and g.source != f.source:
        raise ShapeError("mixed-space insertion needs an arity-1 outer map")
    by_output: dict = {}
    for (gins, gout), gc in g.entries.items():
        by_output.setdefault(gout, []).append((gins, gc))
    odd = g.degree % 2
    for (fins, fout), fc in f.entries.items():
        sign = -1 if odd and sum(b[0] for b in fins[: j - 1]) % 2 else 1
        for gins, gc in by_output.get(fins[j - 1], ()):
            add_into(out.entries, (fins[: j - 1] + gins + fins[j:], fout), sign * fc * gc)
    return out


def stage_operator(fn, d_op):
    """sum_j fn o_j d  -  d o fn: the map each ``find_trivializer`` stage
    solves, applied to one operation by partial compositions."""
    acc = compose_at(d_op, fn, 1) * -1
    for j in range(1, fn.arity + 1):
        acc = acc + compose_at(fn, d_op, j)
    return acc


def commutator(fn, d):
    """fn d - d fn: the map each multicomplex ``trivialize`` stage solves."""
    return fn.compose(d) - d.compose(fn)


# -- convolution product oracles: the routes the one-pass products replaced -----------


def star_by_slots(f: ConvElement, g: ConvElement) -> ConvElement:
    """Insertion product as the sum of f_k o_j g_l over arities and slots,
    one :func:`compose_at` call each."""
    out = ConvElement(f.source, f.target, f.truncation, f.degree + g.degree)
    for k, fk in f.components.items():
        for l, gl in g.components.items():
            if k + l - 1 > f.truncation:
                continue
            for j in range(1, k + 1):
                add_into(out.components, k + l - 1, compose_at(fk, gl, j))
    return out


def _compose_tensor(f: MultiOp, factors) -> MultiOp:
    """Full composite  f o (g_1 x ... x g_k)  with Koszul signs.

    ``factors`` has length f.arity; factor m picks up the sign
    (-1)^(|g_m| * (sum of raw input degrees of the blocks before it)).
    """
    if len(factors) != f.arity:
        raise ShapeError("need one factor per input slot")
    source = factors[0].source
    for g in factors:
        if g.source != source:
            raise ShapeError("tensor factors start on different spaces")
        if g.target != f.source:
            raise ShapeError("tensor factors do not land in the outer source")
    out = MultiOp(
        source,
        f.target,
        sum(g.arity for g in factors),
        f.degree + sum(g.degree for g in factors),
    )
    by_output = []
    for g in factors:
        table: dict = {}
        for (gins, gout), gc in g.entries.items():
            table.setdefault(gout, []).append((gins, gc))
        by_output.append(table)

    def expand(slot, ins_acc, coeff, parity):
        if slot == f.arity:
            add_into(out.entries, (ins_acc, current_out), coeff)
            return
        for gins, gc in by_output[slot].get(current_ins[slot], ()):
            sign = -1 if (factors[slot].degree % 2) and parity % 2 else 1
            expand(
                slot + 1,
                ins_acc + gins,
                coeff * gc * sign,
                parity + sum(b[0] for b in gins),
            )

    for (fins, fout), fc in f.entries.items():
        current_ins = fins
        current_out = fout
        expand(0, (), fc, 0)
    return out


def _compositions(k: int, total_max: int):
    """All tuples (i_1..i_k) of positive integers with sum <= total_max."""
    if k == 1:
        return [(i,) for i in range(1, total_max + 1)]
    out = []
    for first in range(1, total_max - k + 2):
        for rest in _compositions(k - 1, total_max - first):
            out.append((first,) + rest)
    return out


def circle_by_splits(f: ConvElement, g: ConvElement) -> ConvElement:
    """Circle product as a sum over every composition (i_1..i_k) of each
    arity: one full composite  f_k o (g_{i_1} x .. x g_{i_k})  per split,
    with the Koszul signs of a general tensor of maps."""
    out = ConvElement(g.source, f.target, f.truncation, f.degree + g.degree)
    for k, fk in f.components.items():
        for split in _compositions(k, f.truncation):
            factors = [g.components.get(i) for i in split]
            if any(op is None for op in factors):
                continue
            term = _compose_tensor(fk, factors)
            add_into(out.components, term.arity, term)
    return out


# -- homotopy transfer oracles -------------------------------------------------------


def tensor_identity(space: GradedSpace, arity: int):
    out = TensorOperator(space, arity, 0)
    for ins in itertools.product(space.basis(), repeat=arity):
        out.add_entry(ins, ins, Fraction(1))
    return out


def tensor(a: TensorOperator, b: TensorOperator) -> TensorOperator:
    """Tensor product  a x b  with the Koszul sign of b passing a's inputs."""
    if a.space != b.space:
        raise ShapeError("tensor factors live on different spaces")
    out = TensorOperator(a.space, a.arity + b.arity, a.degree + b.degree)
    odd = b.degree % 2
    for (ins1, outs1), c1 in a.entries.items():
        sign = -1 if odd and sum(x[0] for x in ins1) % 2 else 1
        for (ins2, outs2), c2 in b.entries.items():
            out.add_entry(ins1 + ins2, outs1 + outs2, c1 * c2 * sign)
    return out


def tensor_from_factors(factors, coefficient=Fraction(1)):
    """Operator  f_1 x ... x f_n  from graded maps, with Koszul signs.

    Factor m picks up (-1)^(|f_m| * (degrees of inputs before it)).
    """
    space = factors[0].source
    out = TensorOperator(space, len(factors), sum(f.degree for f in factors))
    columns = [{b: images for b in space.basis() if (images := f.apply(b))} for f in factors]

    def expand(pos, ins, outs, coeff, parity):
        if pos == len(factors):
            out.add_entry(ins, outs, coeff * coefficient)
            return
        sign = -1 if factors[pos].degree % 2 and parity % 2 else 1
        for b, images in columns[pos].items():
            for out_b, c in images:
                expand(pos + 1, ins + (b,), outs + (out_b,), coeff * c * sign, parity + b[0])

    expand(0, (), (), Fraction(1), 0)
    return out


@functools.lru_cache(maxsize=64)
def sym_homotopy(c: Contraction, n: int):
    """Symmetrized homotopy h_n of degree +1 on the n-th tensor power, built
    entry by entry: h on one slot, the projector pi on a subset P of the
    others and the identity elsewhere, weighted by |P|! (n-1-|P|)! / n!.
    Cached per contraction object; callers must not modify the result."""
    ident = GradedMap.identity(c.big)
    out = TensorOperator(c.big, n, 1)
    for hpos in range(n):
        rest = [q for q in range(n) if q != hpos]
        for r in range(n):
            for pset in itertools.combinations(rest, r):
                factors = [c.h if q == hpos else c.pi if q in pset else ident for q in range(n)]
                weight = Fraction(math.factorial(n - 1 - r) * math.factorial(r), math.factorial(n))
                out._iadd(tensor_from_factors(factors, weight))
    return out


def h_star_by_sym_homotopy(y: ConvElement, c: Contraction) -> ConvElement:
    """(-1)^{|y|} y_n o h_n through the materialized h_n of :func:`sym_homotopy`."""
    sign = -1 if y.degree % 2 else 1
    out = ConvElement(y.source, y.target, y.truncation, y.degree + 1)
    for n, op in y.components.items():
        composed = MultiOp(y.source, y.target, n, op.degree + 1)
        by_mid = {}
        for (ins, mid), c1 in sym_homotopy(c, n).entries.items():
            by_mid.setdefault(mid, []).append((ins, c1))
        for (mid, out_b), c2 in op.entries.items():
            for ins, c1 in by_mid.get(mid, ()):
                key = (ins, out_b)
                composed[key[0], key[1]] = composed.entries.get(key, 0) + sign * c1 * c2
        if not composed.is_zero():
            out.components[n] = composed
    return out


def phi_kernel_by_fixed_point(alpha, c):
    """Phi solved weight by weight from  Phi = 1 + (h abar) (o) Phi, composing
    h abar with the whole current Phi at every weight."""
    habar = h_push(_abar(alpha, c), c)
    phi = unit_element(alpha.source, alpha.truncation)
    for n in range(1, phi.max_weight + 1):
        phi = phi + circle(habar, phi).weight_component(n)
    return phi


def tree_sum(mu, unit):
    """``unit`` plus the sum over unlabeled rooted trees t of t(mu) / |Aut t|,
    up to the truncation of ``unit``."""
    out = unit
    for n in range(1, unit.max_weight + 1):
        for shape in enumerate_trees(n, max_vertices=unit.max_weight):
            out = out + eval_tree(shape, {"*": mu}) * Fraction(1, aut_order(shape))
    return out


def grouplike_inverse_by_trees(g: TreeSeries) -> TreeSeries:
    """Closed form  (1 - mu)^{(o) -1} = sum over rooted trees of t(mu) / |Aut t|."""
    unit = g.unit_like()
    return tree_sum(unit - g, unit)


def phi_kernel_by_trees(alpha, c):
    """Closed form  Phi = sum over rooted trees of t(h abar) / |Aut t|."""
    habar = h_push(_abar(alpha, c), c)
    return tree_sum(habar, unit_element(alpha.source, alpha.truncation))


def _r_operator(x: ConvElement, abar: ConvElement, c: Contraction) -> ConvElement:
    """R(x) = -h^*(x * abar), one step of the Psi kernel."""
    return h_star(star(x, abar), c) * -1


def tech_r_check(alpha, c, xs=None) -> bool:
    """Exact check of the two rewriting identities behind the kernels:

    (1)  (Psi * abar) (o) pi  ==  (abar (o) Phi) (o) pi
    (2)  sum_k R^k(x (o) pi)  ==  x (o) pi (o) Psi   for morphism-kind x,

    with  R(x) = -h^*(x * abar).
    """
    abar = _abar(alpha, c)
    phi = phi_kernel(alpha, c)
    psi = _psi(abar, c)
    pi_elt = element_from_map(c.pi, alpha.truncation)
    lhs = circle(star(psi, abar), pi_elt)
    rhs = circle(circle(abar, phi), pi_elt)
    if lhs != rhs:
        return False
    if xs is None:
        habar = h_push(abar, c)
        xs = [unit_element(alpha.source, alpha.truncation), phi, psi,
              unit_element(alpha.source, alpha.truncation) + habar]
    for x in xs:
        if x.degree != 0:
            raise DomainError("tech_r_check probes must be morphism-kind")
        seed = circle(x, pi_elt)
        total = seed
        term = seed
        for _ in range(alpha.truncation):
            term = _r_operator(term, abar, c)
            if term.is_zero():
                break
            total = total + term
        if total != circle(seed, psi):
            return False
    return True


def binomial_identities_check(bound: int) -> bool:
    """Exhaustively verify the two binomial identities used by the homotopy
    symmetrization lemma, for all parameters up to ``bound``:

        C(a+b+c+1, a+b+1) = sum_{i+j=c} C(a+i, a) C(b+j, b)
        C(a+b+c+d+2, a+b+1) = sum_{i+j=b} C(a+c+i+1, c) C(j+d, d)
                            + sum_{i+j=d} C(a+c+i+1, a) C(j+b, b)
    """
    rng = range(bound + 1)
    for a, b, cc in itertools.product(rng, repeat=3):
        lhs = math.comb(a + b + cc + 1, a + b + 1)
        rhs = sum(math.comb(a + i, a) * math.comb(b + (cc - i), b) for i in range(cc + 1))
        if lhs != rhs:
            return False
    for a, b, cc, d in itertools.product(rng, repeat=4):
        lhs = math.comb(a + b + cc + d + 2, a + b + 1)
        rhs = sum(
            math.comb(a + cc + i + 1, cc) * math.comb((b - i) + d, d) for i in range(b + 1)
        ) + sum(
            math.comb(a + cc + i + 1, a) * math.comb((d - i) + b, b) for i in range(d + 1)
        )
        if lhs != rhs:
            return False
    return True
