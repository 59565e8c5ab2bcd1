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

import itertools
import math
from fractions import Fraction

from prelie.ainf import Contraction, ConvElement, MultiOp
from prelie.linalg import GradedMap, GradedSpace
from prelie.series import LabeledTree, TreeSeries, bracket
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
    from prelie.ainf import unit_element

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


def oracle_automorphisms(forest):
    """All vertex bijections of a forest preserving roots and edges."""
    from prelie.trees import forest_structure

    parents, _children = forest_structure(forest)
    n = len(parents)
    autos = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for v in range(n):
            pv = parents[v]
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


def oracle_levelization_orbits(forest):
    """Linear extensions (children before parents) grouped into orbits under
    the explicit automorphism action; independent of the library's keying."""
    from prelie.trees import forest_structure, _linear_extensions

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


def solve_sparse_by_scan(rows, rhs, nvars):
    """Gaussian elimination that scans every unused row for each pivot:
    the same pivot rule as ``linalg.solve_sparse`` (increasing variable,
    first usable row), without its column index."""
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


def stage_operator(fn, d_op):
    """sum_j fn o_j d  -  d o fn: the map each ``find_trivializer`` stage
    solves, applied to one operation by partial compositions."""
    from prelie.ainf import compose_at

    acc = compose_at(d_op, fn, 1) * -1
    for j in range(1, fn.arity + 1):
        acc = acc + compose_at(fn, d_op, j)
    return acc


def commutator(fn, d):
    """fn d - d fn: the map each multicomplex ``trivialize`` stage solves."""
    return fn.compose(d) - d.compose(fn)
