"""Homotopy transfer along a contraction, driven by two gauge kernels.

Given a contraction (i, p, h) of a graded space onto a smaller one and a
Maurer-Cartan element alpha = delta + abar, two group-like elements are
computed as fixed points:

    Phi = 1 + (h abar) (o) Phi          (restricts outputs to i(H))
    Psi = 1 - h^*(Psi * abar)           (restricts inputs to i(H))

where h^* precomposes the arity-n part with the symmetrized homotopy h_n.
Their gauge actions produce the twisted structures alpha-hat and
alpha-check, and the transferred structure, extended inclusion, and
extended projection are

    beta = delta_H + p (abar (o) Phi) i,   i_inf = Phi (o) i,   p_inf = p (o) Psi.

``transfer`` verifies the defining identities exactly and reports them by
name.  ``is_gauge_trivial`` decides triviality through the transferred
structure; ``find_trivializer`` is the constructive stage-wise companion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .. import calculus
from ..errors import BoundsError, DomainError, InternalCheckError, ShapeError, ValidationError
from ..combination import Combination, add_into
from ..linalg import GradedMap, GradedSpace, solve_stage
from ..trees import aut_order, enumerate_trees
from .convolution import (
    ConvElement,
    MultiOp,
    circle,
    circle_inverse,
    element_from_map,
    inf_morphism_check,
    mc_check,
    star,
    unit_element,
)


class Contraction:
    """A homotopy retract (i, p, h) of ``big`` onto ``small`` with side conditions.

    ``d`` is the differential of the big space (degree -1); the five defining
    identities

        p i = id,   i p - id = d h + h d,   h h = 0,   p h = 0,   h i = 0

    are validated exactly at construction, as is d^2 = 0.  The induced
    differential on the small space is ``p d i``.
    """

    __slots__ = ("big", "small", "d", "incl", "proj", "h", "_hn_cache")

    def __init__(self, big, small, d, incl, proj, h):
        self.big = big
        self.small = small
        self.d = d
        self.incl = incl
        self.proj = proj
        self.h = h
        self._hn_cache = {}
        self._validate()

    def _validate(self):
        shapes = [
            (self.d, self.big, self.big, -1, "d"),
            (self.incl, self.small, self.big, 0, "i"),
            (self.proj, self.big, self.small, 0, "p"),
            (self.h, self.big, self.big, 1, "h"),
        ]
        for gmap, source, target, degree, name in shapes:
            if gmap.source != source or gmap.target != target or gmap.degree != degree:
                raise ValidationError(f"contraction map {name} has the wrong shape")
        checks = [
            ("d d = 0", self.d.compose(self.d).is_zero()),
            ("p i = id", self.proj.compose(self.incl) == GradedMap.identity(self.small)),
            (
                "i p - id = d h + h d",
                self.incl.compose(self.proj) - GradedMap.identity(self.big)
                == self.d.compose(self.h) + self.h.compose(self.d),
            ),
            ("h h = 0", self.h.compose(self.h).is_zero()),
            ("p h = 0", self.proj.compose(self.h).is_zero()),
            ("h i = 0", self.h.compose(self.incl).is_zero()),
        ]
        for name, ok in checks:
            if not ok:
                raise ValidationError(f"contraction violates {name}")

    @property
    def pi(self) -> GradedMap:
        """The projector i p onto the image of the small space."""
        return self.incl.compose(self.proj)

    @property
    def d_small(self) -> GradedMap:
        return self.proj.compose(self.d).compose(self.incl)

    def sym_homotopy(self, n: int) -> "TensorOperator":
        """Cached symmetrized homotopy h_n on the n-th tensor power."""
        if n not in self._hn_cache:
            self._hn_cache[n] = sym_homotopy(self, n)
        return self._hn_cache[n]


class TensorOperator(Combination):
    """Sparse linear operator on a tensor power of a graded space."""

    __slots__ = ("space", "arity", "degree", "entries")
    _shape = ("space", "arity", "degree")
    _store = "entries"

    def __init__(self, space, arity, degree, entries=None):
        if arity < 1:
            raise BoundsError("arity must be >= 1")
        self.space = space
        self.arity = arity
        self.degree = degree
        self.entries = dict(entries) if entries else {}

    def add_entry(self, ins, outs, coeff):
        add_into(self.entries, (tuple(ins), tuple(outs)), coeff)

    def compose(self, other: "TensorOperator") -> "TensorOperator":
        """self after other (plain composition, no extra signs)."""
        if self.space != other.space or self.arity != other.arity:
            raise ShapeError("tensor operators have different shapes")
        out = TensorOperator(self.space, self.arity, self.degree + other.degree)
        by_output: dict = {}
        for (ins, mids), coeff in other.entries.items():
            by_output.setdefault(mids, []).append((ins, coeff))
        for (mids, outs), c2 in self.entries.items():
            for ins, c1 in by_output.get(mids, ()):
                out.add_entry(ins, outs, c1 * c2)
        return out

    def tensor(self, other: "TensorOperator") -> "TensorOperator":
        """Tensor product with the Koszul sign of ``other`` passing self's inputs."""
        if self.space != other.space:
            raise ShapeError("tensor factors live on different spaces")
        out = TensorOperator(
            self.space, self.arity + other.arity, self.degree + other.degree
        )
        odd = other.degree % 2
        for (ins1, outs1), c1 in self.entries.items():
            sign = -1 if odd and sum(b[0] for b in ins1) % 2 else 1
            for (ins2, outs2), c2 in other.entries.items():
                out.add_entry(ins1 + ins2, outs1 + outs2, c1 * c2 * sign)
        return out


def tensor_identity(space: GradedSpace, arity: int) -> TensorOperator:
    out = TensorOperator(space, arity, 0)
    for ins in itertools.product(space.basis(), repeat=arity):
        out.add_entry(ins, ins, Fraction(1))
    return out


def tensor_from_factors(factors, coefficient=Fraction(1)) -> TensorOperator:
    """Operator  f_1 x ... x f_n  from graded maps, with Koszul signs.

    Factor m picks up (-1)^(|f_m| * (degrees of inputs before it)).
    """
    space = factors[0].source
    out = TensorOperator(space, len(factors), sum(f.degree for f in factors))

    columns = []
    for f in factors:
        col: dict = {}
        for b in space.basis():
            images = f.apply(b)
            if images:
                col[b] = images
        columns.append(col)

    def expand(pos, ins, outs, coeff, parity):
        if pos == len(factors):
            out.add_entry(ins, outs, coeff * coefficient)
            return
        f = factors[pos]
        odd = f.degree % 2
        for b, images in columns[pos].items():
            sign = -1 if odd and parity % 2 else 1
            for out_b, c in images:
                expand(
                    pos + 1,
                    ins + (b,),
                    outs + (out_b,),
                    coeff * c * sign,
                    parity + b[0],
                )

    expand(0, (), (), Fraction(1), 0)
    return out


def sym_homotopy(c: Contraction, n: int) -> TensorOperator:
    """Symmetrized homotopy h_n of degree +1 on the n-th tensor power.

    h_n places h on one slot, the projector pi on a subset of the others and
    the identity elsewhere, weighted by |I|! |P|! / n! over all placements;
    this closed form is the average over the symmetric group of the staircase
    operators id^(k-1) x h x pi^(n-k).
    """
    if n < 1:
        raise BoundsError("arity must be >= 1")
    space = c.big
    ident = GradedMap.identity(space)
    pi = c.pi
    out = TensorOperator(space, n, 1)
    positions = list(range(n))
    for hpos in positions:
        rest = [q for q in positions if q != hpos]
        for r in range(len(rest) + 1):
            for pset in itertools.combinations(rest, r):
                factors = []
                for q in positions:
                    if q == hpos:
                        factors.append(c.h)
                    elif q in pset:
                        factors.append(pi)
                    else:
                        factors.append(ident)
                weight = Fraction(
                    math.factorial(n - 1 - r) * math.factorial(r), math.factorial(n)
                )
                out._iadd(tensor_from_factors(factors, weight))
    return out


def h_star(y: ConvElement, c: Contraction) -> ConvElement:
    """Graded pullback along the symmetrized homotopies:
    (h^* y)_n = (-1)^{|y|} y_n o h_n.

    The Koszul sign of the degree-1 operator passing y is what makes the
    twisted-structure identities come out right; it is pinned down exactly
    by the identity suite (gauge-twist formulas and transfer theorems).
    """
    sign = -1 if y.degree % 2 else 1
    out = ConvElement(y.source, y.target, y.truncation, y.degree + 1)
    for n, op in y.components.items():
        hn = c.sym_homotopy(n)
        composed = MultiOp(y.source, y.target, n, op.degree + 1)
        by_mid: dict = {}
        for (ins, outs), coeff in hn.entries.items():
            by_mid.setdefault(outs, []).append((ins, coeff))
        for (mid, out_b), c2 in op.entries.items():
            for ins, c1 in by_mid.get(mid, ()):
                add_into(composed.entries, (ins, out_b), sign * c1 * c2)
        if not composed.is_zero():
            out.components[n] = composed
    return out


def _require_mc(alpha: ConvElement) -> None:
    report = mc_check(alpha)
    if not report.ok:
        raise DomainError(
            f"expected a Maurer-Cartan element; square is nonzero at arity {report.stage}"
        )


def _abar(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Split off the differential of a Maurer-Cartan structure; insists the
    structure is Maurer-Cartan and that its differential is the contraction's d."""
    _require_mc(alpha)
    if alpha.component(1) != MultiOp.from_graded_map(c.d):
        raise ValidationError(
            "the arity-1 part of the structure differs from the contraction's d"
        )
    out = alpha.zero_like()
    out.components = {a: op for a, op in alpha.components.items() if a >= 2}
    return out


def h_push(abar: ConvElement, c: Contraction) -> ConvElement:
    """Postcompose every component with h (insertion by the arity-1 element h)."""
    return star(element_from_map(c.h, abar.truncation), abar)


def _phi(abar: ConvElement, c: Contraction) -> ConvElement:
    habar = h_push(abar, c)
    phi = unit_element(abar.source, abar.truncation)
    for n in range(1, phi.max_weight + 1):
        phi = phi + circle(habar, phi).weight_component(n)
    return phi


def _psi(abar: ConvElement, c: Contraction) -> ConvElement:
    psi = unit_element(abar.source, abar.truncation)
    term = psi
    for _ in range(psi.max_weight):
        term = _r_operator(term, abar, c)
        if term.is_zero():
            break
        psi = psi + term
    return psi


def _hat(alpha: ConvElement, phi: ConvElement) -> ConvElement:
    return circle(star(circle_inverse(phi), alpha), phi)


def _check(alpha: ConvElement, psi: ConvElement) -> ConvElement:
    return circle(star(psi, alpha), circle_inverse(psi))


def phi_kernel(alpha: ConvElement, c: Contraction) -> ConvElement:
    """The output-restricting kernel: fixed point of Phi = 1 + (h abar) (o) Phi."""
    return _phi(_abar(alpha, c), c)


def phi_kernel_by_inverse(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Closed form  Phi = (1 - h abar)^{(o) -1}  (cross-check route)."""
    habar = h_push(_abar(alpha, c), c)
    return circle_inverse(unit_element(alpha.source, alpha.truncation) - habar)


def phi_kernel_by_trees(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Closed form  Phi = sum over rooted trees of t(h abar) / |Aut t|."""
    habar = h_push(_abar(alpha, c), c)
    phi = unit_element(alpha.source, alpha.truncation)
    for n in range(1, phi.max_weight + 1):
        for shape in enumerate_trees(n, max_vertices=phi.max_weight):
            phi = phi + calculus.tree_monomial(shape, habar) * Fraction(1, aut_order(shape))
    return phi


def psi_kernel(alpha: ConvElement, c: Contraction) -> ConvElement:
    """The input-restricting kernel  Psi = 1 + R(1) + R^2(1) + ...

    with  R(x) = -h^*(x * abar);  each application raises the weight, so the
    sum is finite per arity.
    """
    return _psi(_abar(alpha, c), c)


def _r_operator(x: ConvElement, abar: ConvElement, c: Contraction) -> ConvElement:
    return h_star(star(x, abar), c) * -1


def alpha_hat(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Gauge twist  (Phi^{-1} * alpha) (o) Phi ; outputs land in i(H)."""
    return _hat(alpha, phi_kernel(alpha, c))


def alpha_check(alpha: ConvElement, c: Contraction) -> ConvElement:
    """Gauge twist  (Psi * alpha) (o) Psi^{-1} ; inputs factor through i(H)."""
    return _check(alpha, psi_kernel(alpha, c))


def tech_r_check(alpha: ConvElement, c: Contraction, xs=None) -> bool:
    """Exact check of the two rewriting identities behind the kernels:

    (1)  (Psi * abar) (o) pi  ==  (abar (o) Phi) (o) pi
    (2)  sum_k R^k(x (o) pi)  ==  x (o) pi (o) Psi   for morphism-kind x.
    """
    abar = _abar(alpha, c)
    phi = _phi(abar, c)
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
    if bound < 1:
        raise BoundsError("bound must be >= 1")
    rng = range(bound + 1)
    for a in rng:
        for b in rng:
            for cc in rng:
                lhs = math.comb(a + b + cc + 1, a + b + 1)
                rhs = sum(
                    math.comb(a + i, a) * math.comb(b + (cc - i), b)
                    for i in range(cc + 1)
                )
                if lhs != rhs:
                    return False
    for a in rng:
        for b in rng:
            for cc in rng:
                for d in rng:
                    lhs = math.comb(a + b + cc + d + 2, a + b + 1)
                    rhs = sum(
                        math.comb(a + cc + i + 1, cc) * math.comb((b - i) + d, d)
                        for i in range(b + 1)
                    ) + sum(
                        math.comb(a + cc + i + 1, a) * math.comb((d - i) + b, b)
                        for i in range(d + 1)
                    )
                    if lhs != rhs:
                        return False
    return True


@dataclass
class TransferResult:
    """Transferred structure with its extended inclusion/projection and the
    named identity checks performed on them."""

    beta: ConvElement
    i_inf: ConvElement
    p_inf: ConvElement
    checks: list

    def all_green(self) -> bool:
        return all(ok for _name, ok in self.checks)


def transfer(alpha: ConvElement, c: Contraction) -> TransferResult:
    """Transfer a Maurer-Cartan structure across the contraction.

    Returns beta on the small space together with the extended inclusion
    ``i_inf = Phi (o) i`` and extended projection ``p_inf = p (o) Psi``.
    The defining identities are checked exactly and kept on the result by
    name; a failure raises InternalCheckError.  Phi and Psi are built once
    and serve both the transferred structure and the checks.
    """
    abar = _abar(alpha, c)
    A = alpha.truncation
    phi = _phi(abar, c)
    psi = _psi(abar, c)
    i_elt = element_from_map(c.incl, A)
    p_elt = element_from_map(c.proj, A)
    pi_elt = element_from_map(c.pi, A)
    mid = circle(abar, phi)

    delta_small = element_from_map(c.d_small, A)
    beta = delta_small + circle(p_elt, circle(mid, i_elt))
    i_inf = circle(phi, i_elt)
    p_inf = circle(p_elt, psi)

    hat = _hat(alpha, phi)
    check = _check(alpha, psi)
    delta_big = element_from_map(c.d, A)
    checks = [
        ("maurer_cartan_beta", mc_check(beta).ok),
        ("hat_formula", hat == delta_big + circle(pi_elt, mid)),
        ("check_formula", check == delta_big + circle(mid, pi_elt)),
        (
            "hat_check_same_transfer",
            circle(p_elt, circle((hat - delta_big), i_elt))
            == circle(p_elt, circle((check - delta_big), i_elt)),
        ),
        ("psi_phi_sum", circle(psi, phi) == psi + phi - alpha.unit_like()),
        ("p_inf_circle_i_inf", circle(p_inf, i_inf) == unit_element(c.small, A)),
        ("i_inf_morphism", inf_morphism_check(i_inf, beta, alpha)),
        ("p_inf_morphism", star(p_inf, alpha) == circle(beta, p_inf)),
    ]
    result = TransferResult(beta, i_inf, p_inf, checks)
    if not result.all_green():
        bad = [name for name, ok in checks if not ok]
        raise InternalCheckError(f"transfer identities failed: {', '.join(bad)}")
    return result


def is_gauge_trivial(alpha: ConvElement, c: Contraction) -> bool:
    """Decide triviality through the transferred structure.

    Requires the contraction to land on the homology (zero induced
    differential); the structure is gauge trivial iff every transferred
    operation above the differential vanishes.
    """
    if not c.d_small.is_zero():
        raise DomainError("the contraction must be onto the homology (d_small = 0)")
    beta = transfer(alpha, c).beta
    return all(arity == 1 for arity in beta.components)


def find_trivializer(alpha: ConvElement) -> calculus.Trivialization:
    """Stage-wise solve of  f * delta = alpha (o) f  for f = 1 + f_(1) + ...

    Stage n is the exact linear system  sum_j f_n o_j d - d o f_n =
    RHS(f_(<n))  in the arity-n component.  Its matrix is read off the
    entries of d (:func:`_stage_rows`) and :func:`linalg.solve_stage`
    solves it by deterministic Gaussian elimination.  Success returns f and
    its Magnus logarithm, so that the gauge action of the logarithm takes
    the bare differential to alpha; f is checked against the
    infinity-morphism equation, and a failure of that check is a library
    bug and raises ``InternalCheckError``.  Failure reports the first
    unsolvable arity and the unmatched residual.  A failure is not a proof
    of non-triviality (earlier stage choices are greedy);
    ``is_gauge_trivial`` is the decision procedure.
    """
    _require_mc(alpha)
    space = alpha.source
    A = alpha.truncation
    d_op = alpha.component(1)
    delta = ConvElement(space, space, A, -1, {1: d_op})
    f = unit_element(space, A)
    for n in range(2, A + 1):
        rhs_op = (circle(alpha, f) - star(f, delta)).component(n)
        unknowns, rows = _stage_rows(space, n, d_op)
        ok, entries, residual = solve_stage(unknowns, rows, rhs_op.entries)
        if not ok:
            return calculus.Trivialization(False, stage=n, residual=rhs_op._like(residual))
        if entries:
            fn = MultiOp(space, space, n, 0)
            fn.entries = entries
            f = f + ConvElement(space, space, A, 0, {n: fn})
    if not inf_morphism_check(f, delta, alpha):
        raise InternalCheckError("find_trivializer: the isotopy found is no infinity-morphism")
    return calculus.Trivialization(True, f=f, log=calculus.magnus_series(f - f.unit_like()))


def _stage_rows(space: GradedSpace, n: int, d_op: MultiOp):
    """Unknowns and matrix rows of  fn -> sum_j fn o_j d - d o_1 fn  on
    arity-n, degree-0 operations.

    The unknowns are the entry keys ``(inputs, output)`` in deterministic
    order; row ``t`` maps an unknown's index to the coefficient of target
    entry ``t`` in the image of that unit operation.  There is one row entry
    per (unknown, slot, matching entry of d), with the Koszul sign of
    :func:`compose_at`, read off preimage and image tables of d built once
    per call.
    """
    odd = d_op.degree % 2
    preimage = {}  # basis vector -> [(a, c)] for the entries d(a) = c b + ...
    image = {}  # basis vector -> [(b, c)] for the same entries, keyed by a
    for ((a,), b), c in d_op.entries.items():
        preimage.setdefault(b, []).append((a, c))
        image.setdefault(a, []).append((b, c))
    basis = space.basis()
    by_degree = {}
    for b in basis:
        by_degree.setdefault(b[0], []).append(b)
    unknowns = []
    rows: dict = {}
    for ins in itertools.product(basis, repeat=n):
        outs = by_degree.get(sum(b[0] for b in ins))
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
