"""Exact checks of job outputs, run after the timed loop.

Each check re-derives the answer through an identity the output must satisfy
exactly, using a different route from the one the program took where the
library offers one.  A check returns ``(ok, detail, out_size)``; it never
raises for a wrong answer, so one bad job cannot abort a run.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from prelie import ainf
from prelie import multicomplex as mcx
from prelie.series import TreeSeries, bracket, circle, exp, parse_series

from fixtures import differential_only
from jobs import SERIES_ORDER

EXPECTED_TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115}


def _series_from_output(payload) -> TreeSeries:
    return parse_series(payload["series"], payload["order"])


def _read_series(rundir: Path, name: str) -> TreeSeries:
    return parse_series((rundir / name).read_text(encoding="utf-8"), SERIES_ORDER)


def _check_exp(job, payload, rundir):
    lam = _read_series(rundir, job.context["input"])
    out = _series_from_output(payload)
    # e^{r_lam} and e^{-r_lam} are inverse operators, so e^lam (o) e^-lam = 1
    return circle(out, exp(-lam)) == out.unit_like(), "exp(lam) (o) exp(-lam) == 1", out


def _check_gauge(job, payload, rundir):
    lam = _read_series(rundir, job.context["gauge"])
    alpha = _read_series(rundir, job.context["target"])
    out = _series_from_output(payload)
    # (e^lam * alpha) (o) e^-lam = e^{ad lam}(alpha), summed with brackets here
    expected, term = alpha, alpha
    for k in range(1, SERIES_ORDER + 1):
        term = bracket(lam, term) * Fraction(1, k)
        expected = expected + term
    return out == expected, "gauge action == e^{ad lam}(alpha)", out


def _check_magnus(job, payload, rundir):
    a = _read_series(rundir, job.context["input"])
    out = _series_from_output(payload)
    return exp(out) == a.unit_like() + a, "exp(magnus(a)) == 1 + a", out


def _check_bch(job, payload, rundir):
    x = TreeSeries.generator(job.context["x"], SERIES_ORDER)
    y = TreeSeries.generator(job.context["y"], SERIES_ORDER)
    out = _series_from_output(payload)
    return exp(out) == circle(exp(x), exp(y)), "exp(bch(x, y)) == exp(x) (o) exp(y)", out


def _parse_tree(text: str, pos: int = 0):
    """Children of the unlabeled tree text ``(* child ...)`` as nested tuples."""
    if text[pos : pos + 2] != "(*":
        raise ValueError(f"bad tree text at {pos}: {text!r}")
    pos += 2
    children = []
    while text[pos] != ")":
        if text[pos] == " ":
            pos += 1
            continue
        child, pos = _parse_tree(text, pos)
        children.append(child)
    return tuple(sorted(children)), pos + 1


def _aut(tree) -> int:
    """|Aut t| = prod over children |Aut c| times m! per group of m equal children."""
    out = 1
    for child in tree:
        out *= _aut(child)
    for child in set(tree):
        out *= math.factorial(tree.count(child))
    return out


def _check_levelizations(job, payload, rundir):
    n = job.context["vertices"]
    records = payload["trees"]
    shapes = {_parse_tree(r["tree"])[0] for r in records}
    if len(records) != EXPECTED_TREE_COUNTS[n] or len(shapes) != len(records):
        return False, f"expected {EXPECTED_TREE_COUNTS[n]} distinct trees", len(records)
    for r in records:
        target = Fraction(1, _aut(_parse_tree(r["tree"])[0]))
        weights = [Fraction(w) for w in r["weights"]]
        if r["aut"] != target.denominator or sum(weights) != target or Fraction(r["weight_sum"]) != target:
            return False, f"weights of {r['tree']} do not sum to 1/|Aut t|", len(records)
    return True, "levelization weights sum to 1/|Aut t| for every tree", len(records)


def _read_element(rundir: Path, name: str):
    return ainf.element_from_dict(json.loads((rundir / name).read_text(encoding="utf-8")))


def _entries(elt) -> int:
    return sum(len(op.entries) for op in elt.components.values())


def _check_transfer(job, payload, rundir):
    beta = ainf.element_from_dict(payload["beta"])
    ok = all(payload["checks"].values()) and ainf.mc_check(beta).ok
    return ok, "identity report all PASS and mc_check(beta)", _entries(beta)


def _check_ainf_gauge(job, payload, rundir):
    data = json.loads((rundir / job.context["input"]).read_text(encoding="utf-8"))
    out = ainf.element_from_dict(payload)
    source = ainf.element_from_dict({"truncation": out.truncation, "degree": -1,
                                     **data["structure"]}, source=out.source)
    ok = (payload["maurer_cartan_preserved"] and ainf.mc_check(out).ok
          and out.component(1) == source.component(1))
    return ok, "mc_check(result) and arity 1 unchanged", _entries(out)


def _check_mc_pass(job, payload, rundir):
    return payload == {"maurer_cartan": True}, "maurer_cartan: true", 0


def _check_ainf_trivialize(job, payload, rundir):
    alpha = _read_element(rundir, job.context["input"])
    if job.expected == 1:
        ok = payload.get("trivial") is False and isinstance(payload.get("stage"), int)
        return ok, "obstruction reported with its stage", 0
    delta = differential_only(alpha)
    f = ainf.element_from_dict(payload["isotopy"])
    log = ainf.element_from_dict(payload["log"])
    ok = (payload["trivial"] is True and ainf.inf_morphism_check(f, delta, alpha)
          and ainf.gauge_act(log, delta) == alpha)
    return ok, "inf_morphism_check(f, delta, alpha) and log . delta == alpha", _entries(f)


def _read_tower(rundir, name):
    return mcx.tower_from_dict(json.loads((rundir / name).read_text(encoding="utf-8")))


def _tower_entries(tower) -> int:
    return sum(len(g.entries) for g in tower.components.values())


def _check_mc_trivialize(job, payload, rundir):
    alpha = _read_tower(rundir, job.context["input"])
    delta = mcx.structure_tower(alpha.space, alpha.truncation, {0: alpha.component(0)})
    f = mcx.tower_from_dict(payload["isotopy"], offset=mcx.GAUGE)
    log = mcx.tower_from_dict(payload["log"], offset=mcx.GAUGE)
    ok = (payload["trivial"] is True and mcx.isotopy_check(f, delta, alpha)
          and mcx.exp_assoc(log) == f)
    return ok, "isotopy_check(f, delta, alpha) and exp(log) == f", _tower_entries(f)


def _check_mc_conjugate(job, payload, rundir):
    data = json.loads((rundir / job.context["input"]).read_text(encoding="utf-8"))
    space = mcx.space_from_dict(data["space"])
    n = data["truncation"]
    alpha = mcx.tower_from_dict(data["alpha"], space=space, truncation=n)
    lam = mcx.tower_from_dict(data["gauge"], offset=mcx.GAUGE, space=space, truncation=n)
    out = mcx.tower_from_dict(payload)
    ok = (payload["maurer_cartan_preserved"] is True
          and mcx.isotopy_check(mcx.exp_assoc(lam), alpha, out))
    return ok, "exp(lam) * alpha == result * exp(lam)", _tower_entries(out)


CHECKS = {
    "series.exp": _check_exp,
    "series.gauge-act": _check_gauge,
    "series.magnus": _check_magnus,
    "series.magnus-light": _check_magnus,
    "series.bch": _check_bch,
    "trees.levelizations": _check_levelizations,
    "transfer.fixture": _check_transfer,
    "transfer.gauged4": _check_transfer,
    "transfer.gauged5": _check_transfer,
    "ainf.gauge-act": _check_ainf_gauge,
    "ainf.mc-check": _check_mc_pass,
    "solve.ainf-trivialize4": _check_ainf_trivialize,
    "solve.ainf-trivialize5": _check_ainf_trivialize,
    "solve.ainf-obstructed": _check_ainf_trivialize,
    "solve.multicomplex-trivialize": _check_mc_trivialize,
    "solve.multicomplex-mc-check": _check_mc_pass,
    "solve.multicomplex-conjugate": _check_mc_conjugate,
}


def check(job, output: str, rundir: Path):
    """``(ok, detail, out_size)`` for one job output; any exception while
    reading or checking the output counts as a failed check."""
    try:
        payload = json.loads(output)
        ok, detail, out = CHECKS[job.kind](job, payload, rundir)
    except Exception as exc:  # a malformed output is a failed job, not a crash
        return False, f"output check raised {type(exc).__name__}: {exc}", None
    if isinstance(out, TreeSeries):
        out = {"terms_out": len(out.terms)}
    elif out is not None:
        out = {"out": out}
    return bool(ok), detail, out
