"""The three workloads: seeded job pools of ``preliecalc`` verbs.

A job is one CLI invocation with its input files, the exit code a correct
program returns on it (its verdict), a size record, and a digest of
everything the program receives.  Each pool has a fixed mix of job kinds
and sizes.  The shape of each job's input (which trees, which entries) is
fixed per job slot and the seed picks every coefficient, so the cost of a
pass over a pool changes little from seed to seed while every input does.

The mix is chosen so that the median job falls inside one kind and the
tail percentile (``TAIL_PERCENTILE``) inside the same or a slower one:

- ``series``: p50 and the tail both land on ``bch``, whose input is the
  same for every seed up to the generator names; levelizations sit below
  and the two-generator Magnus jobs above.
- ``transfer``: p50 and the tail both land on truncation-5 gauged
  transfers, whose cost is mostly building h_5 and so barely depends on
  the seed; the fixtures and cheap verbs sit below them.
- ``solve``: p50 lands on truncation-4 trivializers, the tail on
  truncation-5 trivializers (the large ``solve_sparse`` stages).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from prelie import ainf
from prelie import multicomplex as mcx
from prelie.linalg import GradedSpace
from prelie.series import LabeledTree, TreeSeries, format_series

import fixtures as fx

# The highest percentile with at least ten jobs beyond it in a 25 s run
# (two passes of about 17 jobs) on a 2-CPU machine.  It is fixed so that a
# faster program, which runs more jobs, is not read at a deeper percentile.
TAIL_PERCENTILE = 70

SERIES_ORDER = 6
LEVELIZATION_VERTICES = 8


@dataclass
class Job:
    kind: str
    argv: list  # CLI arguments; input files are named relative to the run dir
    files: dict  # file name -> text
    expected: int  # exit code of a correct program
    size: dict
    context: dict = field(default_factory=dict)  # what the checker needs
    digest: str = ""

    def seal(self) -> "Job":
        h = hashlib.sha256()
        h.update(json.dumps([self.kind, self.argv, self.expected], sort_keys=True).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        self.digest = h.hexdigest()
        return self


def _slot(kind: str, i: int) -> random.Random:
    """Where the entries of the i-th gauge of a kind go.  It does not depend
    on the seed, so each job slot has the same sparsity and nearly the same
    cost for every seed; the seed picks the coefficients."""
    return random.Random(f"{kind}:{i}")


def pool_digest(jobs) -> str:
    return hashlib.sha256("".join(j.digest for j in jobs).encode()).hexdigest()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _element_size(elt) -> dict:
    return {
        "truncation": elt.truncation,
        "entries_per_arity": {str(a): len(op.entries) for a, op in sorted(elt.components.items())},
    }


def _tower_size(tower) -> dict:
    return {
        "truncation": tower.truncation,
        "entries_per_weight": {str(w): len(g.entries) for w, g in sorted(tower.components.items())},
    }


# -- series ---------------------------------------------------------------------


def _series_job(kind, verb_args, files, context, size):
    argv = ["prelie", *verb_args, "--order", str(SERIES_ORDER), "--format", "json"]
    return Job(kind, argv, files, 0, {"order": SERIES_ORDER, **size}, context)


def _series_text(s: TreeSeries) -> str:
    return format_series(s) + "\n"


def series_pool(rng, smoke=False):
    jobs = []
    xy = ["x", "y"]
    counts = {"exp": 3, "gauge-act": 1, "magnus-light": 2, "levelizations": 2, "bch": 5, "magnus": 4}
    if smoke:
        counts = {k: 1 for k in counts}
    for i in range(counts["exp"]):
        lam = fx.random_series(xy, SERIES_ORDER, _slot("exp", i), rng, (2, 3, 4))
        name = f"exp{i}.txt"
        jobs.append(_series_job(
            "series.exp", ["exp", name], {name: _series_text(lam)}, {"input": name},
            {"terms_in": len(lam.terms)}))
    for i in range(counts["gauge-act"]):
        gauge = fx.random_series(xy, SERIES_ORDER, _slot("gauge", i), rng, (2, 3))
        gauge = TreeSeries(SERIES_ORDER, 0, {t: c for t, c in gauge.terms.items() if t.nvertices > 1})
        target = fx.random_series(xy, SERIES_ORDER, _slot("target", i), rng, (2,))
        g, a = f"gauge{i}.txt", f"target{i}.txt"
        jobs.append(_series_job(
            "series.gauge-act", ["gauge-act", g, a],
            {g: _series_text(gauge), a: _series_text(target)}, {"gauge": g, "target": a},
            {"terms_in": len(gauge.terms) + len(target.terms)}))
    for i in range(counts["magnus-light"]):
        # one generator at weight 1: the Magnus solve stays in a small subalgebra
        s = fx.random_series(xy, SERIES_ORDER, _slot("magnus-light", i), rng, (2, 3))
        s = TreeSeries(SERIES_ORDER, 0, {t: c for t, c in s.terms.items() if t != LabeledTree("y")})
        name = f"magnus_light{i}.txt"
        jobs.append(_series_job(
            "series.magnus-light", ["magnus", name], {name: _series_text(s)}, {"input": name},
            {"terms_in": len(s.terms)}))
    for i in range(counts["magnus"]):
        s = fx.random_series(xy, SERIES_ORDER, _slot("magnus", i), rng, (2, 3))
        name = f"magnus{i}.txt"
        jobs.append(_series_job(
            "series.magnus", ["magnus", name], {name: _series_text(s)}, {"input": name},
            {"terms_in": len(s.terms)}))
    letters = "abcdefghuvwxyz"
    for i in range(counts["bch"]):
        x, y = rng.sample(letters, 2)
        jobs.append(_series_job("series.bch", ["bch", x, y], {}, {"x": x, "y": y}, {"terms_in": 2}))
    for _ in range(counts["levelizations"]):
        jobs.append(Job(
            "trees.levelizations",
            ["trees", "levelizations", "--vertices", str(LEVELIZATION_VERTICES), "--format", "json"],
            {}, 0, {"vertices": LEVELIZATION_VERTICES}, {"vertices": LEVELIZATION_VERTICES}))
    return jobs


# -- transfer -------------------------------------------------------------------


FIXTURES = {
    "line": fx.line_dga,
    "massey": fx.massey_dga,
    "formal": fx.formal_dga,
    "a_infinity": fx.a_infinity_instance,
}


def _transfer_job(kind, alpha, contraction, tag):
    s, c = f"{tag}.json", f"{tag}_contraction.json"
    return Job(
        kind,
        ["ainf", "transfer", s, c, "--format", "json"],
        {s: _dump(ainf.element_to_dict(alpha)), c: _dump(ainf.contraction_to_dict(contraction))},
        0,
        _element_size(alpha),
        {"structure": s},
    )


def transfer_pool(rng, smoke=False):
    """Gauged Massey transfers at truncations 4 and 5, the four plain
    fixtures, and the cheap gauge-act / mc-check verbs on gauged inputs.

    Every gauged transfer is kept whatever its outcome: valid inputs of this
    shape can hit the known ``psi_phi_sum`` identity failure (exit 2), and
    those jobs count as failed.
    """
    jobs = []
    counts = {"gauged4": 1, "gauged5": 10, "gauge-act": 1, "mc-check": 1}
    if smoke:
        counts = {"gauged4": 1, "gauged5": 1, "gauge-act": 1, "mc-check": 1}
    for name, make in FIXTURES.items():
        alpha, c = make(5)
        jobs.append(_transfer_job("transfer.fixture", alpha, c, f"fixture_{name}"))
    for trunc, key in ((4, "gauged4"), (5, "gauged5")):
        for i in range(counts[key]):
            alpha, c = fx.massey_dga(trunc)
            lam = fx.random_gauge(alpha.source, trunc, _slot(f"gauged{trunc}", i), rng, nentries=2)
            jobs.append(_transfer_job(
                f"transfer.gauged{trunc}", ainf.gauge_act(lam, alpha), c, f"gauged{trunc}_{i}"))
    for i in range(counts["gauge-act"]):
        alpha, _c = fx.massey_dga(5)
        lam = fx.random_gauge(alpha.source, 5, _slot("gauge-act", i), rng, nentries=2)
        a, g = ainf.element_to_dict(alpha), ainf.element_to_dict(lam)
        name = f"gauge_act{i}.json"
        data = {"space": a["space"], "truncation": 5,
                "structure": {"operations": a["operations"]}, "gauge": {"operations": g["operations"]}}
        jobs.append(Job(
            "ainf.gauge-act", ["ainf", "gauge-act", name, "--format", "json"],
            {name: _dump(data)}, 0, _element_size(lam), {"input": name}))
    for i in range(counts["mc-check"]):
        alpha, _c = fx.massey_dga(5)
        lam = fx.random_gauge(alpha.source, 5, _slot("mc-check", i), rng, nentries=2)
        gauged = ainf.gauge_act(lam, alpha)
        name = f"mc_check{i}.json"
        jobs.append(Job(
            "ainf.mc-check", ["ainf", "mc-check", name, "--format", "json"],
            {name: _dump(ainf.element_to_dict(gauged))}, 0, _element_size(gauged), {"input": name}))
    return jobs


# -- solve ----------------------------------------------------------------------


TOWER_DEGREES, TOWER_DIM, TOWER_WEIGHT = 12, 8, 6


def solve_pool(rng, smoke=False):
    """Gauge-trivial structures e^lam . delta over the Massey space (exit 0),
    the obstructed Massey structure itself (exit 1), and towers
    e^lam delta e^-lam over a wide space for the three multicomplex verbs."""
    jobs = []
    counts = {"trivialize4": 4, "trivialize5": 6, "towers": 2}
    if smoke:
        counts = {"trivialize4": 1, "trivialize5": 1, "towers": 1}
    for trunc in (4, 5):
        for i in range(counts[f"trivialize{trunc}"]):
            alpha, _c = fx.massey_dga(trunc)
            delta = fx.differential_only(alpha)
            lam = fx.random_gauge(alpha.source, trunc, _slot(f"trivial{trunc}", i), rng, nentries=2)
            gauged = ainf.gauge_act(lam, delta)
            name = f"trivial{trunc}_{i}.json"
            jobs.append(Job(
                f"solve.ainf-trivialize{trunc}", ["ainf", "trivialize", name, "--format", "json"],
                {name: _dump(ainf.element_to_dict(gauged))}, 0, _element_size(gauged), {"input": name}))
    alpha, _c = fx.massey_dga(5)
    jobs.append(Job(
        "solve.ainf-obstructed", ["ainf", "trivialize", "massey.json", "--format", "json"],
        {"massey.json": _dump(ainf.element_to_dict(alpha))}, 1, _element_size(alpha),
        {"input": "massey.json"}))
    space = GradedSpace({k: TOWER_DIM for k in range(TOWER_DEGREES)})
    for i in range(counts["towers"]):
        d = fx.random_differential(space, rng)
        delta = mcx.structure_tower(space, TOWER_WEIGHT, {0: d})
        lam = fx.random_gauge_tower(space, TOWER_WEIGHT, rng, nentries=3)
        alpha = mcx.conjugate(lam, delta)
        tower, conj = f"tower{i}.json", f"conjugate{i}.json"
        alpha_dict = mcx.tower_to_dict(alpha)
        size = {**_tower_size(alpha), "dims": f"{TOWER_DEGREES}x{TOWER_DIM}"}
        conj_data = {"space": alpha_dict["space"], "truncation": TOWER_WEIGHT,
                     "alpha": {"operators": mcx.tower_to_dict(delta)["operators"]},
                     "gauge": {"operators": mcx.tower_to_dict(lam)["operators"]}}
        files = {tower: _dump(alpha_dict)}
        for verb in ("trivialize", "mc-check"):
            jobs.append(Job(
                f"solve.multicomplex-{verb}", ["multicomplex", verb, tower, "--format", "json"],
                files, 0, size, {"input": tower}))
        jobs.append(Job(
            "solve.multicomplex-conjugate", ["multicomplex", "conjugate", conj, "--format", "json"],
            {conj: _dump(conj_data)}, 0, size, {"input": conj}))
    return jobs


POOLS = {"series": series_pool, "transfer": transfer_pool, "solve": solve_pool}
WARMUP_KIND = {"series": "series.exp", "transfer": "transfer.gauged4", "solve": "solve.ainf-trivialize4"}


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """The job pool of a workload, in the seeded order in which it runs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [job.seal() for job in POOLS[workload](rng, smoke)]
    rng.shuffle(jobs)
    return jobs
