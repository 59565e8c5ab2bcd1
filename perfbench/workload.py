"""One workload in one fresh process: set-up, timed loop, exact checks.

Started by ``run.py``; it writes its result as JSON to ``--out`` and keeps
its inputs and outputs in a temporary directory beside that file.  Set-up is
timed from ``--t0`` (the parent's ``time.monotonic()`` just before it started
this process) to the first timed job: the cold ``import prelie.cli``,
building and writing the seeded inputs, and one untimed warm-up job.

The timed loop is a closed loop with one client and no think time: each job
is one ``prelie.cli.main([...])`` call with ``--output`` into the run
directory, so it pays parsing, fresh objects and serialization like a CLI
user.  It runs whole passes over the pool, at least two, while another half
pass still fits in ``--seconds``.  Outputs are digested inside the loop and checked exactly
after it, once per distinct output of each job.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import prelie.cli

    src = (ROOT / "src").resolve()
    if src not in Path(prelie.cli.__file__).resolve().parents:
        raise SystemExit(f"prelie was imported from {prelie.cli.__file__}, not from {src}")
    return prelie.cli


class Runner:
    """Runs jobs of one pool through the CLI and keeps every attempt."""

    def __init__(self, cli, jobs, rundir: Path):
        self.cli = cli  # looked up per call, so a traced cli.main is seen
        self.jobs = jobs
        self.rundir = rundir
        self.outdir = rundir / "out"
        self.outdir.mkdir()
        self.attempts = []  # [job index, seconds, exit code, stderr, output digest]
        self.outputs = {}  # (job index, output digest) -> output text
        self.solve_sizes = None  # SolveSizes, when installed
        self.tracer = None  # Tracer, when installed
        self.stage_sizes = {}  # job index -> [[rows, unknowns], ...] of its first attempt

    def write_inputs(self):
        for job in self.jobs:
            for name, text in job.files.items():
                (self.rundir / name).write_text(text, encoding="utf-8")

    def run(self, index: int, record: bool = True) -> float:
        job = self.jobs[index]
        out = self.outdir / f"{index}.out"
        out.unlink(missing_ok=True)
        argv = [a if a not in job.files else str(self.rundir / a) for a in job.argv]
        argv += ["--output", str(out)]
        err = io.StringIO()
        if self.solve_sizes is not None:
            self.solve_sizes.calls.clear()
        if self.tracer is not None:
            self.tracer.kind = job.kind
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback from the program is a failed job
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if not record:
            return elapsed
        digest = None
        if out.exists():
            text = out.read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            self.outputs.setdefault((index, digest), text)
        if self.solve_sizes is not None and index not in self.stage_sizes:
            self.stage_sizes[index] = [list(c) for c in self.solve_sizes.calls]
        self.attempts.append([index, elapsed, code, err.getvalue().strip()[-300:], digest])
        return elapsed

    def passes(self, seconds: float, minimum: int = 1) -> tuple:
        """Whole passes while another half pass fits; (passes, wall seconds)."""
        start = time.perf_counter()
        done = 0
        while True:
            for i in range(len(self.jobs)):
                self.run(i)
            done += 1
            elapsed = time.perf_counter() - start
            if done >= minimum and elapsed + 0.5 * elapsed / done >= seconds:
                return done, elapsed


def score(jobs, attempts, outputs, rundir: Path, check):
    """Check every attempt.  A job fails when its exit code differs from its
    verdict, it raised, or its output fails the exact check.  ``correct`` is
    False when a job delivered a wrong answer: an output that fails its
    check, or the opposite verdict (exit 0 where 1 is right, or 1 where 0
    is right).  An error exit (2) or a raise is failed but is no answer."""
    verdicts = {}
    for (index, digest), text in outputs.items():
        verdicts[index, digest] = check(jobs[index], text, rundir)
    failed, wrong, failures, out_sizes = 0, 0, {}, {}
    for index, _secs, code, stderr, digest in attempts:
        job = jobs[index]
        reason = None
        if code != job.expected:
            reason = f"exit {code}, expected {job.expected}" + (f": {stderr}" if stderr else "")
            if code in (0, 1):
                wrong += 1
        elif digest is None:
            reason = "no output written"
            wrong += 1
        else:
            ok, detail, out_size = verdicts[index, digest]
            if out_size is not None:
                out_sizes.setdefault(index, out_size)
            if not ok:
                reason = f"check failed: {detail}"
                wrong += 1
        if reason is not None:
            failed += 1
            failures.setdefault(f"{job.kind}#{index}", reason)
    return {"failed": failed, "correct": wrong == 0, "failures": failures, "out_sizes": out_sizes}


def job_stats(times, tail_pct):
    times = sorted(times)
    cuts = statistics.quantiles(times, n=100, method="inclusive") if len(times) > 1 else times * 99
    return {
        "p50": statistics.median(times),
        "tail": cuts[tail_pct - 1],
        "beyond_tail": sum(1 for t in times if t > cuts[tail_pct - 1]),
    }


def profile_share(runner) -> float:
    """Share of self time spent in fractions.py over one profiled pass."""
    prof = cProfile.Profile()
    prof.enable()
    for i in range(len(runner.jobs)):
        runner.run(i, record=False)
    prof.disable()
    stats = pstats.Stats(prof).stats
    total = sum(entry[2] for entry in stats.values())
    frac = sum(entry[2] for (filename, _l, _f), entry in stats.items() if filename.endswith("fractions.py"))
    return frac / total if total else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    cli = _import_program()
    import jobs as jobmod

    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=Path(args.out).parent))
    try:
        pool = jobmod.build(args.workload, args.seed, smoke=args.smoke)
        runner = Runner(cli, pool, rundir)
        runner.write_inputs()
        warm = next(i for i, j in enumerate(pool) if j.kind == jobmod.WARMUP_KIND[args.workload])
        runner.run(warm, record=False)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(_measure(args, runner))
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return 0


def _measure(args, runner) -> dict:
    import checks
    import jobs as jobmod
    from spans import SolveSizes, Tracer

    pool = runner.jobs
    tracer = None
    if args.trace:
        tracer = runner.tracer = Tracer()
        tracer.install()
    runner.solve_sizes = SolveSizes()
    runner.solve_sizes.install()
    budget = args.seconds / 2 if args.trace else args.seconds
    # two passes give the tail percentile its ten jobs beyond it
    npasses, loop_s = runner.passes(budget, minimum=1 if args.trace or args.smoke else 2)
    runner.solve_sizes.uninstall()
    runner.solve_sizes = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"passes": npasses, "loop_s": loop_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        runner.tracer = None
        # the same passes again untraced, for the tracing overhead
        start = time.perf_counter()
        for _ in range(npasses):
            for i in range(len(pool)):
                runner.run(i, record=False)
        out["untraced_loop_s"] = time.perf_counter() - start
        out["fractions_share"] = profile_share(runner)
        out["spans"] = tracer.dump()
        totals = tracer.totals()
        out["span_totals"] = {
            name: {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s, **st.sizes}
            for name, st in totals.items()
        }
    times = [a[1] for a in runner.attempts]
    scored = score(pool, runner.attempts, runner.outputs, runner.rundir, checks.check)
    out.update(
        attempted=len(runner.attempts),
        times=times,
        jobs=job_stats(times, jobmod.TAIL_PERCENTILE),
        tail_percentile=jobmod.TAIL_PERCENTILE,
        pool_digest=jobmod.pool_digest(pool),
        records=[
            {
                "kind": job.kind,
                "digest": job.digest,
                "size": {**job.size, **scored["out_sizes"].get(i, {}),
                         **({"stages": runner.stage_sizes[i]} if runner.stage_sizes.get(i) else {})},
                "times": [a[1] for a in runner.attempts if a[0] == i],
                "exit_codes": sorted({str(a[2]) for a in runner.attempts if a[0] == i}),
            }
            for i, job in enumerate(pool)
        ],
        **{k: scored[k] for k in ("failed", "correct", "failures")},
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
