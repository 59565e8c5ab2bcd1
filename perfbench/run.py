"""Benchmark of the prelie calculator: certified CLI jobs, end to end and per layer.

    python3 perfbench/run.py --workload series|transfer|solve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each run starts fresh workload processes (see ``workload.py``).  With
``--trace 0`` it prints the end-to-end metrics; set-up is measured in
``SETUPS`` processes and reported as their median.  With ``--trace 1`` one
process runs the same jobs with layer spans on, again with them off (for the
tracing overhead) and once under cProfile, and prints the per-layer metrics,
each per pass over the workload's job pool.  Metric names and units come
from ``BENCHMARK.json``; the last line of output is one JSON object.

Every run also writes a record (times, sizes and input digests of every job)
under ``.perfbench_out/records``; ``compare.py`` compares records and refuses
records whose input digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("series", "transfer", "solve")
SETUPS = 7  # set-up samples per end-to-end run; the median is reported
DEADLINE_S = 175  # a run ends within this, child processes included


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None


def preflight():
    cli = ROOT / "src" / "prelie" / "cli.py"
    if not cli.is_file():
        raise BenchError(f"program source not found: {cli.relative_to(ROOT)} is missing")


def run_child(workload, seed, seconds, trace, deadline, *, setup_only=False, smoke=False) -> dict:
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{os.getpid()}.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(result_file)]
    if setup_only:
        cmd.append("--setup-only")
    if smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        result_file.unlink(missing_ok=True)


def end_to_end(workload, seed, seconds, deadline, smoke=False):
    setups = [run_child(workload, seed, seconds, 0, deadline, setup_only=True, smoke=smoke)["setup_s"]
              for _ in range(0 if smoke else SETUPS - 1)]
    res = run_child(workload, seed, seconds, 0, deadline, smoke=smoke)
    setups.append(res["setup_s"])
    n = res["attempted"]
    pct = res["tail_percentile"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "job_s.p50": (res["jobs"]["p50"], "s", f"n={n} jobs"),
        "job_s.tail": (res["jobs"]["tail"], "s",
                       f"p{pct} of n={n} jobs, {res['jobs']['beyond_tail']} beyond it"),
        "jobs_per_s": (n / res["loop_s"], "1/s", f"{n} jobs in {res['loop_s']:.2f} s, {res['passes']} passes"),
        "failed_frac": (res["failed"] / n, "ratio", f"{res['failed']} of {n} jobs"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB", "ru_maxrss of the workload process"),
    }
    return res, metrics


def per_layer(workload, seed, seconds, deadline, smoke=False):
    res = run_child(workload, seed, seconds, 1, deadline, smoke=smoke)
    passes = res["passes"]
    totals = res["span_totals"]
    metrics = {}
    for name, st in sorted(totals.items()):
        for key, value in st.items():
            unit = "s" if key.endswith("_s") else "count"
            metrics[f"{name}.{key}"] = (value / passes, unit, f"per pass, {passes} passes")
    layer_self = {}
    for name, st in totals.items():
        layer = max((layer for layer in LAYERS if name.startswith(layer + ".")), key=len)
        layer_self[layer] = layer_self.get(layer, 0.0) + st["self_s"]
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = (value / passes, "s", "per pass, all spans of the layer")
    traced_job_s = sum(res["times"])
    n = res["attempted"]
    metrics.update({
        "trace.overhead_frac": (1 - res["untraced_loop_s"] / res["loop_s"], "ratio",
                                f"{passes} passes traced vs untraced"),
        "trace.accounted_frac": (sum(layer_self.values()) / traced_job_s, "ratio",
                                 "layer self times + cli.self_s over traced job time"),
        "fractions.self_share": (res["fractions_share"], "ratio", "one pass under cProfile"),
        "failed_frac": (res["failed"] / n, "ratio", f"{res['failed']} of {n} jobs"),
    })
    return res, metrics


def select(metrics, wanted):
    """The metrics named in BENCHMARK.json, zero where the workload never ran
    the function (a layer it bypasses)."""
    out = {}
    for spec in wanted:
        value, unit, _note = metrics.get(spec["name"], (0, spec["unit"], ""))
        if unit != spec["unit"]:
            raise BenchError(f"metric {spec['name']} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def write_record(workload, seed, trace, res, metrics) -> Path:
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "pool_digest": res["pool_digest"],
        "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in metrics.items()},
        "failures": res["failures"],
        "jobs": res["records"],
    }
    if trace:
        record["spans_per_kind"] = res["spans"]
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return path


def run_once(workload, seed, seconds, trace, smoke=False):
    spec = load_spec()
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        res, metrics = per_layer(workload, seed, seconds, deadline, smoke)
        wanted = spec["per_layer"]
    else:
        res, metrics = end_to_end(workload, seed, seconds, deadline, smoke)
        wanted = spec["end_to_end"]
    selected = select(metrics, wanted)
    path = write_record(workload, seed, trace, res, metrics)
    print(f"# workload={workload} seed={seed} trace={trace} pool={res['pool_digest'][:16]} "
          f"jobs={res['attempted']} failed={res['failed']} correct={res['correct']}")
    units = {m["name"]: m["unit"] for m in wanted}
    if not trace:
        units.update({name: unit for name, (_v, unit, _n) in metrics.items() if name not in units})
    for name, spec_unit in units.items():
        value, unit, note = metrics.get(name, (0, spec_unit, "not run on this workload"))
        print(f"{name:<48} {value:>14.6g} {unit:<6} {note}")
    for kind_index, reason in sorted(res["failures"].items()):
        print(f"# failed {kind_index}: {reason[:200]}")
    print(f"# record: {path.relative_to(ROOT)}")
    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
              "metrics": selected}
    print(json.dumps(result))
    return result


def smoke() -> int:
    """Every workload briefly, both modes; every named metric must be
    printed with its unit."""
    spec = load_spec()
    bad = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(workload, 0, 0, trace, smoke=True)
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    bad.append(f"{workload}/trace{trace}: {m['name']}")
    for line in bad:
        print(f"# missing metric {line}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run every workload briefly and check the output")
    args = p.parse_args(argv)
    try:
        preflight()
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
