"""Compare two sets of benchmark records, refusing differing inputs.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Records are the files ``run.py`` writes under ``.perfbench_out/records``.
Runs of one workload and seed must have identical input digests on both
sides, or the comparison is refused (exit 2): a change in the workload must
not pass for a change in speed.  For each workload and metric it prints the
median of each side, the relative change, and the spread of each side (the
distance between quartiles as a share of the median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(paths):
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def digest_conflicts(records) -> list:
    """(workload, seed) pairs whose records disagree on any input digest."""
    seen = {}
    bad = []
    for r in records:
        key = (r["workload"], r["seed"])
        digests = (r["pool_digest"], tuple(j["digest"] for j in r["jobs"]))
        if seen.setdefault(key, digests) != digests and key not in bad:
            bad.append(key)
    return bad


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def summarize(records):
    """(workload, trace) -> metric -> list of values."""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            out[r["workload"], r["trace"]][name].append(m["value"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    conflicts = digest_conflicts(base + new)
    if conflicts:
        for workload, seed in conflicts:
            print(f"refused: {workload} seed {seed} ran on different inputs", file=sys.stderr)
        return 2
    sb, sn = summarize(base), summarize(new)
    print(f"{'workload':<10} {'metric':<44} {'base':>12} {'new':>12} {'change':>8} {'spread b/n':>13}")
    for key in sorted(set(sb) & set(sn)):
        for name in sorted(set(sb[key]) & set(sn[key])):
            b, n = sb[key][name], sn[key][name]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            print(f"{key[0]:<10} {name:<44} {mb:>12.6g} {mn:>12.6g} {change:>+8.1%} "
                  f"{spread(b):>6.1%}/{spread(n):<6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
