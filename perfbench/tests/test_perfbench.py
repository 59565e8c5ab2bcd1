"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke test runs every workload briefly in both modes (about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import jobs  # noqa: E402
import workload  # noqa: E402
from checks import check  # noqa: E402
from prelie import cli  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_prints_every_named_metric_with_its_unit():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == 2 * len(jobs.POOLS)
    for i, result in enumerate(results):
        key = "end_to_end" if i % 2 == 0 else "per_layer"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line for line in lines)


def test_same_seed_same_digests_other_seed_differs():
    for name in jobs.POOLS:
        first = jobs.build(name, 3)
        again = jobs.build(name, 3)
        other = jobs.build(name, 4)
        assert [j.digest for j in first] == [j.digest for j in again]
        assert jobs.pool_digest(first) == jobs.pool_digest(again)
        assert jobs.pool_digest(first) != jobs.pool_digest(other)


def test_corrupted_output_counts_as_failed(tmp_path):
    job = jobs.Job("trees.levelizations",
                   ["trees", "levelizations", "--vertices", "5", "--format", "json"],
                   {}, 0, {"vertices": 5}, {"vertices": 5}).seal()
    runner = workload.Runner(cli, [job], tmp_path)
    runner.run(0)
    runner.run(0)
    clean = workload.score([job], runner.attempts, runner.outputs, tmp_path, check)
    assert clean["failed"] == 0 and clean["correct"]

    (index, digest), text = next(iter(runner.outputs.items()))
    payload = json.loads(text)
    payload["trees"][0]["weights"][0] = "7"
    runner.outputs[index, "corrupt"] = json.dumps(payload)
    runner.attempts[1][4] = "corrupt"
    scored = workload.score([job], runner.attempts, runner.outputs, tmp_path, check)
    assert scored["failed"] == 1 and not scored["correct"]
    assert "check failed" in next(iter(scored["failures"].values()))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "series", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_records_with_different_inputs(tmp_path):
    import compare

    def record(name, digest):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "series", "seed": 1, "trace": 0, "pool_digest": digest,
            "jobs": [{"digest": digest}], "metrics": {"jobs_per_s": {"value": 1.0}},
        }))
        return str(path)

    a, b, c = record("a.json", "d1"), record("b.json", "d1"), record("c.json", "d2")
    assert compare.main(["--base", a, "--new", b]) == 0
    assert compare.main(["--base", a, "--new", c]) == 2
