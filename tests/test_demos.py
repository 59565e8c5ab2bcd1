"""Every demo script runs to completion, so its inline asserts hold, and
prints exactly its committed output in ``tests/demo_output/<demo>.txt``.

After an intended change to a demo's output, regenerate its file with
``PYTHONPATH=src python demos/<demo>.py > tests/demo_output/<demo>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_output"


def test_demos_found():
    # an empty glob would leave the parametrized test below with no cases
    assert DEMOS, f"no demos under {ROOT / 'demos'}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
