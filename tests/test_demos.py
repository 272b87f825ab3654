"""Every demo script runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gemcheck

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # temporary files the demos make go under tmp_path too
    env = dict(os.environ, PYTHONPATH=str(Path(gemcheck.__file__).parents[1]),
               TMPDIR=str(tmp_path))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
