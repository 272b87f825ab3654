"""Every demo script runs to completion and prints something, and the
documented API is there: each exported name and README's library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gemcheck

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_every_exported_name_resolves():
    assert [name for name in gemcheck.__all__ if not hasattr(gemcheck, name)] == []


def test_readme_library_example_runs():
    examples = re.findall(r"```py\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert examples
    for code in examples:
        exec(compile(code, "README.md", "exec"), {})
