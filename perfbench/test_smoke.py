"""Smoke test of the benchmark itself.

Every workload runs briefly in both modes and must print every metric of
``BENCHMARK.json`` with its unit; a tampered expected answer must show up
as failed verdicts.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        line = rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$"
        assert re.search(line, proc.stdout, re.M), m["name"]
    assert re.search(r"^failed_share\s+0\s+ratio$", proc.stdout, re.M)


def _tampered(name: str):
    w = workloads.WORKLOADS[name](0)
    if name == "equiv":
        w.expected_bytes = w.expected_bytes.replace('"models": 3', '"models": 4', 1)
    elif name == "scan-part4":
        w.models = 1
    elif name == "lemmas-canonical":
        w.models_checked = 3
    else:
        w.recorded_digests = ["0" * 16] + w.recorded_digests[1:]
    return w


@pytest.mark.parametrize("workload", NAMES)
def test_tampered_expected_answer_counts_as_failure(workload):
    result = run.measure(_tampered(workload), seconds=0.1)
    assert result["failed"] / result["attempted"] > 0


def test_tracing_puts_every_original_back():
    from gemcheck import cli, search, semantics, structures

    def boundaries():
        return (semantics.Evaluator.__dict__["eval"], semantics.compiled, search.check_theory,
                search.induced_fusion, cli.main, structures.FusionStructure.__dict__["from_rows"])

    before = boundaries()
    result = run.measure(workloads.WORKLOADS["equiv"](0), seconds=0.1, tracer=run.tracing.Tracer())
    assert result["failed"] == 0 and result["per_rep"][0]["cli.calls"] == 1
    assert boundaries() == before
