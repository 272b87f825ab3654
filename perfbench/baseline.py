"""Run every workload over ten seeds and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Each run lasts ``run_seconds`` of ``BENCHMARK.json``.  Per workload it
keeps each untraced run's result line as printed with its uncalibrated
``wall_s`` and ``setup_s``, the median, quartiles and spread (interquartile
range over median) of every end-to-end metric and of the two uncalibrated
times, and the result of one traced run.  The machine record comes from
the first run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
OUT = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result object, run record) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in range(1, RUNS + 1):
            result, record = run_once(name, seed, seconds, 0)
            out.setdefault("environment", record["environment"])
            runs.append({"seed": seed, "result": result,
                         "uncalibrated": {"wall_s": record["uncalibrated_wall_s"],
                                          "setup_s": record["uncalibrated_setup_s"]}})
            print(name, seed, json.dumps(result["metrics"]), flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = {**spread(values), "unit": m["unit"], "bound": m["bound"]}
        uncalibrated = {metric: spread([r["uncalibrated"][metric] for r in runs])
                        for metric in ("wall_s", "setup_s")}
        for metric, row in [*summary.items(),
                            *((f"uncalibrated {k}", v) for k, v in uncalibrated.items())]:
            print(f"  {metric}: median {row['value']:.6g} spread {row['spread']:.4f}",
                  flush=True)
        traced, _ = run_once(name, 0, seconds, 1)
        out["workloads"][name] = {"end_to_end": summary, "uncalibrated": uncalibrated,
                                  "traced": traced, "runs": runs}
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
