"""Write the byte records under ``perfbench/expected/`` from the current code.

The records were taken once, at the commit that introduced the benchmark,
and every later run compares against them; rerunning this script on a
later commit replaces the reference and defeats the check.

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on sys.path)

SEED = 0


def main() -> int:
    rc, out, err = workloads.call_cli(workloads.Equiv.argvs[0])
    if rc != 0:
        sys.stderr.write(err)
        return 1
    (workloads.EXPECTED / "equiv.json").write_text(out)
    w = workloads.CheckRandom(SEED)
    batch = w.inputs(0)
    digests = [workloads.report_digest(report)
               for per_theory in w.run(batch) for report in per_theory]
    (workloads.EXPECTED / "check_random.json").write_text(
        json.dumps({"seed": SEED, "digests": digests}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
