"""gemcheck benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from ``src/`` next to
this directory, never from an installed copy.  The run does the set-up of
``probe.py`` in-process (registries built, every registry formula
compiled), checks one repetition untimed (it fills the native checker
registry and the remaining caches), then repeats the workload for
``--seconds`` and checks every verdict outside the timed region.

``--trace 0`` reports the end-to-end metrics: the median repetition time,
throughput, set-up time (median over fresh interpreters running
``probe.py``, timed from its first statement) and peak resident memory.

Times are calibrated (see ``calibration.py``): each repetition is
bracketed by a fixed pure-Python loop and scaled by ``CAL_REF_S`` over the
loop's mean time around it, and each set-up probe by reference imports
done inside the probe.  The uncalibrated medians are printed in the run record.

``--trace 1`` alternates untraced and traced repetitions of one fixed
input, with the wrappers put in place only for the traced ones.  It
reports per-layer counts and self times from the traced repetitions, the
tracing overhead (calibrated traced median minus calibrated untraced
median), and writes the spans of the set-up and of the first traced
repetition to ``perfbench/traces/``.  The set-up's metrics
(``syntax.parse.*``, ``theory.registry_s``, ``semantics.compile.setup_*``)
come from the traced in-process set-up.

The last line of standard output is the result as one JSON object; the
lines before it are a metric table and a record of the run and machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from calibration import IMPORT_REF_S, Calibrated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

END_TO_END = {"wall_s": "s", "throughput_per_s": "items/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# Which end-to-end metric each layer should move, and where:
#   semantics.eval/.context/.compile, syntax.free_vars: wall_s on
#     lemmas-canonical (eval only) and check-random; about 0 on scan-part4
#   semantics.find_witness/.refutes, search.check_theory,
#     structures.load_structure: wall_s on check-random only
#   search.filter_models/.scan/.scan_candidates_per_s, native.tables: wall_s and
#     throughput_per_s on scan-part4 and equiv (scan self time includes the
#     native checkers, which search keys by identity and so cannot be wrapped)
#   structures.translate/.components/.from_rows: wall_s on equiv
#   syntax.parse, theory.registry_s, semantics.compile.setup_*: setup_s
#     (the set-up compiles every registry formula, so the compile calls of
#     a repetition are cache hits)
#   search.models_found and search.survivor_ratio are exact counts.
_LAYERS = ("semantics.eval", "semantics.find_witness", "semantics.refutes",
           "semantics.context", "semantics.compile", "search.check_theory",
           "native.tables", "structures.translate", "structures.components",
           "structures.load_structure", "structures.from_rows", "syntax.free_vars",
           "cli")
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in _LAYERS},
    **{f"{layer}.self_s": "s" for layer in _LAYERS},
    "semantics.eval.max_s": "s",
    "search.filter_models.calls": "count",
    "search.scan.self_s": "s",
    "search.scan_candidates_per_s": "1/s",
    "search.models_found": "count",
    "search.survivor_ratio": "ratio",
    "syntax.parse.calls": "count",
    "syntax.parse.self_s": "s",
    "semantics.compile.setup_calls": "count",
    "semantics.compile.setup_self_s": "s",
    "theory.registry_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

def _under_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> tuple:
    """Median calibrated and uncalibrated set-up seconds of fresh ``probe.py`` runs.

    Each probe is scaled by the reference imports it did right after its
    set-up, in the same interpreter on the same core.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py")], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, reference, module_file = proc.stdout.split(maxsplit=2)
        if not _under_src(module_file.strip()):
            raise RuntimeError(f"set-up probe imported {module_file.strip()}")
        raw.append(float(elapsed))
        samples.append(raw[-1] * IMPORT_REF_S / float(reference))
    return statistics.median(samples), statistics.median(raw)


def run_repetition(workload, inputs, tracer=None) -> tuple:
    """(seconds, attempted, failed) of one repetition, traced if a tracer is given."""
    if tracer is not None:
        tracer.reset()
        tracing.install(tracer)
    t0 = time.perf_counter()
    try:
        output = workload.run(inputs)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = workload.check(inputs, output)
    return wall, attempted, failed


def layer_metrics(summary: dict, counts: dict) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    for layer in _LAYERS:
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.self_s"] = get(layer, "self_s")
    scan_s = get("search.filter_models", "total_s")
    candidates = counts.get("search.candidates", 0)
    models = counts.get("search.models_found", 0)
    out.update({
        "semantics.eval.max_s": get("semantics.eval", "max_s"),
        "search.filter_models.calls": get("search.filter_models", "calls"),
        "search.scan.self_s": get("search.filter_models", "self_s"),
        "search.scan_candidates_per_s": candidates / scan_s if scan_s else 0.0,
        "search.models_found": models,
        "search.survivor_ratio": models / candidates if candidates else 0.0,
    })
    return out


def measure(workload, seconds: float, tracer=None) -> dict:
    """Repeat the workload for ``seconds``; with a tracer, every other repetition is traced.

    Without a tracer repetition ``i`` takes input ``i`` (the first, untimed
    one takes input 0); with a tracer every repetition takes input 0, so
    that traced and untraced repetitions do the same work and counts repeat.
    """
    walls, calibrated, traced_calibrated, per_rep = [], [], [], []
    spans = None
    _, attempted, failed = run_repetition(workload, workload.inputs(0))
    clock = Calibrated()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        i += 1
        traced = tracer is not None and i % 2 == 0
        inputs = workload.inputs(0 if tracer is not None else i)
        wall, a, f = run_repetition(workload, inputs, tracer if traced else None)
        attempted += a
        failed += f
        if traced:
            traced_calibrated.append(clock.scale(wall))
            per_rep.append(layer_metrics(tracer.summary(), tracer.counts))
            if spans is None:
                spans = tracer.spans
        else:
            walls.append(wall)
            calibrated.append(clock.scale(wall))
    return {"walls": walls, "calibrated": calibrated,
            "traced_calibrated": traced_calibrated, "per_rep": per_rep,
            "spans": spans, "attempted": attempted, "failed": failed}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "machine": platform.machine(),
            "git_commit": _git_commit()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("lemmas-canonical", "scan-part4", "equiv", "check-random"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "gemcheck" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gemcheck sources under {SRC}\n")
        return 2
    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup()

    sys.path.insert(0, str(SRC))
    import gemcheck
    if not _under_src(gemcheck.__file__):
        sys.stderr.write(f"error: imported gemcheck from {gemcheck.__file__}\n")
        return 2
    import probe
    import workloads

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    probe.compile_registries(tracer.wrap("theory.registry", probe.build_registries)())
    tracer.uninstall()
    setup, setup_spans = tracer.summary(), tracer.spans
    if not args.trace:
        tracer = None

    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = measure(workload, args.seconds, tracer)

    if tracer is None:
        wall = statistics.median(result["calibrated"])
        values = {"wall_s": wall, "throughput_per_s": workload.items / wall,
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    else:
        values = {name: statistics.median_low(rep[name] for rep in result["per_rep"])
                  for name in result["per_rep"][0]}
        values["syntax.parse.calls"] = setup.get("syntax.parse", {}).get("calls", 0)
        values["syntax.parse.self_s"] = setup.get("syntax.parse", {}).get("self_s", 0.0)
        values["semantics.compile.setup_calls"] = \
            setup.get("semantics.compile", {}).get("calls", 0)
        values["semantics.compile.setup_self_s"] = \
            setup.get("semantics.compile", {}).get("self_s", 0.0)
        values["theory.registry_s"] = setup["theory.registry"]["total_s"]
        values["trace.wall_s"] = statistics.median(result["traced_calibrated"])
        values["trace.untraced_wall_s"] = statistics.median(result["calibrated"])
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        units = PER_LAYER
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        tracing.dump(out_dir / f"{args.workload}-seed{args.seed}.jsonl",
                     {"setup": setup_spans, "repetition": result["spans"]})

    attempted, failed = result["attempted"], result["failed"]
    for name, unit in units.items():
        print(f"{name:<36} {values[name]:>14.6g} {unit}")
    print(f"{'failed_share':<36} {failed / attempted:>14.6g} ratio")
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(result["walls"]) + len(result["traced_calibrated"]),
        "uncalibrated_wall_s": statistics.median(result["walls"]),
        "uncalibrated_setup_s": raw_setup_s,
        "failed_share": failed / attempted, "environment": environment()}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
