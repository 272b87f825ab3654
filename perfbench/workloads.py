"""The benchmark's workloads: inputs, the timed call into gemcheck, the verdict check.

Every workload goes through a public entry point: ``gemcheck.cli.main``
with ``--workers 1`` (so all work stays in this process), or
``gemcheck.search.check_theory`` on structures read by
``gemcheck.structures.load_structure``.  ``run`` is the timed region;
``inputs`` and ``check`` run outside it.

Expected answers come from the paper's known results (GEM models exist
only at sizes 2^k - 1, so the counts up to n=4 are 1, 1, 0, 3, 0), from
byte records taken at the seed commit under ``expected/``, or from the
independent native checkers applied to tables the benchmark builds from
its own relation encoding.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from pathlib import Path

from gemcheck import cli, native, search, structures, theory

EXPECTED = Path(__file__).resolve().parent / "expected"


def call_cli(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process ``gemcheck`` command.

    An exception escaping ``main`` is reported as exit code None with the
    traceback as stderr, so that it counts as a failed verdict.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class CliWorkload:
    """A fixed list of ``gemcheck`` command lines; the seed does not change them."""

    argvs: list

    def inputs(self, i: int):
        return self.argvs

    def run(self, argvs):
        return [call_cli(argv) for argv in argvs]


class Equiv(CliWorkload):
    """``equiv`` at default bounds: the paper's headline verdict."""

    name = "equiv"
    argvs = [["equiv", "--format", "json", "--workers", "1"]]

    def __init__(self, seed: int):
        self.expected_bytes = (EXPECTED / "equiv.json").read_text()
        self.part_counts = [1, 1, 0, 3, 0]
        self.fusion_counts = [1, 1, 0, 3]
        recorded = json.loads(self.expected_bytes)
        self.items = sum(row["candidates"] for side in ("part_side", "fusion_side")
                         for row in recorded[side])

    def check(self, argvs, outputs) -> tuple:
        [(rc, out, _)] = outputs
        d = _json_or_none(out)
        ok = (rc == 0 and out == self.expected_bytes and d is not None
              and [r["models"] for r in d["part_side"]] == self.part_counts
              and [r["models"] for r in d["fusion_side"]] == self.fusion_counts
              and d["violations"] == [])
        return 1, 0 if ok else 1


class ScanPart4(CliWorkload):
    """``models --kind part --n 4``: a full part-side scan that finds nothing."""

    name = "scan-part4"
    argvs = [["models", "--kind", "part", "--n", "4", "--theory", "gem_p",
              "--format", "json", "--workers", "1"]]

    def __init__(self, seed: int):
        self.models = 0
        self.items = 1 << 16

    def check(self, argvs, outputs) -> tuple:
        [(rc, out, _)] = outputs
        d = _json_or_none(out)
        ok = (rc == 0 and d is not None and d["models"] == self.models
              and d["candidates"] == self.items and d["structures"] == [])
        return 1, 0 if ok else 1


class LemmasCanonical(CliWorkload):
    """Each lemma obligation on a canonical model, one ``lemmas`` call apiece.

    Scan bounds are 0 so the canonical model dominates.  ``ext_F`` is
    checked on the 3-element canonical model because its evaluation on
    the 7-element one takes longer than a benchmark run may last.
    """

    name = "lemmas-canonical"
    lemmas = ("FIx", "P_F2", "ref_P", "antis_P", "trans_P", "fun_F", "cltosum",
              "FUIx", "sumtocl", "defUP", "WSP", "F_P_Mub", "id_F", "ext_F",
              "comp_F", "wsp_F", "approx_F", "defPF", "defUF")
    argvs = [["lemmas", "--canonical-k", "2" if name == "ext_F" else "3",
              "--max-part", "0", "--max-fusion", "0", "--name", name,
              "--format", "json", "--workers", "1"]
             for name in lemmas]

    def __init__(self, seed: int):
        self.models_checked = 2
        self.items = len(self.lemmas) * self.models_checked

    def check(self, argvs, outputs) -> tuple:
        failed = 0
        for name, (rc, out, _) in zip(self.lemmas, outputs):
            d = _json_or_none(out)
            rows = d["rows"] if d is not None else []
            ok = (rc == 0 and len(rows) == 1 and rows[0]["name"] == name
                  and rows[0]["passed"] is True and rows[0]["failures"] == []
                  and rows[0]["models_checked"] == self.models_checked)
            failed += not ok
        return len(self.lemmas), failed


def report_digest(report) -> str:
    """Short digest of a check report's JSON bytes, witnesses included."""
    return hashlib.sha256(search.report_json(report.to_dict()).encode()).hexdigest()[:16]


def _recorded_digests(seed: int):
    """Report digests of batch 0 recorded for ``seed``, or None.

    The record file is absent only while ``record_expected.py`` writes it.
    """
    try:
        record = json.loads((EXPECTED / "check_random.json").read_text())
    except FileNotFoundError:
        return None
    return record["digests"] if record["seed"] == seed else None


class CheckRandom:
    """``check_theory`` of gem_f, gem_p and pp on seeded random structure literals.

    A batch holds a fixed number of structures of each kind and size
    (parthood n <= 4, fusion n <= 3), so batches cost about the same and
    only the relations are random.  Parthood n=4 gets fewer structures:
    one costs about 20 ms with a coefficient of variation of 0.75, against
    at most 5 ms and 0.45 for the other sizes, so with equal counts it
    would set most of the batch-to-batch spread.
    """

    name = "check-random"
    sizes = ([("part", n, 12) for n in range(4)] + [("part", 4, 4)]
             + [("fusion", n, 12) for n in range(4)])

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.theories = (theory.gem_f(), theory.gem_p(), theory.pp_axioms())
        self.items = (sum(count for (_, _, count) in self.sizes)
                      * sum(len(t.obligations) for t in self.theories))
        self.recorded_digests = _recorded_digests(seed)
        self.first = self._batch()

    def _literal(self, kind: str, n: int) -> tuple:
        """(literal text, native tables) of one random relation."""
        rng = self.rng
        if kind == "part":
            code = rng.getrandbits(n * n)
            pairs = [(x, y) for x in range(n) for y in range(n)
                     if (code >> (x * n + y)) & 1]
            down = [0] * n
            for (x, y) in pairs:
                down[y] |= 1 << x
            body = " ".join(f"({x},{y})" for (x, y) in pairs)
            return f"n={n}\npart: {body}\n", native.part_tables(n, down)
        code = rng.getrandbits(n << n)
        rows = [(code >> (p * n)) & ((1 << n) - 1) for p in range(1 << n)]
        toks = []
        for p, row in enumerate(rows):
            inner = ",".join(str(i) for i in range(n) if (p >> i) & 1)
            toks += [f"({{{inner}}},{x})" for x in range(n) if (row >> x) & 1]
        return f"n={n}\nfusion: {' '.join(toks)}\n", native.fusion_tables(n, rows)

    def _batch(self) -> list:
        return [self._literal(kind, n)
                for (kind, n, count) in self.sizes for _ in range(count)]

    def inputs(self, i: int):
        """Batch 0, or for ``i`` > 0 the next batch of the seeded stream.

        Only batch 0 is kept, so memory does not grow with the number of
        repetitions.
        """
        return self.first if i == 0 else self._batch()

    def run(self, batch):
        """Per literal, its three reports, or None if checking it raised."""
        out = []
        for text, _ in batch:
            try:
                s = structures.load_structure(text)
                out.append([search.check_theory(s, t) for t in self.theories])
            except Exception:
                traceback.print_exc()
                out.append(None)
        return out

    def check(self, batch, reports) -> tuple:
        recorded = (iter(self.recorded_digests)
                    if batch is self.first and self.recorded_digests else None)
        attempted = failed = 0
        for (_, tables), per_theory in zip(batch, reports):
            for j, t in enumerate(self.theories):
                expected = [(nf.name, native.native_for(nf.sentence)(tables))
                            for nf in t.obligations]
                attempted += len(expected)
                report = per_theory[j] if per_theory is not None else None
                digest = next(recorded) if recorded is not None else None
                if report is None or (digest is not None
                                      and report_digest(report) != digest):
                    failed += len(expected)
                    continue
                verdicts = [(r.name, r.passed) for r in report.results]
                failed += sum(a != b for a, b in zip(verdicts, expected))
                failed += abs(len(verdicts) - len(expected))
        return attempted, failed


WORKLOADS = {w.name: w for w in (LemmasCanonical, ScanPart4, Equiv, CheckRandom)}
