import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import gemcheck
from gemcheck import canonical_gem, dump_structure, induced_fusion, search
from gemcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def k2_file(tmp_path):
    p = tmp_path / "k2.structure"
    p.write_text(dump_structure(canonical_gem(2)))
    return str(p)


def test_check_pass(k2_file):
    code, out, _ = run_cli("check", k2_file, "gem_p")
    assert code == 0 and "ref_P" in out


def test_check_fail_lists_obligation(tmp_path):
    p = tmp_path / "empty.structure"
    p.write_text("n=1\nfusion:\n")
    code, out, _ = run_cli("check", str(p), "gem_f", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"][0]["obligation"] == "exists_F"


def test_check_malformed_file(tmp_path):
    p = tmp_path / "bad.structure"
    p.write_text("nonsense\n")
    code, _, err = run_cli("check", str(p), "gem_p")
    assert code == 2 and "error" in err


def test_check_missing_file():
    code, _, _ = run_cli("check", "/nonexistent", "gem_p")
    assert code == 2


def test_check_directory(tmp_path):
    code, _, err = run_cli("check", str(tmp_path), "gem_f")
    assert code == 2 and err.startswith("error:")


def test_check_undecodable_file(tmp_path):
    p = tmp_path / "binary.structure"
    p.write_bytes(b"n=1\npart: \xff\xfe\n")
    code, _, err = run_cli("check", str(p), "gem_p")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_internal_error_is_not_a_usage_error(monkeypatch, k2_file, error):
    def broken(s, t):
        raise error("internal")
    monkeypatch.setattr(search, "check_theory", broken)
    with pytest.raises(error):
        run_cli("check", k2_file, "gem_p")


def test_unknown_subcommand_and_theory(k2_file):
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    code, _, _ = run_cli("check", k2_file, "nope")
    assert code == 2


def test_equiv_vacuous():
    code, out, _ = run_cli("equiv", "--max-part", "0", "--max-fusion", "0",
                           "--format", "json", "--workers", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []


def test_equiv_deterministic_json():
    args = ("equiv", "--max-part", "2", "--max-fusion", "2", "--format", "json")
    assert run_cli(*args, "--workers", "1") == run_cli(*args, "--workers", "1") \
        == run_cli(*args)


@pytest.mark.parametrize("argv", [
    ("equiv", "--max-part", "3", "--max-fusion", "2"),
    ("lemmas", "--max-part", "3", "--max-fusion", "2", "--canonical-k", "2"),
    ("countermodel", "--kind", "fusion", "--theory", "gem_f", "--drop", "wsp_F",
     "--target", "wsp_F", "--max-n", "2"),
    ("models", "--kind", "fusion", "--n", "3", "--theory", "gem_f"),
])
def test_json_bytes_do_not_depend_on_the_hash_seed(argv):
    # syntax nodes and structures hash through their field values, so string
    # hashes reach every set and dict keyed by them; no report may show it
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(gemcheck.__file__).parents[1]))
        outputs.append(subprocess.run([sys.executable, "-m", "gemcheck.cli", *argv,
                                       "--format", "json"], env=env, timeout=120,
                                      capture_output=True).stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_serial_runs_never_import_multiprocessing():
    # the pool's import is paid only by a run that starts one, and by
    # default no run does
    script = ("import sys\n"
              "import gemcheck\n"
              "from gemcheck.cli import main\n"
              "main(['equiv', '--max-part', '2', '--max-fusion', '2', '--workers', '1'])\n"
              "main(['equiv'])\n"
              "print('multiprocessing' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gemcheck.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                         capture_output=True, check=True).stdout
    assert out.splitlines()[-1] == b"False"


def test_import_loads_neither_dataclasses_nor_inspect():
    # gemcheck uses neither; measured against a bare interpreter, since
    # site may load some modules before the first statement runs
    script = ("import sys\n"
              "bare = set(sys.modules)\n"
              "import gemcheck.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gemcheck.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                         capture_output=True, check=True).stdout
    assert out == b"[]\n"


@pytest.mark.parametrize("command", ["check", "equiv", "lemmas", "models",
                                     "countermodel"])
def test_timings_flag_adds_elapsed(command, k2_file):
    base = {
        "check": ("check", k2_file, "gem_p"),
        "equiv": ("equiv", "--max-part", "1", "--max-fusion", "1", "--workers", "1"),
        "lemmas": ("lemmas", "--max-part", "1", "--max-fusion", "1",
                   "--canonical-k", "1", "--workers", "1"),
        "models": ("models", "--kind", "part", "--n", "2", "--theory", "gem_p",
                   "--workers", "1"),
        "countermodel": ("countermodel", "--kind", "fusion", "--theory", "gem_f",
                         "--drop", "id_F", "--target", "id_F", "--max-n", "1",
                         "--workers", "1"),
    }[command]
    # elapsed_ms is the only field --timings adds, and only to JSON
    _, out, _ = run_cli(*base, "--format", "json")
    _, timed, _ = run_cli(*base, "--format", "json", "--timings")
    timed = json.loads(timed)
    assert isinstance(timed.pop("elapsed_ms"), int)
    assert timed == json.loads(out)
    assert run_cli(*base, "--timings") == run_cli(*base)


def test_lemmas_single_name():
    code, out, _ = run_cli("lemmas", "--name", "FUIx", "--max-fusion", "2",
                           "--canonical-k", "2", "--workers", "1")
    assert code == 0
    assert out.splitlines() == ["FUIx       [gem_f] pass (3 models)"]


def test_lemmas_unknown_name():
    assert run_cli("lemmas", "--name", "nope", "--workers", "1") == (
        2, "", "error: no obligation named 'nope' in theory lemmas\n")


def test_lemmas_small_bounds_json():
    code, out, _ = run_cli("lemmas", "--max-part", "1", "--max-fusion", "1",
                           "--canonical-k", "2", "--format", "json",
                           "--workers", "1")
    assert code == 0
    payload = json.loads(out)
    assert all(r["passed"] for r in payload["rows"])
    assert len(payload["rows"]) == 19


def test_models_json_schema():
    code, out, _ = run_cli("models", "--kind", "part", "--n", "3", "--theory",
                           "gem_p", "--format", "json", "--workers", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["models"] == 3 and payload["candidates"] == 512
    assert set(payload) == {"theory", "kind", "n", "candidates", "models",
                            "failures", "seed", "structures"}


def test_models_text_lists_structures():
    code, out, _ = run_cli("models", "--kind", "part", "--n", "3", "--theory",
                           "gem_p", "--workers", "1")
    assert code == 0 and out.strip().endswith("3 models")
    assert sum(1 for l in out.splitlines() if l.startswith("n=3 part:")) == 3


def test_countermodel_cli():
    code, out, _ = run_cli("countermodel", "--kind", "fusion", "--theory",
                           "gem_f", "--drop", "wsp_F", "--target", "wsp_F",
                           "--max-n", "2", "--format", "json", "--workers", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "found"


def test_countermodel_unknown_target():
    base = ("countermodel", "--kind", "part", "--theory", "gem_p", "--workers", "1")
    assert run_cli(*base, "--target", "nope") == (
        2, "", "error: no registry formula named 'nope'\n")
    assert run_cli(*base, "--drop", "nope", "--target", "ref_P") == (
        2, "", "error: no obligation named 'nope' in theory gem_p\n")


@pytest.mark.parametrize("argv", [
    ("check", "k2.structure", "gem_p", "--seed", "1"),
    ("lemmas", "--seed", "1"),
    ("export", "--all", "--seed", "1"),
    ("export", "--all", "--format", "json"),
    ("export", "--all", "--timings"),
])
def test_flags_without_effect_are_rejected(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert code == 2 and not out and "unrecognized arguments" in err
    assert not (tmp_path / "obligations").exists()


def test_countermodel_target_resolves_on_the_run_side():
    # gem_p's fun_F (fusion unfolded to P) has a countermodel here, the
    # gem_f-side lemma fun_F has none
    code, out, _ = run_cli("countermodel", "--kind", "fusion", "--theory", "gem_f",
                           "--drop", "wsp_F", "--target", "fun_F", "--max-n", "2",
                           "--format", "json", "--workers", "1")
    assert code == 0 and json.loads(out)["verdict"] == "exhausted bounds"


def test_export_all(tmp_path):
    out_dir = tmp_path / "obs"
    code, out, _ = run_cli("export", "--all", "--out", str(out_dir))
    assert code == 0
    assert len(list(out_dir.glob("*.p"))) == 19


def test_export_single(tmp_path):
    code, out, _ = run_cli("export", "--name", "FUIx", "--out",
                           str(tmp_path / "one"))
    assert code == 0
    assert (tmp_path / "one" / "FUIx.p").exists()


def test_export_name_to_stdout_matches_the_written_file(tmp_path):
    # --name with --out '' prints the problem instead of writing it; the
    # bytes are those of the file --out DIR writes, and of --all's file
    code, _, _ = run_cli("export", "--all", "--out", str(tmp_path / "all"))
    assert code == 0
    for name in ("FUIx", "fun_F", "comp_F"):
        code, printed, _ = run_cli("export", "--name", name, "--out", "")
        assert code == 0
        code, out, _ = run_cli("export", "--name", name, "--out", str(tmp_path / "one"))
        path = tmp_path / "one" / f"{name}.p"
        assert code == 0 and out == f"{path}\n"
        assert printed.encode() == path.read_bytes() == (tmp_path / "all" / f"{name}.p").read_bytes()


def test_export_needs_selection():
    code, _, _ = run_cli("export")
    assert code == 2


def test_capacity_exit_code():
    code, _, err = run_cli("models", "--kind", "fusion", "--n", "5",
                           "--theory", "gem_f", "--workers", "1")
    assert code == 3 and "capacity" in err


@pytest.mark.parametrize("argv", [("equiv", "--max-part", "9"), ("equiv", "--max-fusion", "5"),
                                  ("lemmas", "--max-part", "9"), ("lemmas", "--max-fusion", "5"),
                                  ("countermodel", "--kind", "fusion", "--theory", "gem_f",
                                   "--target", "id_F", "--max-n", "5")])
def test_capacity_fails_before_any_scan(monkeypatch, argv):
    # the largest size is checked first, so nothing is scanned before exit 3
    def no_scan(args):
        raise AssertionError("a size was scanned before the capacity check")
    kind, n, theory = (("part", 9, gemcheck.gem_p()) if "--max-part" in argv
                       else ("fusion", 5, gemcheck.gem_f()))
    with pytest.raises(gemcheck.CapacityError) as lazily:
        gemcheck.filter_models(kind, n, theory)
    monkeypatch.setattr(search, "_scan_worker", no_scan)
    code, out, err = run_cli(*argv, "--workers", "1")
    assert (code, out, err) == (3, "", f"capacity: {lazily.value}\n")


def test_canonical_capacity_fails_before_any_scan(monkeypatch):
    # the canonical model on 31 elements is refused before part n=0..8 is scanned
    def no_scan(args):
        raise AssertionError("a size was scanned before the capacity check")
    monkeypatch.setattr(search, "_scan_worker", no_scan)
    assert run_cli("lemmas", "--name", "WSP", "--canonical-k", "5", "--max-part", "8",
                   "--max-fusion", "0", "--workers", "1") == \
        (3, "", "capacity: formula evaluation needs 2^31 pluralities\n")


def test_equiv_reaches_part_7():
    code, out, _ = run_cli("equiv", "--max-part", "7", "--max-fusion", "0",
                           "--format", "json", "--workers", "1")
    d = json.loads(out)
    row = d["part_side"][7]
    assert (row["models"], row["fusion_axioms_pass"], row["def_pf_pass"],
            row["round_trip_pass"], row["injective"]) == (840, 840, 840, 840, True)
    assert code == 0 and d["violations"] == []


@pytest.mark.parametrize("kind,theory_name,target,max_n", [
    ("part", "gem_p", "ref_P", 1000), ("fusion", "gem_f", "id_F", 17)])
def test_random_countermodel_past_the_evaluator_exits_3(kind, theory_name, target, max_n):
    # refused before any bits are drawn: n*n or n*2^n of them would take
    # minutes or exhaust memory
    argv = ("countermodel", "--kind", kind, "--theory", theory_name, "--target", target,
            "--strategy", "random", "--max-n", str(max_n))
    t0 = time.monotonic()
    code, out, err = run_cli(*argv)
    assert time.monotonic() - t0 < 1
    assert (code, out) == (3, "") and err.startswith("capacity:")
    assert run_cli(*argv, "--samples", "0") == (0, "sample budget spent\n", "")


def test_oversized_structure_literal_exit_code(tmp_path):
    # a literal past 16 elements is refused on loading, before any row is allocated
    for literal in ("n=17\nfusion: ({0},0)\n", f"n={10 ** 12}\npart:\n"):
        p = tmp_path / "big.structure"
        p.write_text(literal)
        code, _, err = run_cli("check", str(p), "gem_f")
        assert code == 3 and "capacity" in err, literal


@pytest.mark.parametrize("argv", [("lemmas", "--canonical-k", "20000"),
                                  ("lemmas", "--canonical-k", "10000000"),
                                  ("check", "HUGE", "gem_p")],
                         ids=["canonical-k-20000", "canonical-k-10000000", "header-5000-digits"])
def test_sizes_too_long_to_print_exit_3(tmp_path, argv):
    # 2^k - 1 is never built, and a header of 5 000 digits never read as
    # an int: either would pass Python's limit on int-to-text conversion
    huge = tmp_path / "huge.structure"
    huge.write_text("n=" + "9" * 5000 + "\npart:\n")
    argv = [str(huge) if a == "HUGE" else a for a in argv]
    t0 = time.monotonic()
    code, out, err = run_cli(*argv)
    assert time.monotonic() - t0 < 1
    assert (code, out) == (3, "")
    assert err.startswith("capacity: ") and err.count("\n") == 1 and err.endswith("\n")


def test_invalid_worker_and_size_flags():
    code, _, err = run_cli("equiv", "--workers", "0")
    assert code == 2 and "workers" in err
    code, _, _ = run_cli("lemmas", "--max-part", "-1", "--workers", "1")
    assert code == 2


@pytest.mark.parametrize("argv,golden", [
    (("lemmas", "--max-part", "3", "--max-fusion", "2", "--canonical-k", "2"),
     "lemmas_small.json"),
    (("models", "--kind", "fusion", "--n", "3", "--theory", "gem_f"),
     "models_fusion3_gem_f.json"),
])
def test_json_matches_golden(argv, golden):
    code, out, _ = run_cli(*argv, "--format", "json", "--workers", "1")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("theory_name", ["gem_p", "gem_f"])
@pytest.mark.parametrize("kind,literal", [
    ("part", "n=2\npart: (0,0) (0,1) (1,0)\n"),
    ("fusion", "n=2\nfusion: ({0},1) ({0,1},0) ({},1)\n"),
])
def test_check_failure_json_matches_golden(tmp_path, kind, literal, theory_name):
    p = tmp_path / f"{kind}.structure"
    p.write_text(literal)
    code, out, _ = run_cli("check", str(p), theory_name, "--format", "json")
    assert code == 1
    assert out == (GOLDEN / f"check_{kind}_{theory_name}.json").read_text()


@pytest.mark.parametrize("argv,golden,exit_code", [
    (("check", "k2.structure", "gem_p"), "check_pass.txt", 0),
    (("check", "antisym.structure", "gem_p"), "check_fail.txt", 1),
    (("equiv",), "equiv.txt", 0),
    (("lemmas", "--max-part", "3", "--max-fusion", "2", "--canonical-k", "2"),
     "lemmas_small.txt", 0),
    (("models", "--kind", "part", "--n", "3", "--theory", "gem_p"),
     "models_part3_gem_p.txt", 0),
    (("countermodel", "--kind", "fusion", "--theory", "gem_f", "--drop", "wsp_F",
      "--target", "wsp_F", "--max-n", "2"), "countermodel_found.txt", 0),
    (("countermodel", "--kind", "fusion", "--theory", "gem_f", "--drop", "wsp_F",
      "--target", "fun_F", "--max-n", "2"), "countermodel_exhausted.txt", 0),
])
def test_text_matches_golden(argv, golden, exit_code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k2.structure").write_text(dump_structure(canonical_gem(2)))
    (tmp_path / "antisym.structure").write_text("n=2\npart: (0,0) (0,1) (1,0)\n")
    assert run_cli(*argv) == (exit_code, (GOLDEN / golden).read_text(), "")


def test_export_all_bytes_match_golden(tmp_path):
    code, out, err = run_cli("export", "--all", "--out", str(tmp_path))
    paths = [Path(line) for line in out.splitlines()]
    assert (code, err, len(paths)) == (0, "", 19)
    digest = hashlib.sha256()
    for p in sorted(paths):
        digest.update(p.name.encode() + b"\n" + p.read_bytes())
    assert digest.hexdigest() == (GOLDEN / "export_all.sha256").read_text().strip()
