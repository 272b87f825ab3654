"""The benchmark's tracer must find every boundary it wraps and put each back.

``perfbench/tracing.py`` patches names where gemcheck's modules look them
up, so a refactor that moves or drops one of those names breaks the traced
benchmark runs; this keeps that visible in the test suite.
"""

import importlib.util
from pathlib import Path

from gemcheck import cli, native, search, semantics, structures, theory

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_boundary():
    tracing = _load_tracing()
    owners = (cli, native, search, semantics, structures, theory,
              semantics.Evaluator, structures.FusionStructure)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert semantics.compiled is not before[3]["compiled"]
        assert cli.induced_fusion is not before[0]["induced_fusion"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_row_search_builds_native_tables_once_per_leaf():
    # one build per leaf of the row search, so any change to the work a
    # scan does shows here: on gem_p's down-closed poset rows with the top
    # last (the 7 naturally labeled posets on three points, each below a
    # top, at n=4), and on gem_f's single-element rows
    cases = [("part", 4, theory.gem_p, 7), ("part", 5, theory.gem_p, 40),
             ("part", 6, theory.gem_p, 357), ("fusion", 3, theory.gem_f, 3),
             ("fusion", 4, theory.gem_f, 9), ("fusion", 5, theory.gem_f, 46)]
    tracing = _load_tracing()
    for kind, n, make, leaves in cases:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            search.filter_models(kind, n, make())
        finally:
            tracer.uninstall()
        assert tracer.summary()["native.tables"]["calls"] == leaves, (kind, n)
