"""The set-up that ``setup_s`` times, from a fresh interpreter's first statement.

    PYTHONPATH=src python3 perfbench/probe.py

imports gemcheck, builds the four theory registries (``gem_f``, ``gem_p``,
``pp_axioms``, ``lemma_suite``) and checks the one-element structure
against each of them, which compiles every obligation as the first check
of a ``gemcheck`` process does.  It prints the seconds from its first
statement to the end of that work, the seconds of the reference imports
of ``calibration.py`` done right after it, and the file gemcheck came from.
``run.py`` runs it in fresh interpreters for ``setup_s`` and calls
:func:`build_registries` and :func:`compile_registries` in-process for
the set-up's per-layer metrics.
"""

import time

T0 = time.perf_counter()

from gemcheck import search, structures, theory  # noqa: E402

WARM_STRUCTURE = "n=1\npart: (0,0)\n"


def build_registries() -> list:
    return [build() for build in
            (theory.gem_f, theory.gem_p, theory.pp_axioms, theory.lemma_suite)]


def compile_registries(theories: list) -> None:
    s = structures.load_structure(WARM_STRUCTURE)
    for t in theories:
        search.check_theory(s, t)


if __name__ == "__main__":
    compile_registries(build_registries())
    elapsed = time.perf_counter() - T0
    import gemcheck
    from calibration import time_reference_import
    print(elapsed, time_reference_import(), gemcheck.__file__)
