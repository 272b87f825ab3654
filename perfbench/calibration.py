"""Calibration of times against fixed work, for a machine whose speed drifts.

On a machine shared with other tenants the speed of one core drifts by a
third or more within a minute.  A timed interval is scaled by a reference
time over the time of fixed work done next to it; the result is the
interval's length at the speed the machine had when the reference was
measured.  Repetitions are calibrated by a pure-Python loop
(``CAL_REF_S``), the set-up by importing standard-library modules that
gemcheck does not import (``IMPORT_REF_S``): an import reads, unmarshals
and executes modules as gemcheck's own import does, and slows down with it.
"""

from __future__ import annotations

import importlib
import time

#: iterations of the calibration loop, and its median time on the machine
#: where baseline.json was recorded (2-core Intel Xeon, Python 3.11.7)
CAL_LOOP = 60_000
CAL_REF_S = 0.015
#: the reference imports, and their time in a fresh interpreter on that
#: machine while the loop took ``CAL_REF_S``
IMPORT_REF_MODULES = ("email.mime.multipart", "http.server", "xml.dom.minidom",
                      "unittest")
IMPORT_REF_S = 0.036


def time_reference_import() -> float:
    """Seconds taken to import ``IMPORT_REF_MODULES``; call once per interpreter."""
    t0 = time.perf_counter()
    for name in IMPORT_REF_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds taken by a fixed loop shaped like the evaluator's inner loop.

    Closure calls, dict lookups and small-int bit tests slow down under
    contention about as gemcheck does; a plain arithmetic loop tracked the
    workloads' drift about half as well.
    """
    def leaf(env, a="x", b="y"):
        return (env[a] >> env[b]) & 1 == 1

    def node(env, f=leaf):
        return f(env) or not f(env)

    env = {}
    t0 = time.perf_counter()
    for i in range(CAL_LOOP):
        env["x"] = i
        env["y"] = i & 7
        node(env)
    return time.perf_counter() - t0


class Calibrated:
    """Scales consecutive intervals by the calibration loop run between them."""

    def __init__(self):
        self.last = calibrate()

    def scale(self, seconds: float) -> float:
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor
