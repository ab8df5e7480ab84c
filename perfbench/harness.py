"""Shared plumbing for the benchmark: locating and importing the program
from the checkout's own ``src`` tree, and timing it fairly on a shared machine."""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
OUT = ROOT / ".bench_out"

# every module of the package; importing them all up front keeps lazy
# imports out of the timed phase
MODULES = (
    "errors", "arith", "exactlinalg", "cubicfield", "assocorder", "quadrep",
    "freeness", "integrality", "cli",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``src/cubicha`` package."""


def import_program() -> dict:
    """Import cubicha afresh from ``<checkout>/src`` and return its modules.

    Any earlier import is dropped first.  An installed copy elsewhere is
    never used.
    """
    if not (SRC / "cubicha" / "__init__.py").is_file():
        raise ProgramMissing(f"no cubicha package under {SRC}")
    for name in [n for n in sys.modules if n == "cubicha" or n.startswith("cubicha.")]:
        del sys.modules[name]
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("cubicha")
    if Path(pkg.__file__).resolve().parent != (SRC / "cubicha").resolve():
        raise ProgramMissing(f"cubicha imported from {pkg.__file__}, not {SRC}")
    mods = {"cubicha": pkg}
    for name in MODULES:
        mods[name] = importlib.import_module(f"cubicha.{name}")
    return mods


def cold_import_s() -> float:
    """Calibrated seconds a fresh interpreter takes to import every module
    of the program from ``<checkout>/src``, the standard-library modules
    they pull in included; interpreter start-up is not counted.  The
    interpreter times the kernel itself, after the import, as it may run
    on another core than this one."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter_ns()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        + "".join(f"import cubicha.{name}\n" for name in MODULES)
        + "t = time.perf_counter_ns() - t0\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import harness, statistics\n"
        "cal = harness.Calibrator()\n"
        "for _ in range(5):\n"
        "    cal.measure()\n"
        "print(t / 1e9 * cal.REFERENCE_MS / statistics.median(cal.times_ms))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, cwd=ROOT)
    return float(proc.stdout)


def clear_caches(mods: dict) -> None:
    """Empty every functools cache in the program, so a repeated pass over
    the same fields costs what a fresh process would pay."""
    for mod in mods.values():
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def kernel() -> None:
    """Trial division on machine-size ints, Fraction arithmetic, products
    of big ints and small-object churn (tuples in sets, dicts, lists): the
    work of cubicha's factorizations, lattice algebra, continued-fraction
    walks and command-line front end."""
    n, p, step = 10**18 + 9, 5, 2
    for _ in range(3000):
        n % p
        p += step
        step = 6 - step
    f = Fraction(1, 3)
    for i in range(1, 120):
        f = f * Fraction(i, i + 2) + Fraction(1, i)
    x, y = 3**300, 7**250
    for _ in range(200):
        x, y = y, x * y % (2**1200 - 1)
    seen = set()
    for i in range(600):
        seen.add((i * 7919 % 1009, -i, i & 1))
        {"a": i, "b": [i, i + 1]}


class Calibrator:
    """Tracks how fast the machine runs right now.

    The shared machine this benchmark was built on swings between speeds
    that differ by half, within a second as well as for seconds at a time,
    with CPU time equal to wall time.  The stdlib ``kernel`` is timed just
    before and just after every operation; the operation's time is scaled
    by REFERENCE_MS over the mean of those two kernel times, i.e. expressed
    at the speed where the kernel takes REFERENCE_MS.
    """

    REFERENCE_MS = 3.5

    def __init__(self):
        self.times_ms: list[float] = []

    def measure(self) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        self.times_ms.append((time.perf_counter_ns() - t0) / 1e6)

    def mark(self) -> int:
        """Index of the newest measurement (taken before an operation)."""
        return len(self.times_ms) - 1

    def scale(self, mark: int) -> float:
        """Factor for an operation that ran between measurement ``mark`` and
        the next one; call it only once that next one exists."""
        return self.REFERENCE_MS / statistics.mean(self.times_ms[mark:mark + 2])
