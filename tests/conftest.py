import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubicha import assocorder


def pytest_configure(config):
    # tests that start "python -m cubicha" or "python -O -c ..." need the
    # package of this checkout, which pytest's pythonpath setting gives only
    # to its own process
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def run_optimized():
    """Run code under ``python -O``, which strips every assert statement,
    and return its stdout; the leading ``assert False`` makes sure they
    really are stripped."""

    def run(code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-O", "-c", "assert False\n" + code],
            capture_output=True, text=True, check=True, timeout=60,
        )
        return proc.stdout

    return run


@pytest.fixture
def build_calls(monkeypatch):
    """The (a, b) of every ``assocorder.build`` call made during the test.
    build is wrapped at every module binding, as a caller cannot tell which
    module a call goes through."""
    calls = []
    orig = assocorder.build

    def counting(k):
        calls.append((k.a, k.b))
        return orig(k)

    for name, mod in list(sys.modules.items()):
        if name == "cubicha" or name.startswith("cubicha."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counting)
    return calls
