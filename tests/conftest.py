import subprocess
import sys

import pytest


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
