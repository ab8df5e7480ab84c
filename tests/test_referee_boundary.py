"""The referee routines live in ``selfcheck``, which only ``cubicha verify``
loads, and rationals stay out of the integer production modules."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cubicha"

# the modules that may import fractions: the HopfElement coordinates, the
# Fraction referee routines and the suites
FRACTION_MODULES = {"cubicfield.py", "exactlinalg.py", "selfcheck.py"}

REFEREE_ONLY = {
    "periodic_sqrt_cf", "trace", "verify_sqrt_identity", "_mul_coords",
    "h_closed_form", "in_order", "basis_matrix", "brute_force_generator",
    "minors_gcd", "order_basis", "referee_order_certificates", "alaca_condition",
}


def test_referee_code_stays_off_the_production_path():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from cubicha import cli\n"
         "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
         "    cli.main(['analyze', '--a', '3', '--b', '1'])\n"
         "    cli.main(['scan', '--a-range=-2:2', '--b-range=-2:2'])\n"
         "print('cubicha.selfcheck' in sys.modules)\n"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout == "False\n"

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    importers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    }
    assert importers == FRACTION_MODULES

    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in REFEREE_ONLY
    }
    assert defined == {("selfcheck.py", fn) for fn in REFEREE_ONLY}
