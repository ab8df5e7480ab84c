"""Every call inside the package to a routine that takes the factorization
budget passes that budget on.  A call that leaves it out falls back to the
default budget, whatever budget its caller was given, and its verdict can
then differ from the one the caller asked for."""

import ast
import inspect
from pathlib import Path

from cubicha import arith, freeness, integrality, quadrep

SRC = Path(__file__).resolve().parent.parent / "src" / "cubicha"

BUDGETED = {
    fn.__name__: list(inspect.signature(fn).parameters).index("limit")
    for fn in (
        arith.factorize,
        quadrep.solve_degenerate,
        quadrep.solve_indefinite,
        quadrep.solve_with_conditions,
        freeness.decide_freeness,
        integrality.is_maximal,
        integrality.combined_verdict,
    )
}

# validate factors gcd(a, b) at the default budget, whatever the caller's
# budget is, as the README documents
AT_THE_DEFAULT = {("cubicfield.py", "validate", "factorize")}


def budgeted_calls(path):
    """(enclosing function, callee, passes the budget) for every call in
    ``path`` of a routine of BUDGETED, by its bare name or through a module
    of the package."""
    modules = {p.stem for p in SRC.glob("*.py")}

    def callee(call):
        fn = call.func
        if isinstance(fn, ast.Name):
            return fn.id
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id in modules:
            return fn.attr
        return None

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            name = callee(child) if isinstance(child, ast.Call) else None
            if name in BUDGETED:
                passed = len(child.args) > BUDGETED[name] or any(kw.arg == "limit" for kw in child.keywords)
                yield owner, name, passed
            yield from visit(child, owner)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "<module>")


def test_every_budgeted_call_passes_the_budget():
    calls = [
        (path.name, *call)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "selfcheck.py"
        for call in budgeted_calls(path)
    ]
    missing = {(name, owner, fn) for name, owner, fn, passed in calls if not passed}
    assert missing == AT_THE_DEFAULT
    # the scan sees every routine: each is called with the budget somewhere
    assert {fn for _, _, fn, passed in calls if passed} == set(BUDGETED)
