"""The per-field records are plain ``__slots__`` classes on one base,
``cubicha.record.Record``, that behave as the frozen dataclasses they
replaced: the same repr, equality, hash and pickling, and no field assigned
after construction.  The three reports are dataclasses, not frozen, under
the same rule: no field is assigned after their generated ``__init__``."""

import ast
import dataclasses
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cubicha import combined_verdict, validate
from cubicha.assocorder import AssociatedOrder, CaseLabel, build
from cubicha.cubicfield import HopfElement, OrderElement, TrinomialCubic
from cubicha.freeness import FreenessReport
from cubicha.integrality import CombinedVerdict, MaximalityReport
from cubicha.quadrep import FormProblem, PellCertificate
from cubicha.record import Record

SRC = Path(__file__).resolve().parent.parent / "src" / "cubicha"

RECORDS = (TrinomialCubic, OrderElement, HopfElement, CaseLabel, AssociatedOrder, FormProblem, PellCertificate)
REPORTS = (FreenessReport, MaximalityReport, CombinedVerdict)


def samples():
    """One instance of each record; those a pipeline makes come from the
    field (3, 3), which is FREE."""
    k = validate(3, 3)
    verdict = combined_verdict(k)
    return (
        k,
        verdict.freeness.generator,
        HopfElement.of(1, Fraction(-1, 2), 0),
        verdict.order.case,
        verdict.order,
        FormProblem(d=-69, n=12, modulus=6, ycoef=9),
        verdict.freeness.pell[0][1],
    )


def test_samples_cover_every_record():
    assert tuple(map(type, samples())) == RECORDS
    assert all(issubclass(cls, Record) for cls in RECORDS)


def test_repr_is_the_dataclass_repr():
    assert repr(validate(3, 3)) == "TrinomialCubic(a=3, b=3, delta=-135, g=3)"
    assert str(validate(3, 3)) == "TrinomialCubic(a=3, b=3, delta=-135, g=3)"
    assert repr(OrderElement(-1, 0, 1)) == "OrderElement(c0=-1, c1=0, c2=1)"
    assert repr(HopfElement.of(1, Fraction(-1, 2), 0)) == (
        "HopfElement(h1=Fraction(1, 1), h2=Fraction(-1, 2), h3=Fraction(0, 1))"
    )
    assert repr(build(validate(3, 3))) == (
        "AssociatedOrder(case=CaseLabel(major='CASE2', minor='V2GE'), index_iw=54, "
        "reduced=((1, 0, 2), (0, 9, 3), (0, 0, 6)), adj=((54, 0, -18), (0, 6, -3), (0, 0, 9)))"
    )
    assert str(CaseLabel("CASE2", "V2GE")) == "CASE2/V2GE"
    assert repr(FormProblem(d=-69, n=12, modulus=6, ycoef=9)) == (
        "FormProblem(d=-69, n=12, modulus=6, ycoef=9)"
    )
    assert repr(PellCertificate("INDEFINITE", (7775, 936), ((3, 1),))) == (
        "PellCertificate(kind='INDEFINITE', fundamental=(7775, 936), "
        "representatives=((3, 1),), orbit_period_mod=None)"
    )


def test_equality_and_hash_by_exact_type_and_fields():
    for rec in samples():
        fields = tuple(getattr(rec, name) for name in type(rec).__slots__)
        twin = type(rec)(*fields)
        assert twin is not rec and twin == rec and not twin != rec
        assert hash(twin) == hash(rec) == hash(fields)
        assert rec != fields
        assert fields != rec
    assert OrderElement(1, 2, 3) != OrderElement(1, 2, 4)
    # equal fields, other type
    assert OrderElement(1, 2, 3) != HopfElement(1, 2, 3)
    assert HopfElement(1, 2, 3) != OrderElement(1, 2, 3)
    assert len({OrderElement(1, 2, 3), HopfElement(1, 2, 3), (1, 2, 3)}) == 3


def test_pickle_round_trip():
    for rec in samples():
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rec, protocol))
            assert type(back) is type(rec) and back == rec and repr(back) == repr(rec), protocol


def test_records_hold_no_other_attributes():
    for rec in samples():
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.extra = 1


# each breaks one hypothesis of FormProblem, with the message it raises
REFUSED = (
    ((-69, 0, 6, 9), "FormProblem needs d, n != 0, got d = -69, n = 0"),
    ((0, 12, 6, 9), "FormProblem needs d, n != 0, got d = 0, n = 12"),
    ((-69, 12, 5, 9), "FormProblem modulus 5 is not 6k, k > 0"),
    ((-69, 12, -6, 9), "FormProblem modulus -6 is not 6k, k > 0"),
    ((-69, 12, 18, 9), "FormProblem modulus 18 does not divide d + ycoef^2 = 12"),
)


def test_form_problem_refuses_each_hypothesis():
    for args, message in REFUSED:
        with pytest.raises(AssertionError) as info:
            FormProblem(*args)
        assert str(info.value) == message


def test_form_problem_refuses_under_optimize(run_optimized):
    out = run_optimized(
        "from cubicha.quadrep import FormProblem\n"
        f"for args in {[args for args, _ in REFUSED]!r}:\n"
        "    try:\n"
        "        FormProblem(*args)\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    assert out.splitlines() == [message for _, message in REFUSED]


def test_no_field_is_assigned_outside_its_own_init():
    # records and reports are not frozen; the package sets a record's
    # fields in that record's __init__ only, a report's in the __init__
    # that dataclasses generates, so nowhere in the source, and calls no
    # setattr
    fields = {name for cls in RECORDS for name in cls.__slots__}
    fields |= {field.name for cls in REPORTS for field in dataclasses.fields(cls)}
    own = {cls.__name__: set(cls.__slots__) for cls in RECORDS}
    own.update((cls.__name__, set()) for cls in REPORTS)
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []

    def visit(node, path, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr in fields:
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            if cls in own:
                allowed = on_self and func == "__init__" and node.attr in own[cls]
            else:
                # an attribute of the same name on another class, as
                # FactorizationLimitError.n and .cofactor
                allowed = on_self and cls is not None
            if not allowed:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("setattr", "__setattr__"):
            found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, cls, func)

    for path in files:
        visit(ast.parse(path.read_text(), filename=str(path)), path, None, None)
    assert found == []


# the reports of the NOT_FREE field (6, 1): CASE3, maximal, and neither
# definite equation has a solution
MAXIMALITY_6_1 = (
    "MaximalityReport(status='MAXIMAL', failing_prime=None, per_prime=((2, '2a', True), "
    "(3, '3c', True)), delta_factors=((3, 3), (31, 1)), cofactor=1)"
)
FREENESS_6_1 = (
    "FreenessReport(index_iw=54, verdict='NOT_FREE', generator=None, "
    "pell=((648, PellCertificate(kind='DEFINITE', fundamental=None, representatives=(), "
    "orbit_period_mod=None)), (-648, PellCertificate(kind='DEFINITE', fundamental=None, "
    "representatives=(), orbit_period_mod=None))), checked_rhs=(648, -648), matched=None, "
    "limit_hit=None)"
)
VERDICT_6_1 = (
    f"CombinedVerdict(maximality={MAXIMALITY_6_1}, freeness={FREENESS_6_1}, "
    "ring_of_integers_free='NOT_FREE', order=AssociatedOrder(case=CaseLabel(major='CASE3', "
    "minor='V2GE'), index_iw=54, reduced=((1, 0, 2), (0, 9, 3), (0, 0, 6)), "
    "adj=((54, 0, -18), (0, 6, -3), (0, 0, 9))))"
)


def test_reports_keep_the_contract_the_benchmark_plants_rely_on():
    # perfbench/selftest.py copies a report with one field changed by
    # dataclasses.replace; the copy must differ, the original must not
    # move, and equal reports must hash equal
    verdict = combined_verdict(validate(6, 1))
    reports = (verdict.freeness, verdict.maximality, verdict)
    pinned = (FREENESS_6_1, MAXIMALITY_6_1, VERDICT_6_1)
    assert tuple(map(type, reports)) == REPORTS
    assert tuple(map(repr, reports)) == pinned
    for rep in reports:
        twin = dataclasses.replace(rep)
        assert twin is not rep and twin == rep and hash(twin) == hash(rep)
        fields = tuple(getattr(rep, field.name) for field in dataclasses.fields(rep))
        assert hash(rep) == hash(fields)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rep, protocol))
            assert type(back) is type(rep) and back == rep and hash(back) == hash(rep), protocol
    planted = (
        dataclasses.replace(verdict.freeness, verdict="FREE"),
        dataclasses.replace(verdict.maximality, status="NOT_MAXIMAL"),
        dataclasses.replace(verdict, ring_of_integers_free=None),
    )
    for rep, plant in zip(reports, planted):
        assert plant != rep and type(plant) is type(rep)
    assert planted[0].verdict == "FREE" and planted[0].checked_rhs == verdict.freeness.checked_rhs
    assert planted[1].status == "NOT_MAXIMAL" and planted[2].ring_of_integers_free is None
    assert tuple(map(repr, reports)) == pinned


def test_only_the_planted_reports_are_dataclasses():
    # perfbench/selftest.py plants faults in these three reports with
    # dataclasses.replace; every other class of the package is plain
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys\n"
            "import cubicha.cli\n"
            "from cubicha.record import Record\n"
            "classes = [obj for name, mod in sorted(sys.modules.items()) if name.startswith('cubicha.')\n"
            "           for obj in vars(mod).values() if isinstance(obj, type) and obj.__module__ == name]\n"
            "print(*sorted(c.__name__ for c in classes if '__dataclass_fields__' in vars(c)))\n"
            "print(*sorted(c.__name__ for c in classes if issubclass(c, Record) and c is not Record))\n",
        ],
        capture_output=True, text=True, check=True, timeout=60,
    )
    dataclasses, records = (line.split() for line in proc.stdout.splitlines())
    assert dataclasses == ["CombinedVerdict", "FreenessReport", "MaximalityReport"]
    assert records == sorted(cls.__name__ for cls in RECORDS)
