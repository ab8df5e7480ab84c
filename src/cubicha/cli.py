"""Command-line front end.

    cubicha analyze --a 1 --b 1 [--format json|text] ...
    cubicha scan --a-range 1:3 --b-range 1:3 [--out scan.csv] [--jobs 4]
    cubicha verify [--grid 20] [--seed 0]

All numeric output is exact: integers stay integers and rationals are
rendered as "num/den" strings.  Exit codes: 0 decided verdict (or every
verify suite passed), 1 a verify suite failed, 2 validation rejection,
3 undecided (a factorization limit was hit), 64 usage error (including a
negative --trial-division-limit or CHA_TRIAL_DIVISION_LIMIT, and a scan
range with lo > hi), 74 unwritable output.

`analyze` writes its JSON with its own writer, ``_write_json``, whose bytes
are those of ``json.dumps(doc, indent=2)``.  It converts each distinct
integer to decimal once, up to sign, where the stdlib's pure-Python
indenting encoder converts every occurrence; it still loads ``json``, for
the C string escaper.  An integer above 4,000 bits is printed by halving
(``_decimal``): split at a power of ten whose exponent is a power of two,
each half printed the same way, which beats the quadratic ``str()`` of
Python 3.10 and 3.11; from 3.12 on, ``str()`` takes over above the size
where CPython's own subquadratic conversion is faster.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from itertools import chain
from math import gcd
from operator import itemgetter

from . import __version__
from .arith import DEFAULT_TRIAL_DIVISION_LIMIT, RHO_ITERATION_COST, TRIAL_DIVISION_BOUND
from .cubicfield import REDUCED_LOOSE, REDUCED_STRICT, validate
from .errors import ValidationError
from .freeness import UNDECIDED
from .integrality import MAXIMAL, NOT_MAXIMAL, UNDECIDED_FACTORIZATION, combined_verdict

EX_OK = 0
EX_VERIFY_FAILED = 1
EX_REJECTED = 2
EX_UNDECIDED = 3
EX_USAGE = 64
EX_IOERR = 74

CSV_HEADER = "a,b,delta,g,case,iw,maximal,verdict,beta1,beta2,beta3"

ENV_TRIAL_LIMIT = "CHA_TRIAL_DIVISION_LIMIT"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the documented usage-error code is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _basis_text(order) -> list:
    """The basis vectors of ``order``, the columns of adj(R)/det R, with each
    entry in lowest terms as ``str(Fraction)`` writes it: "n" when the
    denominator is 1, else "n/m".  Integer gcds only, so that analyze does
    not load ``fractions``."""
    d = order.index_iw
    return [
        [str(x // g) if (g := gcd(x, d)) == d else f"{x // g}/{d // g}" for x in col]
        for col in zip(*order.adj)
    ]


def _maximality_dict(rep) -> dict:
    return {
        "status": rep.status,
        "failing_prime": rep.failing_prime,
        "per_prime": [[p, label, ok] for p, label, ok in rep.per_prime],
        "delta_factors": [[p, e] for p, e in rep.delta_factors],
        "unfactored_cofactor": rep.cofactor,
    }


def _freeness_dict(rep) -> dict:
    out = {
        "verdict": rep.verdict,
        "index_iw": rep.index_iw,
        "generator": list(rep.generator.coords) if rep.generator else None,
        "checked_rhs": list(rep.checked_rhs),
        "matched_solution": list(rep.matched) if rep.matched else None,
        "pell": [
            {
                "rhs": rhs,
                "kind": cert.kind,
                "fundamental": list(cert.fundamental) if cert.fundamental else None,
                "representatives": [list(r) for r in cert.representatives],
                "orbit_period_mod": cert.orbit_period_mod,
            }
            for rhs, cert in rep.pell
        ],
    }
    if rep.limit_hit is not None:
        out["limit_hit"] = rep.limit_hit
    return out


def analyze_document(a: int, b: int, convention: str, limit: int) -> tuple[dict, int]:
    """Build the full analysis document and its process exit code."""
    started = time.perf_counter_ns()
    doc = {
        "tool": "cubicha",
        "version": __version__,
        "input": {"a": a, "b": b},
        "conventions": {
            "reduced_convention": convention,
            "trial_division_limit": limit,
        },
    }
    try:
        k = validate(a, b, convention)
    except ValidationError as exc:
        doc["valid"] = False
        doc["validation"] = {"code": exc.code, "message": str(exc)}
        doc["elapsed_us"] = (time.perf_counter_ns() - started) // 1000
        return doc, EX_REJECTED
    verdicts = combined_verdict(k, limit)
    order = verdicts.order
    doc["valid"] = True
    doc["delta"] = k.delta
    doc["g"] = k.g
    doc["case"] = {"major": order.case.major, "minor": order.case.minor}
    doc["index_iw"] = order.index_iw
    doc["associated_order"] = {
        "reduced": [[str(x) for x in row] for row in order.reduced],
        "basis_w": _basis_text(order),
    }
    doc["maximality"] = _maximality_dict(verdicts.maximality)
    doc["freeness"] = _freeness_dict(verdicts.freeness)
    doc["ring_of_integers_free"] = verdicts.ring_of_integers_free
    doc["elapsed_us"] = (time.perf_counter_ns() - started) // 1000
    undecided = (
        verdicts.freeness.verdict == UNDECIDED
        or verdicts.maximality.status == UNDECIDED_FACTORIZATION
    )
    return doc, EX_UNDECIDED if undecided else EX_OK


def _render_text(doc: dict) -> str:
    lines = [f"cubicha {doc['version']}  a={doc['input']['a']} b={doc['input']['b']}"]
    if not doc["valid"]:
        v = doc["validation"]
        lines.append(f"rejected: {v['code']} ({v['message']})")
        return "\n".join(lines)
    case = doc["case"]
    lines.append(f"delta = {doc['delta']}   g = {doc['g']}   case {case['major']}/{case['minor']}")
    lines.append(f"index I_W = {doc['index_iw']}")
    basis = ["(" + ", ".join(v) + ")" for v in doc["associated_order"]["basis_w"]]
    lines.append("associated-order basis (W-coordinates): " + "; ".join(basis))
    lines.append(f"maximal (O_L = Z[alpha]): {doc['maximality']['status']}")
    free = doc["freeness"]
    lines.append(f"Z[alpha] freeness: {free['verdict']}")
    if free["generator"]:
        c0, c1, c2 = free["generator"]
        lines.append(f"generator: {c0} + {c1}*alpha + {c2}*alpha^2")
    if doc["ring_of_integers_free"] is not None:
        lines.append(f"O_L freeness: {doc['ring_of_integers_free']}")
    else:
        lines.append("O_L freeness: n/a (verdict applies to Z[alpha] only)")
    lines.append(f"elapsed: {doc['elapsed_us']} us")
    return "\n".join(lines)


# str() of an int is quadratic in its length.  Above _HALVE_MIN_BITS,
# _decimal's halving on powers of ten is faster; from CPython 3.12 on,
# str() hands long ints to the subquadratic _pylong, which overtakes the
# halving at about 2^17 bits on 3.12 and 2^15 on 3.13
_HALVE_MIN_BITS = 4000
_HALVE_MAX_BITS = sys.maxsize if sys.version_info < (3, 12) else 1 << (17 if sys.version_info < (3, 13) else 15)


def _decimal(n: int, powers: dict) -> str:
    """str(n) for n >= 0: between _HALVE_MIN_BITS and _HALVE_MAX_BITS, as
    str(hi) + str(lo).zfill(k), hi, lo = divmod(n, 10^k), recursively.

    k is the power of two in (3d/8, 3d/4], with 10^d <= 2^(bits - 1) <= n
    (1233/4096 < log10(2)), so hi >= 1 prints no leading zero and lo, whose
    own leading zeros str() drops, is padded to k digits.  As k is a power
    of two, the halves of every integer share their divisors, kept in
    ``powers`` under k.
    """
    bits = n.bit_length()
    if not _HALVE_MIN_BITS < bits < _HALVE_MAX_BITS:
        return str(n)
    k = 1 << ((3 * ((bits - 1) * 1233 >> 12) >> 2).bit_length() - 1)
    p = powers.get(k)
    if p is None:
        p = powers[k] = 10**k
    hi, lo = divmod(n, p)
    return _decimal(hi, powers) + _decimal(lo, powers).zfill(k)


def _write_json(obj, emit, digits: dict, powers: dict, quote, newline: str) -> None:
    """Pass the text of ``json.dumps(obj, indent=2)`` to ``emit`` in chunks.

    ``quote`` escapes a string (``json.encoder.encode_basestring_ascii``)
    and ``newline`` is a line break followed by the indent of ``obj``'s
    level.  The digits of each int are kept in ``digits`` under its
    absolute value, so a number that recurs with either sign, as the Pell
    unit does in both certificates and a representative in its four sign
    variants, is converted once, by _decimal with the powers of ten in
    ``powers``.  Both dicts live for one document.  A module-level
    function, not a closure that calls itself, so that no reference cycle
    keeps the chunks alive after the call.
    """
    if isinstance(obj, str):
        emit(quote(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        n = abs(obj)
        text = digits.get(n)
        if text is None:
            text = digits[n] = _decimal(n, powers)
        if obj < 0:
            emit("-")
        emit(text)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _write_json(item, emit, digits, powers, quote, inner)
            sep = comma
        emit(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(sep + quote(key) + ": ")
            _write_json(value, emit, digits, powers, quote, inner)
            sep = comma
        emit(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def cmd_analyze(args) -> int:
    # each command imports the standard-library modules only it uses, so a
    # one-shot process pays for no other command's
    from json.encoder import encode_basestring_ascii

    doc, code = analyze_document(args.a, args.b, args.reduced_convention, args.trial_division_limit)
    if args.format == "json":
        chunks: list[str] = []
        _write_json(doc, chunks.append, {}, {}, encode_basestring_ascii, "\n")
        print("".join(chunks))
    else:
        print(_render_text(doc))
    return code


# the scan CSV's maximal column per maximality status
_MAXIMAL_CELL = {MAXIMAL: "true", NOT_MAXIMAL: "false", UNDECIDED_FACTORIZATION: "undecided"}


def _scan_row(a: int, b: int, convention: str, limit: int) -> tuple:
    try:
        k = validate(a, b, convention)
    except ValidationError as exc:
        return ("skip", a, b, exc.code)
    verdicts = combined_verdict(k, limit)
    order = verdicts.order
    if verdicts.freeness.generator is not None:
        b1, b2, b3 = verdicts.freeness.generator.coords
        betas = (str(b1), str(b2), str(b3))
    else:
        betas = ("", "", "")
    return (
        "row",
        a,
        b,
        k.delta,
        k.g,
        f"{order.case.major}/{order.case.minor}",
        order.index_iw,
        _MAXIMAL_CELL[verdicts.maximality.status],
        verdicts.freeness.verdict,
        *betas,
    )


def _scan_group(task) -> list:
    a, bs, convention, limit = task
    return [_scan_row(a, b, convention, limit) for b in bs]


def _mirror_groups(a_range: range, b_range: range):
    """(a, bs) per unit of scan work: bs is (b, -b) when both lie in
    b_range, and (b,) otherwise.  The two fields of a pair share delta, g,
    every Pell certificate and the maximality report, which quadrep and
    integrality keep only for the latest two, so they run back to back.
    The Pell root sets, which the fields of a row share more widely, are
    kept longer (quadrep._root_sets)."""
    for a in a_range:
        for b in b_range:
            if -b not in b_range or b == 0:
                yield a, (b,)
            elif b < 0:
                yield a, (b, -b)


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi) + 1)


def cmd_scan(args) -> int:
    import csv

    try:
        a_range = _parse_range(args.a_range)
        b_range = _parse_range(args.b_range)
    except ValueError:
        print("scan: ranges must look like lo:hi with integers", file=sys.stderr)
        return EX_USAGE
    for flag, text, values in (("--a-range", args.a_range, a_range), ("--b-range", args.b_range, b_range)):
        if not values:
            print(f"scan: {flag} {text} is empty (lo > hi)", file=sys.stderr)
            return EX_USAGE
    if args.jobs < 1:
        print(f"scan: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EX_USAGE
    tasks = [
        (a, bs, args.reduced_convention, args.trial_division_limit)
        for a, bs in _mirror_groups(a_range, b_range)
    ]
    # a forked pool starts all its workers at once: no more than tasks or CPUs
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # the pool's modules (multiprocessing among them) load only here
        from concurrent.futures import ProcessPoolExecutor

        # workers need the cap lifted too when they do not fork from main
        with ProcessPoolExecutor(max_workers=workers, initializer=_lift_int_str_cap) as pool:
            groups = list(pool.map(_scan_group, tasks, chunksize=8))
    else:
        groups = [_scan_group(t) for t in tasks]
    # groups run in the order of their first field; rows go out a-major, b-minor
    results = sorted(chain.from_iterable(groups), key=itemgetter(1, 2))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    skipped: dict[str, int] = {}
    for res in results:
        if res[0] == "skip":
            skipped[res[3]] = skipped.get(res[3], 0) + 1
        else:
            writer.writerow(res[1:])
    payload = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"scan: cannot write {args.out}: {exc}", file=sys.stderr)
            return EX_IOERR
    else:
        sys.stdout.write(payload)
    total_skipped = sum(skipped.values())
    detail = ", ".join(f"{code}={n}" for code, n in sorted(skipped.items()))
    print(
        f"scan: {len(results) - total_skipped} rows, skipped {total_skipped}"
        + (f" ({detail})" if detail else ""),
        file=sys.stderr,
    )
    return EX_OK


def cmd_verify(args) -> int:
    if args.grid < 1:
        print(f"verify: --grid must be at least 1, got {args.grid}", file=sys.stderr)
        return EX_USAGE
    # the referee routines load only for verify, never for analyze or scan
    from . import selfcheck

    results = selfcheck.run_all(grid=args.grid, seed=args.seed)
    failed = 0
    for res in results:
        if res.ok:
            print(f"ok   {res.name} ({res.checks} checks)")
        else:
            failed += 1
            print(f"FAIL {res.name}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return EX_OK if failed == 0 else EX_VERIFY_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="cubicha", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"cubicha {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--reduced-convention",
            choices=[REDUCED_STRICT, REDUCED_LOOSE],
            default=REDUCED_STRICT,
            help="reducedness test applied to (a, b)",
        )
        p.add_argument(
            "--trial-division-limit",
            type=int,
            help=(
                f"factorization budget L: trial division to min(L, {TRIAL_DIVISION_BOUND}), "
                f"then up to (L - {TRIAL_DIVISION_BOUND})/{RHO_ITERATION_COST} rho iterations "
                f"(env {ENV_TRIAL_LIMIT} overrides the default)"
            ),
        )

    pa = sub.add_parser("analyze", help="full analysis of a single (a, b)")
    pa.add_argument("--a", type=int, required=True)
    pa.add_argument("--b", type=int, required=True)
    pa.add_argument("--format", choices=["json", "text"], default="json")
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("scan", help="CSV scan over rectangular (a, b) ranges")
    range_help = "inclusive range; write --a-range=-3:3 for negative bounds"
    ps.add_argument("--a-range", required=True, metavar="LO:HI", help=range_help)
    ps.add_argument("--b-range", required=True, metavar="LO:HI", help=range_help)
    ps.add_argument("--out", help="output path (default: stdout)")
    ps.add_argument("--jobs", type=int, default=1)
    common(ps)
    ps.set_defaults(func=cmd_scan)

    pv = sub.add_parser("verify", help="run the cross-module invariant suites")
    pv.add_argument("--grid", type=int, default=20)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify)

    return parser


def _lift_int_str_cap() -> None:
    # Python caps int <-> str conversion at 4300 digits by default, and
    # generators and Pell units can be longer; lift the cap, where there is one
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


# built once, at import: building it takes most of a millisecond, about
# as long as analyzing a typical field, and in-process callers run main
# once per field
PARSER = build_parser()


def _env_trial_limit() -> int:
    """The default budget: CHA_TRIAL_DIVISION_LIMIT when set, read anew on
    every call so in-process callers may change it between calls."""
    env_limit = os.environ.get(ENV_TRIAL_LIMIT)
    if not env_limit:
        return DEFAULT_TRIAL_DIVISION_LIMIT
    try:
        limit = int(env_limit)
    except ValueError:
        PARSER.exit(EX_USAGE, f"cubicha: error: {ENV_TRIAL_LIMIT} must be an integer, got {env_limit!r}\n")
    if limit < 0:
        PARSER.exit(EX_USAGE, f"cubicha: error: {ENV_TRIAL_LIMIT} must be at least 0, got {env_limit!r}\n")
    return limit


def main(argv=None) -> int:
    _lift_int_str_cap()
    default_limit = _env_trial_limit()
    args = PARSER.parse_args(argv)
    if "trial_division_limit" in args:
        if args.trial_division_limit is None:
            args.trial_division_limit = default_limit
        elif args.trial_division_limit < 0:
            print(
                f"{args.command}: --trial-division-limit must be at least 0, got {args.trial_division_limit}",
                file=sys.stderr,
            )
            return EX_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; the interpreter flushes stdout once more on
        # exit, so point it at devnull to keep that flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_IOERR
    return code


if __name__ == "__main__":
    sys.exit(main())
