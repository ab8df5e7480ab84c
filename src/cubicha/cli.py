"""Command-line front end.

    cubicha analyze --a 1 --b 1 [--format json|text] ...
    cubicha scan --a-range 1:3 --b-range 1:3 [--out scan.csv] [--jobs 4]
    cubicha verify [--grid 20] [--seed 0]

All numeric output is exact: integers stay integers and rationals are
rendered as "num/den" strings.  Exit codes: 0 decided verdict, 2 validation
rejection, 3 undecided (a factorization limit was hit), 64 usage error,
74 unwritable output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .arith import DEFAULT_TRIAL_DIVISION_LIMIT, RHO_ITERATION_COST, TRIAL_DIVISION_BOUND
from .cubicfield import REDUCED_LOOSE, REDUCED_STRICT, validate
from .errors import ValidationError
from .freeness import UNDECIDED
from .integrality import UNDECIDED_FACTORIZATION, combined_verdict
from . import selfcheck

EX_OK = 0
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


def _rat(x) -> str:
    return str(x)


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
        "reduced": [[_rat(x) for x in row] for row in order.reduced.entries],
        "basis_w": [[_rat(c) for c in v.coords] for v in order.basis],
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


def cmd_analyze(args) -> int:
    doc, code = analyze_document(args.a, args.b, args.reduced_convention, args.trial_division_limit)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(_render_text(doc))
    return code


def _scan_row(task) -> tuple:
    a, b, convention, limit = task
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
    maximal = {
        "MAXIMAL": "true",
        "NOT_MAXIMAL": "false",
        UNDECIDED_FACTORIZATION: "undecided",
    }[verdicts.maximality.status]
    return (
        "row",
        a,
        b,
        k.delta,
        k.g,
        f"{order.case.major}/{order.case.minor}",
        order.index_iw,
        maximal,
        verdicts.freeness.verdict,
        *betas,
    )


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi) + 1)


def cmd_scan(args) -> int:
    try:
        a_range = _parse_range(args.a_range)
        b_range = _parse_range(args.b_range)
    except ValueError:
        print("scan: ranges must look like lo:hi with integers", file=sys.stderr)
        return EX_USAGE
    tasks = [
        (a, b, args.reduced_convention, args.trial_division_limit)
        for a in a_range
        for b in b_range
    ]
    if args.jobs > 1 and len(tasks) > 1:
        # workers need the cap lifted too when they do not fork from main
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_lift_int_str_cap) as pool:
            results = list(pool.map(_scan_row, tasks, chunksize=16))
    else:
        results = [_scan_row(t) for t in tasks]
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
    results = selfcheck.run_all(grid=args.grid, seed=args.seed)
    failed = 0
    for res in results:
        if res.ok:
            print(f"ok   {res.name} ({res.checks} checks)")
        else:
            failed += 1
            print(f"FAIL {res.name}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return EX_OK if failed == 0 else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="cubicha", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"cubicha {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    env_limit = os.environ.get(ENV_TRIAL_LIMIT)
    try:
        default_limit = int(env_limit) if env_limit else DEFAULT_TRIAL_DIVISION_LIMIT
    except ValueError:
        parser.exit(EX_USAGE, f"cubicha: error: {ENV_TRIAL_LIMIT} must be an integer, got {env_limit!r}\n")

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
            default=default_limit,
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


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    _lift_int_str_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
