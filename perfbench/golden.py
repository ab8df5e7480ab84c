"""Regenerate the golden records in ``perfbench/data`` from the program as
it stands.  The committed files were made from the commit that introduced
the benchmark; regenerate them only when a verdict is meant to change.

    python3 perfbench/golden.py grid|pell|maximal

Each record keeps the program's decided columns (case, index, maximality,
freeness verdict) and, for the sampled pools, the calibrated baseline cost of
one field in milliseconds (see harness.Calibrator) and, for pell, whether its
analysis could be rendered as JSON.  The benchmark uses cost and outcome only
to give every run the same mix of cheap and expensive fields.
"""

from __future__ import annotations

import csv
import json
import random
import signal
import statistics
import sys
import time

import harness

GRID_RADIUS = 20
PELL_BOUND = 10**3
PELL_POOL = 200
PELL_POOL_SEED = 2506
PELL_CAP_S = 20  # fields slower than this are left out: one would fill a run
MAXIMAL_BOUND = 10**6
MAXIMAL_POOL = 500
MAXIMAL_POOL_SEED = 12451


def draw_valid(mods, rng, bound: int, count: int) -> list[tuple[int, int]]:
    """Distinct uniform (a, b) with 0 < |a|, |b| <= bound that pass validate."""
    validate = mods["cubicfield"].validate
    ValidationError = mods["errors"].ValidationError
    seen = set()
    out = []
    while len(out) < count:
        a = rng.choice((-1, 1)) * rng.randint(1, bound)
        b = rng.choice((-1, 1)) * rng.randint(1, bound)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        try:
            validate(a, b)
        except ValidationError:
            continue
        out.append((a, b))
    return out


def timed(mods, cal, fn, *args):
    """fn(*args) and its calibrated cost in milliseconds: the median of
    three cold runs, or of as many as fit in about a second."""
    costs = []
    spent = 0.0
    while len(costs) < 3 and spent < 1000:
        harness.clear_caches(mods)
        cal.measure()
        mark = cal.mark()
        t0 = time.perf_counter_ns()
        result = fn(*args)
        elapsed = (time.perf_counter_ns() - t0) / 1e6
        cal.measure()
        costs.append(elapsed * cal.scale(mark))
        spent += elapsed
    return result, statistics.median(costs)


def make_grid(mods) -> dict:
    path = harness.OUT / "golden-grid.csv"
    path.parent.mkdir(exist_ok=True)
    r = GRID_RADIUS
    code = mods["cli"].main(
        ["scan", f"--a-range={-r}:{r}", f"--b-range={-r}:{r}", "--jobs", "1", "--out", str(path)]
    )
    assert code == 0, code
    with open(path, newline="") as fh:
        rows = [
            [int(row["a"]), int(row["b"]), row["case"], int(row["iw"]), row["maximal"], row["verdict"]]
            for row in csv.DictReader(fh)
        ]
    path.unlink()
    return {"radius": r, "columns": ["a", "b", "case", "iw", "maximal", "verdict"], "rows": rows}


class OverCap(Exception):
    pass


def _over_cap(signum, frame):
    raise OverCap


def make_pell(mods) -> dict:
    cli = mods["cli"]
    limit = mods["arith"].DEFAULT_TRIAL_DIVISION_LIMIT
    cal = harness.Calibrator()
    rows = []
    over_cap = []
    signal.signal(signal.SIGALRM, _over_cap)
    for a, b in draw_valid(mods, random.Random(PELL_POOL_SEED), PELL_BOUND, PELL_POOL):
        try:
            signal.setitimer(signal.ITIMER_REAL, PELL_CAP_S)
            (doc, _), cost = timed(mods, cal, cli.analyze_document, a, b, "strict", limit)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except OverCap:
            over_cap.append([a, b])
            print(a, b, "over cap", file=sys.stderr, flush=True)
            continue
        try:
            json.dumps(doc)
            renders = True
        except ValueError:  # an integer past sys.get_int_max_str_digits()
            renders = False
        case = f"{doc['case']['major']}/{doc['case']['minor']}"
        rows.append([a, b, round(cost, 1), case, doc["index_iw"],
                     doc["maximality"]["status"], doc["freeness"]["verdict"], renders])
        print(a, b, round(cost), renders, file=sys.stderr, flush=True)
    return {"bound": PELL_BOUND, "seed": PELL_POOL_SEED, "cap_s": PELL_CAP_S, "over_cap": over_cap,
            "columns": ["a", "b", "cost_ms", "case", "iw", "maximal", "verdict", "renders"],
            "rows": rows}


def make_maximal(mods) -> dict:
    validate = mods["cubicfield"].validate
    is_maximal = mods["integrality"].is_maximal
    cal = harness.Calibrator()
    rows = []
    for a, b in draw_valid(mods, random.Random(MAXIMAL_POOL_SEED), MAXIMAL_BOUND, MAXIMAL_POOL):
        rep, cost = timed(mods, cal, lambda: is_maximal(validate(a, b)))
        rows.append([a, b, round(cost, 1), rep.status])
    return {"bound": MAXIMAL_BOUND, "seed": MAXIMAL_POOL_SEED,
            "columns": ["a", "b", "cost_ms", "maximal"], "rows": rows}


MAKERS = {"grid": make_grid, "pell": make_pell, "maximal": make_maximal}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in MAKERS:
        print(__doc__, file=sys.stderr)
        return 64
    mods = harness.import_program()
    data = MAKERS[argv[0]](mods)
    with open(harness.DATA / f"{argv[0]}.json", "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
