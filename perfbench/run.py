"""Seeded end-to-end benchmark of cubicha, stdlib only.

    python3 perfbench/run.py --workload grid|pell|maximal --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from that
checkout's ``src`` directory and driven through its public entry points
only, in this one process and thread:

  grid     ``cli.main(["scan", ...])`` over the square [-20, 20]^2, one call
           per row of the square, each written to a file and read back;
  pell     ``cli.main(["analyze", ...])`` per field, stdout captured, on
           fields with |a|, |b| <= 10^3;
  maximal  ``validate`` then ``is_maximal`` per field, |a|, |b| <= 10^6.

The seed picks the inputs: the row order of the square, or the fields drawn
from the golden pools in ``data/`` (see ``stratified_sample``).  A run
repeats its pass over those inputs, with the program's caches emptied in
between, and ends at the pass boundary nearest to ``--seconds``.  Every
answer is checked (see checks.py); a field that raises or fails a check
counts as failed.  Times
are calibrated against the machine's current speed (harness.Calibrator).

The last line of stdout is one JSON object.  With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, the per-layer metrics come from the spans of the traced passes (see
spans.py), and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import defaultdict

import checks
import harness
import spans

SETUP_REPEATS = 9
# odd slot counts put the median on one slot
PELL_SLOTS = 49
PELL_SPAN = 0.9  # the slowest tenth of the pool would leave too few passes for medians
MAXIMAL_SLOTS = 99
MATCHES = 3
COST_TOLERANCE = 1.1
SMOKE_GRID_RADIUS = 4
SMOKE_SLOTS = 4
REPEAT_NS = 100_000_000
REPEAT_MAX = 5


def load_golden(name: str) -> dict:
    with open(harness.DATA / f"{name}.json") as fh:
        return json.load(fh)


def matched_sample(rows: list, n: int, rng: random.Random) -> list:
    """One row per cost quantile (j + 0.5) / n of ``rows``.  The row at that
    quantile is the anchor; the slot is filled with one of the MATCHES rows
    nearest to it in cost (column 2) and within COST_TOLERANCE of it, or
    else with the nearest row.  No row is drawn twice."""
    ranked = sorted(rows, key=lambda r: r[2])
    free = set(range(len(ranked)))
    out = []
    for j in range(n):
        anchor = ranked[int((j + 0.5) * len(ranked) / n)]
        distance = {i: abs(math.log(ranked[i][2] / anchor[2])) for i in free}
        nearest = sorted(free, key=distance.__getitem__)[:MATCHES]
        near = [i for i in nearest if distance[i] <= math.log(COST_TOLERANCE)]
        pick = rng.choice(near or nearest[:1])
        free.remove(pick)
        out.append(ranked[pick])
    return out


def stratified_sample(rows: list, n: int, key, rng: random.Random, span: float = 1.0) -> list:
    """``n`` rows from the cheapest ``span`` of the pool: the slots are
    shared among the groups of equal ``key`` (golden outcome) in proportion
    to their size, largest remainders first, and filled within each group
    by ``matched_sample``."""
    ranked = sorted(rows, key=lambda r: r[2])[: math.ceil(span * len(rows))]
    groups: dict = defaultdict(list)
    for row in ranked:
        groups[json.dumps(key(row))].append(row)
    share = {g: n * len(members) / len(ranked) for g, members in groups.items()}
    quota = {g: math.floor(q) for g, q in share.items()}
    for g in sorted(share, key=lambda g: (quota[g] - share[g], g))[: n - sum(quota.values())]:
        quota[g] += 1
    out = []
    for g in sorted(groups):
        out += matched_sample(groups[g], quota[g], rng)
    rng.shuffle(out)
    return out


class Outcome:
    """What one operation left behind: fields attempted, failed and
    undecided, plus the problems the checks found."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.undecided = 0
        self.problems: list[str] = []


class Grid:
    name = "grid"

    def inputs(self, seed: int, smoke: bool) -> list:
        golden = load_golden("grid")
        r = SMOKE_GRID_RADIUS if smoke else golden["radius"]
        by_row: dict[int, dict] = defaultdict(dict)
        for a, b, *cols in golden["rows"]:
            if abs(a) <= r and abs(b) <= r:
                by_row[a][b] = tuple(cols)
        rows = list(range(-r, r + 1))
        random.Random(seed).shuffle(rows)
        return [(a, r, by_row[a]) for a in rows]

    def fields(self, item) -> int:
        return len(item[2])

    def call(self, mods, item):
        a, r, _ = item
        path = harness.OUT / f"grid-{os.getpid()}.csv"
        argv = ["scan", f"--a-range={a}:{a}", f"--b-range={-r}:{r}", "--jobs", "1", "--out", str(path)]
        with contextlib.redirect_stderr(io.StringIO()):
            code = mods["cli"].main(argv)
        with open(path) as fh:
            text = fh.read()
        os.unlink(path)
        return code, text

    def check(self, mods, item, result, out: Outcome) -> None:
        code, text = result
        a, _, golden = item
        lines = text.splitlines()
        if code != 0 or not lines or lines[0] != "a,b,delta,g,case,iw,maximal,verdict,beta1,beta2,beta3":
            out.failed = out.attempted
            out.problems.append(f"row a={a}: exit code {code} or bad header")
            return
        seen = set()
        for line in lines[1:]:
            ra, rb, delta, g, case, iw, maximal, verdict, *betas = line.split(",")
            ra, rb = int(ra), int(rb)
            gold = golden.get(rb) if ra == a else None
            seen.add(rb)
            problems = checks.check_field(
                ra, rb, case, int(iw), verdict,
                [int(x) for x in betas] if betas[0] else None, gold,
            )
            if int(delta) != 4 * ra**3 - 27 * rb**2 or int(g) != checks.gcd(ra, rb):
                problems.append("delta or g is wrong")
            if gold is not None:
                problems += checks.check_maximality(
                    ra, rb, maximal, None, None, gold[2], _dedekind(mods, ra, rb)
                )
            else:
                out.attempted += 1
            if problems:
                out.failed += 1
                out.problems.append(f"({ra}, {rb}): {'; '.join(problems)}")
            if maximal == "undecided" or verdict == "UNDECIDED":
                out.undecided += 1
        missing = set(golden) - seen
        if missing:
            out.failed += len(missing)
            out.problems.append(f"row a={a}: {len(missing)} fields missing from the scan")


class Pell:
    name = "pell"
    slots = PELL_SLOTS
    span = PELL_SPAN

    @staticmethod
    def outcome(row):
        return row[6:8]  # verdict, renders

    def inputs(self, seed: int, smoke: bool) -> list:
        rows = load_golden(self.name)["rows"]
        rng = random.Random(seed)
        if smoke:
            return stratified_sample(rows, SMOKE_SLOTS, self.outcome, rng, span=0.5)
        return stratified_sample(rows, self.slots, self.outcome, rng, span=self.span)

    def fields(self, item) -> int:
        return 1

    def call(self, mods, item):
        a, b = item[0], item[1]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = mods["cli"].main(["analyze", "--a", str(a), "--b", str(b)])
        return code, buf.getvalue()

    def check(self, mods, item, result, out: Outcome) -> None:
        a, b, golden = item[0], item[1], item[3:7]
        code, text = result
        doc = json.loads(text)
        problems = checks.check_analyze(a, b, code, doc, golden, _dedekind(mods, a, b))
        if doc["freeness"]["verdict"] in checks.UNDECIDED or doc["maximality"]["status"] in checks.UNDECIDED:
            out.undecided += 1
        if problems:
            out.failed += 1
            out.problems.append(f"({a}, {b}): {'; '.join(problems)}")


class Maximal(Pell):
    name = "maximal"
    slots = MAXIMAL_SLOTS
    span = 1.0

    @staticmethod
    def outcome(row):
        return row[3]  # maximality status

    def call(self, mods, item):
        return mods["integrality"].is_maximal(mods["cubicfield"].validate(item[0], item[1]))

    def check(self, mods, item, rep, out: Outcome) -> None:
        a, b, _, golden = item
        problems = checks.check_maximality(
            a, b, rep.status, rep.per_prime, rep.delta_factors, golden, _dedekind(mods, a, b)
        )
        if rep.status in checks.UNDECIDED:
            out.undecided += 1
        if problems:
            out.failed += 1
            out.problems.append(f"({a}, {b}): {'; '.join(problems)}")


WORKLOADS = {w.name: w for w in (Grid(), Pell(), Maximal())}


def _dedekind(mods, a: int, b: int):
    """The Dedekind referee for (a, b), on a descriptor built here rather
    than by the program's validate."""
    k = mods["cubicfield"].TrinomialCubic(a, b, 4 * a**3 - 27 * b**2, checks.gcd(a, b))
    return lambda p: mods["integrality"].dedekind_check(k, p)


def _repeat_short(w, mods, item, elapsed: int) -> int:
    """Run a short operation again, caches emptied each time, until its runs
    add up to REPEAT_NS or REPEAT_MAX runs; return the median time.  Single
    runs of a few milliseconds jitter by more than a tenth."""
    runs = [elapsed]
    while sum(runs) < REPEAT_NS and len(runs) < REPEAT_MAX:
        harness.clear_caches(mods)
        t0 = time.perf_counter_ns()
        w.call(mods, item)
        runs.append(time.perf_counter_ns() - t0)
    return int(statistics.median(runs))


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` values above
    it, or 100 when there are too few values."""
    return 100 if n < 20 else math.floor(100 * (1 - 10 / n))


def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of quantile ``q`` (the maximum for q = 1):
    a mean of all order statistics, weighted by the Beta((n+1)q, (n+1)(1-q))
    mass of each one's slot.  Unlike a single order statistic it does not
    jump by the gap to the next value when noise swaps two neighbours."""
    x = sorted(values)
    n = len(x)
    if q >= 1:
        return x[-1]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if not 0 < t < 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    weights = []
    for i in range(n):  # Simpson's rule over the slot [i/n, (i+1)/n]
        h = 1 / (16 * n)
        t = [i / n + k * h for k in range(17)]
        weights.append(h / 3 * sum((1 if k in (0, 16) else 4 if k % 2 else 2) * density(t[k])
                                   for k in range(17)))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        after_import=None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and report lines."""
    w = WORKLOADS[workload]
    cal = harness.Calibrator()
    mods = harness.import_program()
    # set-up: a cold import of the program in a fresh interpreter, plus
    # making the inputs here
    setup = []
    for _ in range(SETUP_REPEATS):
        cal.measure()
        mark = cal.mark()
        t0 = time.perf_counter_ns()
        items = w.inputs(seed, smoke)
        raw = time.perf_counter_ns() - t0
        cal.measure()
        setup.append(harness.cold_import_s() + raw / 1e9 * cal.scale(mark))
    if after_import is not None:
        after_import(mods)
    # keep the benchmark's own objects (golden records, inputs) out of the
    # program's garbage collections
    gc.collect()
    gc.freeze()
    harness.OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None

    # item, traced, ns, ns of the first run, calibration mark, and fields
    # attempted, passed, undecided
    ops: list[tuple[int, bool, int, int, int, int, int, int]] = []
    attempted = failed = undecided = check_failures = 0
    traced_fields = passes = 0
    problems: list[str] = []
    cal.measure()
    start = time.perf_counter()
    while True:
        traced = trace and passes % 2 == 1
        harness.clear_caches(mods)
        if traced:
            tracer.install(mods)
        for i, item in enumerate(items):
            out = Outcome(w.fields(item))
            span = tracer.op(i) if traced else contextlib.nullcontext()
            mark = cal.mark()
            t0 = time.perf_counter_ns()
            try:
                with span:
                    result = w.call(mods, item)
            except Exception as exc:  # a crash is a failed field, not a stop
                elapsed = time.perf_counter_ns() - t0
                out.failed = out.attempted
                out.problems.append(f"item {i}: raised {type(exc).__name__}: {str(exc)[:80]}")
            else:
                elapsed = time.perf_counter_ns() - t0
                try:
                    w.check(mods, item, result, out)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    out.failed = out.attempted
                    out.problems.append(f"item {i}: unreadable output: {type(exc).__name__}: {exc}")
                check_failures += out.failed
            first = elapsed
            if not traced and not out.failed:
                elapsed = _repeat_short(w, mods, item, elapsed)
            cal.measure()
            ops.append((i, traced, elapsed, first, mark, out.attempted, out.attempted - out.failed,
                        out.undecided))
            attempted += out.attempted
            failed += out.failed
            undecided += out.undecided
            traced_fields += out.attempted if traced else 0
            problems += out.problems
        if traced:
            tracer.uninstall()
        passes += 1
        # a run is whole passes, so its counts repeat run to run; it ends at
        # the pass boundary nearest to --seconds, and traced runs after an
        # even number of passes
        elapsed_s = time.perf_counter() - start
        if (trace and passes % 2) or elapsed_s + elapsed_s / passes / 2 < seconds:
            continue
        break
    per_item: list[list[tuple]] = [[] for _ in items]  # untraced (s, attempted, passed, undecided)
    first_s = {False: 0.0, True: 0.0}  # calibrated seconds of first runs, by traced
    raw_s = 0.0
    for i, traced, elapsed, first, mark, *counts in ops:
        scaled = elapsed / 1e9 * cal.scale(mark)
        first_s[traced] += first / 1e9 * cal.scale(mark)
        if not traced:
            per_item[i].append((scaled, *counts))
            raw_s += elapsed / 1e9

    lines = [f"workload {workload} seed {seed}: {len(items)} operations per pass, {passes} passes"]
    lines += [f"problem: {p}" for p in dict.fromkeys(problems)]
    result = {"correct": check_failures == 0, "attempted": attempted, "failed": failed}
    if trace:
        table = tracer.layer_table(passes // 2, traced_fields)
        table["trace.overhead_frac"] = first_s[True] / first_s[False] - 1
        path = harness.OUT / f"trace-{workload}-{seed}.tsv"
        tracer.write(path)
        lines.append(f"spans: {len(tracer.start)} written to {path}")
        lines.append(f"tracing overhead: {table['trace.overhead_frac']:+.1%} of untraced time")
        result["metrics"] = {k: {"value": v, "unit": _layer_unit(k)} for k, v in table.items()}
    else:
        # one pass: each operation's median time and (repeatable) outcome
        medians = [[statistics.median(r[k] for r in runs) for k in range(4)] for runs in per_item]
        secs, tried, passed, open_ = (sum(m[k] for m in medians) for k in range(4))
        latencies = [m[0] * 1000 for m in medians]
        q = tail_percentile(len(latencies))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "fields_per_s": (passed / secs, "1/s"),
            "latency_p50_ms": (quantile(latencies, 0.5), "ms"),
            "latency_tail_ms": (quantile(latencies, q / 100), "ms"),
            "ok_frac": (passed / tried, "ratio"),
            "decided_frac": (1 - open_ / tried, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        lines.append(f"latency_tail_ms is p{q} of {len(latencies)} per-operation medians "
                     "(Harrell-Davis estimates, as is latency_p50_ms)")
        lines.append(f"uncalibrated: {(attempted - failed) / raw_s:.6g} fields/s; calibration kernel "
                     f"median {statistics.median(cal.times_ms):.3f} ms over {len(cal.times_ms)} runs")
        lines.append(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
        lines.append(f"undecided_frac {undecided}/{attempted} = {undecided / attempted:.4f}")
        lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, lines


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name == "quadrep.unit_bits_max":
        return "bits"
    if name == "trace.overhead_frac" or name.endswith("per_field"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (harness.ProgramMissing, ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
