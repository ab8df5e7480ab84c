import gc
import hashlib
import json
import os
import random
import stat
import subprocess
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest

from cubicha.arith import DEFAULT_TRIAL_DIVISION_LIMIT
from cubicha.cli import CSV_HEADER, _write_json, analyze_document, build_parser, main
from cubicha.cubicfield import OrderElement, validate
from cubicha.freeness import d_beta
from cubicha import selfcheck


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cubicha", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestAnalyze:
    def test_worked_instance_json(self, capsys):
        code = main(["analyze", "--a", "1", "--b", "1"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["freeness"]["verdict"] == "FREE"
        assert doc["freeness"]["generator"] == [-1, 0, 1]
        assert doc["index_iw"] == 2
        assert doc["maximality"]["status"] == "MAXIMAL"
        assert doc["case"] == {"major": "CASE1", "minor": "V2GE"}

    def test_not_free_instance(self, capsys):
        code = main(["analyze", "--a", "6", "--b", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["freeness"]["verdict"] == "NOT_FREE"
        assert doc["maximality"]["status"] == "MAXIMAL"

    def test_validation_rejection_exit_2(self, capsys):
        code = main(["analyze", "--a", "3", "--b", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["valid"] is False
        assert doc["validation"]["code"] == "REDUCIBLE"

    def test_undecided_exit_3(self, capsys):
        code = main(
            ["analyze", "--a", "-210", "--b", "-186", "--trial-division-limit", "4"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["freeness"]["verdict"] == "UNDECIDED"
        assert doc["freeness"]["limit_hit"] == 4

    def test_undecided_digest(self, capsys):
        # sha256 of its JSON without elapsed_us, as the solver with one
        # factorization-limit handler per target wrote it
        assert main(["analyze", "--a=-210", "--b=-186", "--trial-division-limit", "4"]) == 3
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_us"]
        digest = hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
        assert digest == "c0167f3766b7de53fffb787182aa717f91c25f78b223f7f9d527d6f122065379"

    def test_budget_reaches_indefinite_forms(self, capsys):
        # x^2 - 514581*y^2 = +-420 is indefinite, and 420 = 2^2*3*5*7: at
        # budget 0 only 2 and 3 are divided out, so freeness is undecided,
        # like maximality; the default budget decides it
        assert main(["analyze", "--a=-35", "--b", "1", "--trial-division-limit", "0"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["maximality"]["status"] == "UNDECIDED_FACTORIZATION"
        free = doc["freeness"]
        assert (free["verdict"], free["limit_hit"], free["checked_rhs"], free["pell"]) == (
            "UNDECIDED", 0, [-420, 420], []
        )
        assert main(["analyze", "--a=-35", "--b", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["freeness"]["verdict"] == "NOT_FREE"

    def test_malformed_int_exit_64(self):
        proc = run_cli("analyze", "--a", "x", "--b", "1")
        assert proc.returncode == 64

    def test_missing_flag_exit_64(self):
        proc = run_cli("analyze", "--a", "1")
        assert proc.returncode == 64

    def test_text_format(self, capsys):
        code = main(["analyze", "--a", "1", "--b", "1", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FREE" in out and "I_W = 2" in out

    def test_json_roundtrip_byte_identical(self, capsys):
        # referee for the program's own writer: its raw stdout must be the
        # bytes json.dumps(indent=2) gives for the same document, on every
        # pell pool field (big units of both signs), a rejection (with its
        # validation message) and an UNDECIDED document
        pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pell.json").read_text())
        runs = [["--a=3", "--b=3"], ["--a=3", "--b=2"], ["--a=-210", "--b=-186", "--trial-division-limit=4"]]
        runs += [[f"--a={a}", f"--b={b}"] for a, b in [row[:2] for row in pool["rows"]] + pool["over_cap"]]
        codes = set()
        for flags in runs:
            codes.add(main(["analyze", *flags]))
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=2) + "\n", flags
        assert codes == {0, 2, 3} and len(runs) == 203

    def test_pell_pool_digest(self, capsys):
        # one sha256 over the JSON documents without elapsed_us, each with a
        # trailing newline, of every pell pool field and both over_cap
        # fields, as the solver that walked each root twice wrote them
        pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pell.json").read_text())
        digest = hashlib.sha256()
        for a, b in [row[:2] for row in pool["rows"]] + pool["over_cap"]:
            assert main(["analyze", f"--a={a}", f"--b={b}"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["elapsed_us"]
            digest.update((json.dumps(doc, indent=2) + "\n").encode())
        assert digest.hexdigest() == "bf7ee3d7043ed280ce3526c3f68ff2af5e81192f29a768e9c5f9651dd8c938cf"

    def test_writer_matches_json_dumps(self):
        big = 7**400
        doc = {
            "empty": [[], {}, [[]], {"x": {}}],
            "tuple": (1, -1, 0, (big, -big)),
            "ints": [big, -big, [-big, big], {"u": big}],
            "text": ["caf\u00e9 \u2603 \U0001f600", 'say "hi"', "back\\slash", "\x00\x1f\t\n\r\x7f", ""],
            "\u00fc\"key\\": [True, False, None],
            "": "",
        }
        chunks = []
        _write_json(doc, chunks.append, {}, encode_basestring_ascii, "\n")
        assert "".join(chunks) == json.dumps(doc, indent=2)
        for bad in ({"x": 1.5}, [{1, 2}], {"x": {3: "three"}}):
            with pytest.raises(TypeError):
                _write_json(bad, [].append, {}, encode_basestring_ascii, "\n")

    def test_analyze_leaves_no_cyclic_garbage(self, capsys):
        # cycles would keep each document's chunks and digits alive until
        # the cyclic collector runs, and show in the benchmark's peak RSS
        gc.collect()
        gc.disable()
        try:
            assert main(["analyze", "--a=-641", "--b=-995"]) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()

    def test_no_floats_anywhere(self):
        doc, _ = analyze_document(3, 3, "strict", 10**7)

        def walk(x):
            assert not isinstance(x, float), x
            if isinstance(x, dict):
                for k, v in x.items():
                    walk(k)
                    walk(v)
            elif isinstance(x, (list, tuple)):
                for v in x:
                    walk(v)

        walk(doc)

    def test_loose_convention_flag(self, capsys):
        code = main(["analyze", "--a", "4", "--b", "8", "--reduced-convention", "loose"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["valid"] is True
        code = main(["analyze", "--a", "4", "--b", "8"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2 and doc["validation"]["code"] == "NOT_REDUCED"

    def test_env_var_limit(self):
        env = dict(os.environ, CHA_TRIAL_DIVISION_LIMIT="4")
        proc = subprocess.run(
            [sys.executable, "-m", "cubicha", "analyze", "--a", "-210", "--b", "-186"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["conventions"]["trial_division_limit"] == 4

    def test_malformed_env_var_limit_exit_64(self):
        env = dict(os.environ, CHA_TRIAL_DIVISION_LIMIT="abc")
        for args in (["analyze", "--a", "1", "--b", "1"], ["verify"], ["--version"]):
            proc = subprocess.run(
                [sys.executable, "-m", "cubicha", *args],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 64, args
            assert proc.stdout == ""
            assert proc.stderr.splitlines() == [
                "cubicha: error: CHA_TRIAL_DIVISION_LIMIT must be an integer, got 'abc'"
            ], args

    def test_pell_unit_past_the_int_str_digit_cap(self, capsys):
        # its Pell unit has over 4,300 digits, Python's default cap on
        # int <-> str conversion; main lifts the cap for the process
        code = main(["analyze", "--a", "-409", "--b", "727"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        units = [cert["fundamental"] for cert in doc["freeness"]["pell"] if cert["fundamental"]]
        assert max(len(str(abs(x))) for unit in units for x in unit) > 4300
        generator = doc["freeness"]["generator"]
        assert abs(d_beta(validate(-409, 727), OrderElement(*generator))) == doc["index_iw"]


def test_long_period_field_within_time_bound(capsys):
    # (-725, 165) has a principal period of about 18,000 steps and a
    # 28,000-bit Pell unit; the digest is that of its JSON without
    # elapsed_us as the one-walk-per-root solver wrote it in about 10 s
    start = time.perf_counter()
    code = main(["analyze", "--a=-725", "--b", "165"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    del doc["elapsed_us"]
    digest = hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
    assert code == 0
    assert digest == "01122c4aa0892700f45cc84b14ec7ac1480e6dc4d69d4e6bf9e0ddc5c144f683"
    assert elapsed <= 3.0, elapsed


@pytest.mark.parametrize(
    "a, b, digest",
    [
        # NOT_FREE and FREE, each with Pell units of over 8,000 digits
        (-569, 1, "5f707610f93334e798c41f0f9ace87e9bc13225815e7013f69de89ceafe4b0aa"),
        (-641, -995, "d6446a51f125e9c765f5a1d7ca3dbd7e6b417d2422e4bbb71ee62fc0dfec1556"),
        # fields with a hit that Nagell's bound leaves to the descent, in
        # CASE1, CASE2 (NOT_FREE) and CASE3
        (-625, -889, "a9938f1d2ccd5f026df0522504767f652d767462ddada92d6dd63b485dfb9162"),
        (-12, -375, "37141f8b48444ac0d013663acd40b71dea42dcb1486518cba2c27beb06d0f3c0"),
        (-27, 926, "cfc7c7231384a219001392a8f211fcd7ee602d244ac9610e971982c4ae17ca17"),
    ],
)
def test_pell_pool_analyze_digest(capsys, a, b, digest):
    # sha256 of the JSON without elapsed_us, as the solver that descended
    # every hit to its orbit's minimum wrote it
    assert main(["analyze", f"--a={a}", f"--b={b}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["elapsed_us"]
    assert hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest() == digest


def test_one_build_per_valid_field(capsys, build_calls):
    assert main(["scan", "--a-range", "3:3", "--b-range=-9:9"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) > 5
    valid = {(int(r.split(",")[0]), int(r.split(",")[1])) for r in rows}
    # the mirror pairs (3, -b), (3, b) run back to back, from b = 9 down
    order = [(3, sign * b) for b in range(9, 0, -1) for sign in (-1, 1)] + [(3, 0)]
    assert build_calls == [field for field in order if field in valid]
    build_calls.clear()
    assert main(["analyze", "--a", "6", "--b", "1"]) == 0
    assert build_calls == [(6, 1)]


def test_mirror_pairs_agree(capsys):
    # referee for the certificate cache the two fields of a mirror pair
    # share: alpha -> -alpha takes x^3 - ax + b to x^3 - ax - b, so (a, b)
    # and (a, -b) agree on everything but the generator
    assert main(["scan", "--a-range=-15:15", "--b-range=-15:15"]) == 0
    rows = {}
    for line in capsys.readouterr().out.strip().split("\n")[1:]:
        a, b, *cols = line.split(",")
        rows[int(a), int(b)] = cols[:6]  # delta, g, case, iw, maximal, verdict
    pairs = 0
    for (a, b), cols in rows.items():
        assert ((a, -b) in rows) == (b != 0), (a, b)
        if b > 0:
            assert rows[a, -b] == cols, (a, b)
            pairs += 1
    assert pairs > 250


def test_one_unit_per_mirror_pair_problem(capsys, monkeypatch):
    # every field of this row is indefinite or degenerate, and its mirror
    # poses the same problems x^2 - |D|*y^2 = +-N: a scan solves each once
    from cubicha import quadrep

    problems, units = [], []
    solve, unit = quadrep.solve_indefinite, quadrep.pell_fundamental
    monkeypatch.setattr(quadrep, "solve_indefinite", lambda d, n, limit: problems.append((d, n)) or solve(d, n, limit))
    monkeypatch.setattr(quadrep, "pell_fundamental", lambda dabs: units.append(dabs) or unit(dabs))
    quadrep._indefinite_certificate.cache_clear()
    assert main(["scan", "--a-range=-7:-7", "--b-range=-9:9"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) > 10
    assert len(problems) > 10
    assert len(units) == len(set(problems)) == len(problems) // 2


class TestScan:
    def test_three_by_three(self, capsys):
        code = main(["scan", "--a-range", "1:3", "--b-range", "1:3"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        # (2, 1) and (3, 2) both have the root x = 1
        assert len(lines) == 1 + 7
        assert "skipped 2" in captured.err
        a_of = [int(line.split(",")[0]) for line in lines[1:]]
        assert a_of == sorted(a_of)

    def test_unsplit_gcd_counted_as_rejection(self, capsys):
        g = 1000000000039 * 1000000000061
        assert main(["scan", f"--a-range={g}:{g}", f"--b-range={5 * g}:{5 * g}"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == CSV_HEADER
        assert "scan: 0 rows, skipped 1 (GCD_UNFACTORED=1)" in captured.err

    def test_reversed_range_exit_64(self, capsys):
        for ranges, flag, text in [
            (["--a-range=5:1", "--b-range=1:2"], "--a-range", "5:1"),
            (["--a-range=1:2", "--b-range=-1:-3"], "--b-range", "-1:-3"),
        ]:
            assert main(["scan", *ranges]) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"scan: {flag} {text} is empty (lo > hi)\n"
        # a one-value range is not reversed
        assert main(["scan", "--a-range=3:3", "--b-range=1:1"]) == 0
        assert capsys.readouterr().out.splitlines() == [CSV_HEADER, "3,1,81,1,CASE3/V2GE,54,true,FREE,1,-1,0"]

    def test_jobs_determinism(self, tmp_path):
        one = tmp_path / "one.csv"
        many = tmp_path / "many.csv"
        base = ["scan", "--a-range=-3:3", "--b-range=-3:3"]
        assert main(base + ["--out", str(one)]) == 0
        assert main(base + ["--jobs", "4", "--out", str(many)]) == 0
        assert one.read_bytes() == many.read_bytes()

    def test_unwritable_out_exit_74(self):
        code = main(
            ["scan", "--a-range", "1:1", "--b-range", "1:1", "--out", "/nonexistent/x.csv"]
        )
        assert code == 74

    def test_closed_stdout_exit_74(self):
        # the CSV of this square is larger than a pipe buffer, so the write
        # fails whenever the reader has gone, however fast it went
        proc = subprocess.Popen(
            [sys.executable, "-m", "cubicha", "scan", "--a-range=-40:40", "--b-range=-40:40"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 74
        assert "Traceback" not in err, err

    def test_row_content(self, capsys):
        main(["scan", "--a-range", "1:1", "--b-range", "1:1"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "1,1,-23,1,CASE1/V2GE,2,true,FREE,-1,0,1"

    def test_bad_range_exit_64(self, capsys):
        assert main(["scan", "--a-range", "1-3", "--b-range", "1:3"]) == 64

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 starts no pool on one CPU")
    def test_pool_from_cold_process_matches_serial(self):
        # in a fresh interpreter nothing has imported concurrent.futures
        # before the scan starts its pool
        base = ["scan", "--a-range=-6:6", "--b-range=-6:6"]
        serial = run_cli(*base, "--jobs", "1")
        pooled = run_cli(*base, "--jobs", "2")
        assert serial.returncode == 0, serial.stderr
        assert serial.stdout.count("\n") > 50
        assert (pooled.returncode, pooled.stdout, pooled.stderr) == (
            serial.returncode, serial.stdout, serial.stderr,
        )

    @pytest.fixture
    def recording_pool(self, monkeypatch):
        """A stand-in for the pool on a 4-CPU machine that records its
        worker counts and mapped tasks; no process is ever started."""
        from cubicha import cli

        record = {"pools": [], "tasks": []}

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                record["pools"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                record["tasks"] += tasks
                return map(fn, tasks)

        # cli imports the pool class from concurrent.futures when it starts one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        return record

    def test_jobs_capped_by_tasks_and_cpus(self, capsys, monkeypatch, recording_pool):
        from cubicha import cli

        pools = recording_pool["pools"]
        serial = ["scan", "--a-range=1:3", "--b-range=1:3"]
        assert main(serial) == 0
        want = capsys.readouterr().out
        for jobs, ranges, workers in [
            (5000, ["--a-range=1:1", "--b-range=1:2"], 2),
            (5000, ["--a-range=1:3", "--b-range=1:3"], 4),
            (3, ["--a-range=1:3", "--b-range=1:3"], 3),
        ]:
            pools.clear()
            assert main(["scan", *ranges, "--jobs", str(jobs)]) == 0
            assert pools == [workers], (jobs, ranges)
            out = capsys.readouterr().out
            if ranges == serial[1:]:
                assert out == want
        pools.clear()
        assert main(serial + ["--jobs", "1"]) == 0
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert main(serial + ["--jobs", "8"]) == 0
        assert pools == []
        assert capsys.readouterr().out == want + want

    def test_pool_tasks_keep_mirror_pairs_whole(self, capsys, recording_pool):
        mapped = recording_pool["tasks"]
        # b = 4..8 have no mirror in range, and b = 0 is its own
        ranges = ["--a-range=-4:4", "--b-range=-3:8"]
        assert main(["scan", *ranges, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert mapped == []
        assert main(["scan", *ranges, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        fields = [(a, b) for a, bs, *_ in mapped for b in bs]
        assert sorted(fields) == [(a, b) for a in range(-4, 5) for b in range(-3, 9)]
        for a, bs, *_ in mapped:
            assert all(-b in bs for b in bs if -3 <= -b <= 8), (a, bs)
        keys = [tuple(map(int, line.split(",")[:2])) for line in serial.strip().split("\n")[1:]]
        assert len(keys) > 40 and keys == sorted(keys)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_64(self, capsys, monkeypatch, jobs):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
        assert main(["scan", "--a-range=1:3", "--b-range=1:3", f"--jobs={jobs}"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--jobs must be at least 1, got {jobs}" in captured.err

    def test_golden_digest(self, capsys):
        # sha256 of this CSV as the Fraction-arithmetic certificates wrote it
        assert main(["scan", "--a-range=-15:15", "--b-range=-15:15"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "5696de433fa7644418550d8e41cb53b0a16c9279d881af124f70e11df83f8a55"

    def test_benchmark_square_digest(self, capsys):
        # sha256 of the CSV of the square that the grid benchmark scans
        assert main(["scan", "--a-range=-20:20", "--b-range=-20:20"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "bb82beb3ce151588698354b7c4facb402d59d65142af3f7bb5ef23ca2349fe03"

    def test_square_40_digest(self, capsys):
        # sha256 of this CSV as the solver that walked each root twice wrote it
        assert main(["scan", "--a-range=-40:40", "--b-range=-40:40"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "02369cd5dda9a2e9d060f7190de9e90571f2a8d219e5de82c1681754c135fa66"


class TestVerify:
    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exit_64(self, capsys, grid):
        # an empty grid would run suites of 0 checks and report them passed
        assert main(["verify", f"--grid={grid}"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"verify: --grid must be at least 1, got {grid}" in captured.err

    def test_small_grid_passes(self, capsys):
        code = main(["verify", "--grid", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok") == len(selfcheck.SUITES)

    def test_default_grid_output_pinned(self, capsys):
        # the number of checks per suite, so that no check goes missing
        assert main(["verify", "--grid", "20", "--seed", "0"]) == 0
        assert capsys.readouterr().out == (
            "ok   sqrt-cf-pell (101 checks)\n"
            "ok   hopf-identities (100 checks)\n"
            "ok   index-table (1424 checks)\n"
            "ok   order-certificates (2460 checks)\n"
            "ok   pell-oracle (39 checks)\n"
            "ok   freeness-oracle (1624 checks)\n"
            "ok   alaca-dedekind (9145 checks)\n"
            "7/7 suites passed\n"
        )

    def test_injected_fault_detected(self, capsys, monkeypatch):
        from cubicha import freeness

        # sabotage the closed form; the freeness-oracle suite must notice
        monkeypatch.setattr(freeness, "d_beta", lambda k, beta: 0)
        code = main(["verify", "--grid", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL freeness-oracle" in out

    def test_alaca_dedekind_suite_runs_rho(self, monkeypatch):
        from cubicha import arith

        split = []
        brent = arith._brent
        monkeypatch.setattr(arith, "_brent", lambda n, budget: split.append(n) or brent(n, budget))
        assert selfcheck.suite_alaca_dedekind(random.Random(0), 2) > 0
        assert split

    def test_injected_fault_detected_under_optimize(self, run_optimized):
        # python -O strips assert statements; the suites must fail regardless
        out = run_optimized(
            "from cubicha import cli, selfcheck\n"
            "selfcheck.verify_sqrt_identity = lambda k: False\n"
            "print('exit', cli.main(['verify', '--grid', '2']))\n"
        )
        assert "FAIL hopf-identities" in out
        assert out.splitlines()[-2:] == ["6/7 suites passed", "exit 1"], out

    def test_seed_reproducible_across_processes(self):
        # every process salts str hashes differently unless PYTHONHASHSEED
        # pins them; the suites' draws must not depend on it
        outs = set()
        for hash_seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "cubicha", "verify", "--grid", "2", "--seed", "1"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stdout
            outs.add(proc.stdout)
        assert len(outs) == 1, outs


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_main_builds_no_parser(self, capsys, monkeypatch, tmp_path):
        from cubicha import cli

        def no_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        assert main(["analyze", "--a", "1", "--b", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["freeness"]["verdict"] == "FREE"
        out = tmp_path / "scan.csv"
        assert main(["scan", "--a-range=1:3", "--b-range=1:3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER
        assert main(["scan", "--a-range=1:3", "--b-range=1:3", "--jobs", "0"]) == 64
        assert "--jobs must be at least 1, got 0" in capsys.readouterr().err

    def test_env_limit_read_on_every_call(self, capsys, monkeypatch):
        argv = ["analyze", "--a", "-210", "--b", "-186"]
        monkeypatch.setenv("CHA_TRIAL_DIVISION_LIMIT", "4")
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().out)["conventions"]["trial_division_limit"] == 4
        monkeypatch.delenv("CHA_TRIAL_DIVISION_LIMIT")
        assert main(argv) == 0
        limit = json.loads(capsys.readouterr().out)["conventions"]["trial_division_limit"]
        assert limit == DEFAULT_TRIAL_DIVISION_LIMIT

    def test_flag_beats_env_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("CHA_TRIAL_DIVISION_LIMIT", "4")
        assert main(["analyze", "--a", "-210", "--b", "-186", "--trial-division-limit", "10000000"]) == 0
        assert json.loads(capsys.readouterr().out)["conventions"]["trial_division_limit"] == 10**7

    @pytest.mark.parametrize(
        "argv", [["analyze", "--a", "1", "--b", "1"], ["verify"], ["--version"]]
    )
    def test_malformed_env_limit_raises_in_process(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("CHA_TRIAL_DIVISION_LIMIT", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cubicha: error: CHA_TRIAL_DIVISION_LIMIT must be an integer, got 'abc'\n"

    def test_no_state_carried_between_calls(self, capsys, monkeypatch):
        monkeypatch.delenv("CHA_TRIAL_DIVISION_LIMIT", raising=False)
        flags = ["--format", "text", "--reduced-convention", "loose", "--trial-division-limit", "4"]
        main(["analyze", "--a", "4", "--b", "8", *flags])
        assert "a=4 b=8" in capsys.readouterr().out
        assert main(["analyze", "--a", "4", "--b", "8"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["validation"]["code"] == "NOT_REDUCED"
        assert doc["conventions"] == {
            "reduced_convention": "strict",
            "trial_division_limit": DEFAULT_TRIAL_DIVISION_LIMIT,
        }


class TestNegativeBudget:
    COMMANDS = {
        "analyze": ["analyze", "--a", "-210", "--b", "-186"],
        "scan": ["scan", "--a-range=1:3", "--b-range=1:3"],
    }

    @pytest.mark.parametrize("command", ["analyze", "scan"])
    def test_negative_flag_exit_64(self, capsys, monkeypatch, command):
        monkeypatch.delenv("CHA_TRIAL_DIVISION_LIMIT", raising=False)
        assert main([*self.COMMANDS[command], "--trial-division-limit", "-5"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{command}: --trial-division-limit must be at least 0, got -5\n"

    @pytest.mark.parametrize("command", ["analyze", "scan"])
    def test_negative_env_exit_64(self, capsys, monkeypatch, command):
        monkeypatch.setenv("CHA_TRIAL_DIVISION_LIMIT", "-3")
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cubicha: error: CHA_TRIAL_DIVISION_LIMIT must be at least 0, got '-3'\n"

    def test_zero_budget_accepted(self, capsys, monkeypatch):
        monkeypatch.delenv("CHA_TRIAL_DIVISION_LIMIT", raising=False)
        assert main(["analyze", "--a", "1", "--b", "1", "--trial-division-limit", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["conventions"]["trial_division_limit"] == 0
        monkeypatch.setenv("CHA_TRIAL_DIVISION_LIMIT", "0")
        assert main(self.COMMANDS["scan"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER


def loaded_after(code: str, modules: tuple) -> list:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``,
    whose own output is discarded."""
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import contextlib, io, sys\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            + "".join(f"    {line}\n" for line in code.splitlines())
            + f"print(*[m for m in {modules!r} if m in sys.modules])\n",
        ],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return proc.stdout.split()


POOL_AND_WRITERS = ("concurrent.futures", "multiprocessing", "json", "csv", "fractions")


def test_library_import_loads_no_cli():
    # the parser is built when cubicha.cli is imported; library users must
    # not pay for it, nor for argparse or any command's modules
    assert loaded_after("import cubicha", ("cubicha.cli", "argparse", *POOL_AND_WRITERS)) == []


@pytest.mark.parametrize(
    "code, absent, present",
    [
        ("import cubicha.cli", POOL_AND_WRITERS, ()),
        (
            "from cubicha import cli\ncli.main(['scan', '--a-range=-3:3', '--b-range=-3:3', '--jobs', '1'])",
            ("concurrent.futures", "multiprocessing", "json", "fractions"),
            ("csv",),
        ),
        (
            "from cubicha import cli\ncli.main(['analyze', '--a', '-7', '--b', '5'])",
            ("concurrent.futures", "csv"),
            ("json",),
        ),
    ],
    ids=["import", "scan", "analyze"],
)
def test_each_command_loads_only_its_modules(code, absent, present):
    # each command imports the standard-library modules only it uses; the
    # modules it does use show that the check sees the command's imports
    assert loaded_after(code, absent + present) == list(present)
