import hashlib
import json
import os
import random
import stat
import subprocess
import sys
import time

import pytest

from cubicha.cli import CSV_HEADER, analyze_document, build_parser, main
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
        main(["analyze", "--a", "3", "--b", "3"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out

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


def test_one_build_per_valid_field(capsys, build_calls):
    assert main(["scan", "--a-range", "3:3", "--b-range=-9:9"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) > 5
    assert build_calls == [(int(r.split(",")[0]), int(r.split(",")[1])) for r in rows]
    build_calls.clear()
    assert main(["analyze", "--a", "6", "--b", "1"]) == 0
    assert build_calls == [(6, 1)]


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

    def test_empty_range(self, capsys):
        code = main(["scan", "--a-range", "2:1", "--b-range", "1:3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == CSV_HEADER

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

    def test_row_content(self, capsys):
        main(["scan", "--a-range", "1:1", "--b-range", "1:1"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "1,1,-23,1,CASE1/V2GE,2,true,FREE,-1,0,1"

    def test_bad_range_exit_64(self, capsys):
        assert main(["scan", "--a-range", "1-3", "--b-range", "1:3"]) == 64

    def test_golden_digest(self, capsys):
        # sha256 of this CSV as the Fraction-arithmetic certificates wrote it
        assert main(["scan", "--a-range=-15:15", "--b-range=-15:15"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "5696de433fa7644418550d8e41cb53b0a16c9279d881af124f70e11df83f8a55"


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code = main(["verify", "--grid", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok") == len(selfcheck.SUITES)

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
            "from cubicha import cli, cubicfield\n"
            "cubicfield.verify_sqrt_identity = lambda k: False\n"
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
