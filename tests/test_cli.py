import hashlib
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from sigbound import cli, engine
from sigbound.cli import main, scaled_int
from sigbound.engine import _usable_cpus, run_bounds


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScaledInt:
    def test_plain_and_scientific(self):
        assert scaled_int("100000") == 10**5
        assert scaled_int("1e13") == 10**13
        assert scaled_int("2E6") == 2 * 10**6

    def test_rejects_fractional_mantissa(self):
        import argparse

        for bad in ("1.5e3", "-5", "1e-3", "abc", "1.0"):
            with pytest.raises(argparse.ArgumentTypeError):
                scaled_int(bad)

    def test_rejects_more_digits_than_the_str_limit_at_once(self, capsys):
        # the same limit as plain digits, checked before the power is
        # formed: 10**(10**7) alone took 14 s, and a z of 5001 digits made
        # run_bounds' error message raise ValueError (exit 1, a traceback)
        import argparse

        limit = sys.get_int_max_str_digits()
        assert scaled_int(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert scaled_int("0e10000000") == 0
        for bad in (f"1e{limit}", "1e10000000", "12e4299"):
            with pytest.raises(argparse.ArgumentTypeError, match="digits"):
                scaled_int(bad)
        for z in ("1e10000000", "1e5000", f"1e{limit - 1}"):
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, "bounds", "--z", z)
            assert code == 2 and out == "" and "Traceback" not in err, z
            assert time.perf_counter() - t0 < 1.0, z


class TestExitCodes:
    def test_success(self, capsys):
        assert run_cli(capsys, "empirical", "--x", "100")[0] == 0

    def test_invalid_parameter_is_2(self, capsys):
        assert run_cli(capsys, "empirical", "--x", "0")[0] == 2
        assert run_cli(capsys, "bounds", "--z", "1.5e3")[0] == 2
        assert run_cli(capsys, "dens-s", "--a", "2", "--b", "2", "--y", "3")[0] == 2
        assert run_cli(capsys, "lambda", "--y", "31", "--rmax", "0")[0] == 2

    def test_unsupported_parameter_is_3(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--y", "70000", "--z", "100")
        assert code == 3
        assert "65536" in err
        assert run_cli(capsys, "lambda", "--y", "65536", "--rmax", "1")[0] == 3
        # a b table past the row budget: the primes up to 53 fit at z = 1e8
        code, out, err = run_cli(capsys, "bounds", "--y", "157", "--z", "1e8")
        assert (code, out) == (3, "")
        assert err.rstrip().endswith("use y <= 53")
        # moment orders above moments.MAX_ORDER
        for argv in (("lambda", "--y", "31", "--rmax", "1e30"),
                     ("lambda", "--y", "31", "--rmax", "10001", "--format", "json"),
                     ("bounds", "--y", "31", "--z", "1e3", "--rmax", "1e30")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert "10000" in err

    def test_module_entry_point(self):
        # cli.entry() turns main's return value into the process exit code
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "sigbound.cli", "bounds", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)

        ok = run("--y", "3", "--z", "1e4", "--rmax", "20", "--threads", "1", "--format", "json")
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["command"] == "bounds"
        assert run("--z", "1").returncode == 2
        assert run("--y", "65536").returncode == 3

    def test_closed_pipe_exits_quietly(self):
        # 220 kB of JSON, past any pipe buffer, so the write meets the
        # closed pipe whenever the reader closes it
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigbound.cli", "lambda", "--y", "3", "--rmax", "1e4",
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == b'{"command"'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_failed_write_exits_4_with_one_line(self):
        # every write to /dev/full fails with ENOSPC
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "sigbound.cli", "lambda", "--y", "3", "--rmax", "30",
                 "--format", "json"],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
        assert proc.returncode == 4
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("cannot write the output: ")


class TestEmpirical:
    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "empirical", "--x", "1e4")
        assert code == 0
        assert out.strip() == "551 / 10000 = 0.0551"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "empirical", "--x", "1e3", "--format", "json")
        data = json.loads(out)
        assert data["command"] == "empirical"
        assert data["count"] == 60
        assert data["proportion"] == 0.06
        assert data["params"] == {"x": 1000}

    def test_block_size_flag(self, capsys):
        # the block size is derived from x; the flag no longer exists
        code, out, err = run_cli(capsys, "empirical", "--x", "1e3", "--block-size", "8")
        assert code == 2 and out == ""
        assert "--block-size" in err
        assert run_cli(capsys, "moment", "--a", "1", "--b", "2", "--y", "3", "--r", "1",
                       "--x", "1e3", "--block-size", "8")[0] == 2

    def test_rejects_x_beyond_the_sieve_limit(self, capsys):
        code, _, err = run_cli(capsys, "empirical", "--x", "1e20")
        assert code == 2
        assert "int64-safe" in err


class TestDensS:
    def test_exact_rational_output(self, capsys):
        code, out, _ = run_cli(capsys, "dens-s", "--a", "3", "--b", "2", "--y", "3")
        assert code == 0
        assert "1/9" in out

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "dens-s", "--a", "15", "--b", "2", "--y", "5", "--format", "json")
        data = json.loads(out)
        assert data["dens"] == "4/225"

    def test_rejects_a_large_prime_factor_at_once(self, capsys):
        # b = 2 * (10^18 + 3): only the primes <= y are divided out
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "dens-s", "--a", "3", "--b", "2000000000000000006", "--y", "7")
        assert time.perf_counter() - t0 < 2.0
        assert code == 2
        assert "b=2000000000000000006 is not 7-smooth" in err

    def test_large_y_prints_the_whole_fraction(self, capsys):
        # the denominator has more digits than Python's default int-to-str limit
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "dens-s", "--a", "1", "--b", "2", "--y", "2e4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert sys.get_int_max_str_digits() == limit
        num, den = data["dens"].split("/")
        assert len(den) > 4300
        sys.set_int_max_str_digits(0)
        try:
            num, den = int(num), int(den)
        finally:
            sys.set_int_max_str_digits(limit)
        assert Fraction(num, den).denominator == den
        assert num / den == data["dens_float"]

    def test_y_at_the_prime_ceiling_is_unsupported(self, capsys):
        for argv in (("dens-s", "--a", "1", "--b", "2", "--y", "1e5"),
                     ("dens-s", "--a", "1", "--b", "2", "--y", "65536", "--format", "json"),
                     ("moment", "--a", "1", "--b", "2", "--y", "1e5", "--r", "1", "--x", "10")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert "65536" in err


class TestLambda:
    def test_r1_value(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--y", "3", "--rmax", "1")
        assert code == 0
        assert "1.096622712" in out  # UP-certified 10 digits of zeta(2)*2/3

    def test_json_rows(self, capsys):
        _, out, _ = run_cli(capsys, "lambda", "--y", "31", "--rmax", "5", "--format", "json")
        data = json.loads(out)
        assert len(data["rows"]) == 5
        for r, value, root in data["rows"]:
            assert value >= 1.0 and root >= 1.0

    def test_rows_keep_their_bits(self, capsys):
        # every order 1..r_max, each value and root as the every-order
        # table builds them
        _, out, _ = run_cli(capsys, "lambda", "--y", "31", "--rmax", "200", "--format", "json")
        rows = json.loads(out)["rows"]
        assert [r for r, _, _ in rows] == list(range(1, 201))
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "6694c76f93722d649a96210d43bfa74158bea4203aeb5fa40078fae96ae8bc07"


class TestBounds:
    def test_single_cell_json_schema(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--y", "2", "--z", "2", "--rmax", "5",
            "--threads", "1", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "command", "params", "lower", "upper", "covered_mass",
            "pair_count", "elapsed_seconds", "certified",
        }
        assert data["certified"] is True
        assert data["pair_count"] == 1
        assert data["covered_mass"] == pytest.approx(0.5, abs=1e-12)
        assert 0.0 <= data["lower"] <= data["upper"] <= 1.0
        # round trip
        assert json.loads(json.dumps(data)) == data

    def test_covered_mass_line_is_certified(self, capsys, table_y31_r200):
        # rounded to nearest, 0.815110074980389 would print as 0.8151100750
        code, out, _ = run_cli(capsys, "bounds", "--y", "31", "--z", "1e4", "--rmax", "200",
                               "--threads", "1")
        assert code == 0
        m = re.search(r"^covered mass +: >= (\S+)$", out, re.M)
        assert m, out
        r = run_bounds(31, 10**4, 200, threads=1, table=table_y31_r200)
        assert float(m[1]) <= r.covered_mass

    def test_thread1_bit_reproducible(self, capsys):
        out1 = run_cli(capsys, "bounds", "--y", "3", "--z", "1e4", "--rmax", "20",
                       "--threads", "1", "--format", "json")[1]
        out2 = run_cli(capsys, "bounds", "--y", "3", "--z", "1e4", "--rmax", "20",
                       "--threads", "1", "--format", "json")[1]
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_seconds")
        d2.pop("elapsed_seconds")
        assert d1 == d2

    def test_flush_every_writes_progress_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--y", "3", "--z", "1e4", "--rmax", "20",
            "--threads", "1", "--flush-every", "50",
        )
        assert code == 0
        flushes = [line for line in err.splitlines() if line.startswith("flush:")]
        assert flushes
        assert "lower>=" in flushes[0] and "upper<=" in flushes[0]
        # results stay on stdout
        assert "certified bracket" in out


    def test_flush_every_with_two_threads(self, capsys):
        # the pool's chunk sums come back in chunk order and a chunk holds
        # many cells; a chunk that crosses a multiple of --flush-every must
        # still print a flush line
        code, _, err = run_cli(
            capsys, "bounds", "--y", "3", "--z", "1e4", "--rmax", "20",
            "--threads", "2", "--flush-every", "50",
        )
        assert code == 0
        assert any(line.startswith("flush:") for line in err.splitlines())

    def test_progress_lines_are_certified(self, capsys, monkeypatch):
        # a clock that jumps 2 s per reading makes every chunk a 1 s tick
        clock = itertools.count(0.0, 2.0)
        monkeypatch.setattr(engine.time, "perf_counter", lambda: next(clock))
        events = []

        def recorded(*args, progress, **kwargs):
            def both(part, flush):
                events.append((part, flush))
                progress(part, flush)
            return run_bounds(*args, progress=both, **kwargs)

        monkeypatch.setattr(cli, "run_bounds", recorded)
        code, _, err = run_cli(capsys, "bounds", "--y", "31", "--z", "1e5", "--rmax", "200",
                               "--threads", "1", "--flush-every", "20000")
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == len(events) > 1
        assert {flush for _, flush in events} == {True, False}
        for line, (part, flush) in zip(lines, events):
            m = re.fullmatch(r"(flush|progress): pairs=(\d+) covered>=(\S+) "
                             r"lower>=(\S+) upper<=(\S+)", line)
            assert m, line
            assert m[1] == ("flush" if flush else "progress")
            assert int(m[2]) == part.pair_count
            assert float(m[3]) <= part.covered_mass
            assert float(m[4]) <= part.lower_total.value
            assert float(m[5]) >= part.upper_total.value

    def test_huge_thread_request_is_capped(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--y", "31", "--z", "1e3",
                               "--threads", "1e30", "--format", "json")
        assert code == 0
        assert 1 <= json.loads(out)["params"]["threads"] <= _usable_cpus()

    def test_default_threads_ignore_the_environment(self, capsys, monkeypatch):
        # the default is run_bounds' own: one thread
        monkeypatch.setenv("SIGBOUND_THREADS", "2")
        code, out, _ = run_cli(capsys, "bounds", "--y", "31", "--z", "1e5", "--format", "json")
        assert code == 0
        assert json.loads(out)["params"]["threads"] == 1
        assert run_bounds(31, 10**5, 200).threads == 1


class TestMoment:
    def test_runs_and_reports_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "moment", "--a", "1", "--b", "2", "--y", "3", "--r", "0",
            "--x", "1e5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["sum_odd"] == data["sum_even"]
        assert data["normalized_odd"] == pytest.approx(1.0, rel=0.01)

    def test_order_above_the_ceiling_is_unsupported(self, capsys):
        code, out, err = run_cli(capsys, "moment", "--a", "1", "--b", "2", "--y", "3",
                                 "--r", "1e400", "--x", "10")
        assert code == 3
        assert out == ""
        assert "10000" in err and "Traceback" not in err

    def test_overflowing_sums_are_json_null(self, capsys):
        def no_constants(name):
            raise ValueError(f"not JSON: {name}")

        code, out, _ = run_cli(capsys, "moment", "--a", "1", "--b", "2", "--y", "3",
                               "--r", "5000", "--x", "1000", "--format", "json")
        assert code == 0
        data = json.loads(out, parse_constant=no_constants)
        assert data["sum_even"] is None and data["normalized_even"] is None
        code, out, _ = run_cli(capsys, "moment", "--a", "1", "--b", "2", "--y", "3",
                               "--r", "5000", "--x", "1000")
        assert code == 0
        assert "sum h^r(2n)   = inf" in out

    def test_underflowing_density_scale(self, capsys):
        # dens * x underflows to 0.0: no normalized value, and no crash
        argv = ("moment", "--a", "3", "--b", "2e400", "--y", "5", "--r", "1", "--x", "10")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "normalized    : odd n/a  even n/a" in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["normalized_odd"] is None and data["normalized_even"] is None
