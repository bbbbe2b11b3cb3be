"""Command-line front end tests: parsing, precedence, determinism, outputs."""
import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from branchlab.cli import (
    _CSV_BLOCK_ROWS, _SCHEMAS, _option, _write_csv, _write_json, main, parse_args,
    replica_seed, splitmix64,
)
from branchlab.errors import UsageError

# each command run in process is stopped after this long, so a regression
# that hangs (as `recurse --alpha 1e300` once did) fails instead of stalling
_TIMEOUT_S = 60


class _Run(NamedTuple):
    code: int
    stdout: str
    err: list  # the stderr lines
    files: dict  # name -> text of each file left in the run's directory


def _timeout(signum, frame):
    raise TimeoutError(f"the command ran past {_TIMEOUT_S} s")


def _cli(argv, env=None):
    """Run ``cli.main`` on argv in process, with ``{out}`` standing for the
    path ``out`` in a fresh directory.

    ``env`` sets environment variables for the run (a value of None unsets
    one).  ``--help`` ends in argparse's SystemExit, whose code is returned.
    Any other exception escaping ``main`` fails the calling test.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        for name, value in (env or {}).items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        out = os.path.join(tmp, "out")
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([out if a == "{out}" else a for a in argv])
        except SystemExit as exc:
            code = exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), encoding="utf-8", newline="") as fh:
                files[name] = fh.read()
    return _Run(code, stdout.getvalue(), stderr.getvalue().splitlines(), files)


def _assert_failed(run, code, named=None):
    """The failure contract: the exit code; the last stderr line is the only
    ``error:`` (code 1) or ``usage error:`` (code 2) line, and for code 1 the
    only line (a usage error may print the parser's usage first); it holds
    ``named``; no file is left."""
    assert run.code == code, run.err
    assert run.err and run.err[-1].startswith("error:" if code == 1 else "usage error:")
    assert [ln for ln in run.err if ln.startswith(("error:", "usage error:"))] == run.err[-1:]
    assert code == 2 or len(run.err) == 1
    if named is not None:
        assert named in run.err[-1]
    assert not run.files


class TestParseArgs:
    def test_single_alpha(self):
        cfg = parse_args(["nu", "--alpha", "1"])
        assert cfg.command == "nu" and cfg.params["alpha"] == 1.0

    def test_range_check_names_flag(self):
        with pytest.raises(UsageError, match="--beta"):
            parse_args(["simulate", "--model", "fmm", "--log-f", "1",
                        "--beta", "1.5"])

    def test_unknown_subcommand_exits_two(self):
        assert _cli(["frobnicate"]).code == 2

    def test_missing_required_flag(self):
        with pytest.raises(UsageError, match="--alpha"):
            parse_args(["recurse"])

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"alpha": 2.0, "t_max": 100}))
        cfg = parse_args(["recurse", "--config", str(path), "--t-max", "500"])
        assert cfg.params["alpha"] == 2.0
        assert cfg.params["t_max"] == 500

    def test_config_file_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"alpha": 2.0, "zeta": 1}))
        with pytest.raises(UsageError, match="zeta"):
            parse_args(["recurse", "--config", str(path)])

    def test_env_seed_default(self, monkeypatch):
        monkeypatch.setenv("BRANCHLAB_SEED", "123")
        cfg = parse_args(["simulate", "--model", "fmm", "--log-f", "50"])
        assert cfg.params["seed"] == 123

    def test_bool_flag_pair(self):
        cfg = parse_args(["simulate", "--model", "fmm", "--log-f", "50",
                          "--no-restart-on-extinction"])
        assert cfg.params["restart_on_extinction"] is False


class TestSeedDerivation:
    def test_splitmix_reference_values(self):
        # splitmix64 of 0, 1, 2 from the published sequence
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x6E789E6AA1B965F4
        assert splitmix64(2) == 0x06C45D188009454F

    def test_replica_seeds_distinct(self):
        seeds = {replica_seed(42, k) for k in range(1000)}
        assert len(seeds) == 1000


# CSV columns as the commands produce them, one cell type per column: Python
# and NumPy floats (NaN, +-inf, -0.0 and subnormals included) and Python and
# NumPy ints
_CELL_KINDS = (
    st.floats(allow_subnormal=True),
    st.floats(allow_subnormal=True).map(np.float64),
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
)


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=12))
    kinds = draw(st.lists(st.sampled_from(_CELL_KINDS), min_size=1, max_size=6))
    return [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _csv_stdout(header, tables) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_csv(None, header, tables)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_csv_writer_writes_floats_as_their_repr(columns):
    rows = list(zip(*columns))
    header = [f"c{k}" for k in range(len(columns))]
    lines = _csv_stdout(header, [columns]).split("\n")
    assert lines[0] == ",".join(header) and lines[-1] == ""
    assert len(lines) == len(rows) + 2
    for row, fields in zip(rows, csv.reader(lines[1:-1])):
        assert len(fields) == len(row)
        for v, field in zip(row, fields):
            if isinstance(v, float):
                assert field == repr(float(v))
                back = float(field)
                assert math.isnan(back) if math.isnan(v) else _bits(back) == _bits(v)
            else:
                assert field == str(int(v))


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


# values whose repr a writer keyed on float values (not bits) could mix up:
# signed zeros, NaNs with and without the sign bit, the subnormal range, +-inf
_SPECIAL_FLOATS = st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, math.inf, -math.inf,
    math.nan, _from_bits(0xFFF8000000000000), _from_bits(0x7FF0000000000001), 1.0, -1.0,
])
_B = _CSV_BLOCK_ROWS


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_rows=st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B + 1]),
    pools=st.lists(st.lists(st.one_of(_SPECIAL_FLOATS, st.floats()), min_size=1, max_size=5),
                   min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cut=st.integers(min_value=0, max_value=2 * _B + 1),
)
@example(n_rows=3, pools=[[0.0, -0.0]], seed=0, cut=0)
def test_csv_writer_matches_the_csv_module(tmp_path, n_rows, pools, seed, cut):
    """Block writer bytes equal ``csv.writer``'s for the rows of the same columns,
    written as one table or cut into two."""
    rng = np.random.default_rng(seed)
    # few distinct values per float column, so each block repeats them
    columns = [np.array(pool)[rng.integers(len(pool), size=n_rows)] for pool in pools]
    if n_rows:
        columns[0][:len(pools[0])] = pools[0][:n_rows]  # every pool value appears
    columns += [rng.integers(-2**63, 2**63 - 1, size=n_rows, endpoint=True),
                np.array(["exact", "logdet"], dtype=object)[rng.integers(2, size=n_rows)]]
    header = [f"c{k}" for k in range(len(columns))]
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() for c in columns)))
    out = tmp_path / "t.csv"
    _write_csv(str(out), header, [columns])
    assert out.read_bytes() == ref.getvalue().encode()
    assert _csv_stdout(header, [columns]) == ref.getvalue()
    cut = min(cut, n_rows)
    _write_csv(str(out), header, ([c[:cut] for c in columns], [c[cut:] for c in columns]))
    assert out.read_bytes() == ref.getvalue().encode()


def test_csv_writer_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match="differ in length"):
        _csv_stdout(["a", "b"], [[np.zeros(3), np.zeros(2)]])


class TestOutputs:
    def test_json_writer_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(str(tmp_path / "x.json"), {"slope": math.nan})

    def test_nu_sweep_csv(self):
        run = _cli(["nu", "--alpha-min", "0.05", "--alpha-max", "10",
                    "--points", "40", "--log-grid", "--out", "{out}"])
        assert run.code == 0
        lines = run.files["out"].splitlines()
        assert lines[0] == "alpha,T,nu,nu_approx,rel_err"
        assert len(lines) == 41
        rel = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(rel) < 0.07

    def test_recurse_csv_and_period_json(self):
        run = _cli(["recurse", "--alpha", "1", "--t-max", "400",
                    "--detect-period", "--out", "{out}"])
        assert run.code == 0
        lines = run.files["out"].splitlines()
        assert lines[0] == "t,log_chi,I_t,log_c_t,nu_hat"
        first = lines[1].split(",")
        assert float(first[1]) == 0.0  # log chi_1
        row10 = lines[10].split(",")
        assert float(row10[1]) == pytest.approx(math.log(36.0), rel=1e-12)
        assert int(row10[2]) == 8
        doc = json.loads(run.files["out.period.json"])
        assert doc["t1"] <= 4 and doc["constraints_ok"]
        assert sorted(round(p, 6) for p in doc["phi"]) == [1.333333, 1.5, 1.5]

    @pytest.mark.parametrize("t_max, finite", [(3, 0), (4, 1)])
    def test_recurse_nu_hat_column_at_the_period(self, t_max, finite):
        # alpha = 1 has T = 3: nu_hat needs t + T <= t_max
        run = _cli(["recurse", "--alpha", "1", "--t-max", str(t_max), "--out", "{out}"])
        assert run.code == 0
        nu_hat = [float(row["nu_hat"]) for row in csv.DictReader(io.StringIO(run.files["out"]))]
        assert len(nu_hat) == t_max
        assert [math.isfinite(v) for v in nu_hat] == [True] * finite + [False] * (t_max - finite)
        if finite:
            assert nu_hat[0] == pytest.approx(math.log(4.0) / 3.0, rel=1e-15)

    def test_simulate_csv_and_summary(self):
        run = _cli(["simulate", "--model", "mmm", "--tail", "pareto:alpha=1",
                    "--beta", "0.1", "--log-f", "50", "--t-max", "12", "--seed", "1",
                    "--replicas", "3", "--out", "{out}"])
        assert run.code == 0
        lines = run.files["out"].splitlines()
        assert lines[0] == "replica,t,log_X,log_W,n_classes,mode,dominant_age"
        assert len(lines) == 1 + 3 * 13
        doc = json.loads(run.files["out.summary.json"])
        assert doc["replicas"] == 3 and doc["survived"] == 3
        assert doc["survival_fraction"] == 1.0

    def test_identical_invocations_are_byte_identical(self):
        argv = ["simulate", "--model", "fmm", "--beta", "0.2", "--log-f", "40",
                "--t-max", "10", "--seed", "9", "--replicas", "4", "--out", "{out}"]
        a, b = _cli(argv), _cli(argv)
        assert a.code == b.code == 0
        assert a.files["out"] == b.files["out"]

    def test_parallel_jobs_match_sequential(self):
        argv = ["simulate", "--model", "fmm", "--beta", "0.2", "--log-f", "40",
                "--t-max", "8", "--seed", "9", "--replicas", "4", "--out", "{out}"]
        seq, par = _cli(argv + ["--jobs", "1"]), _cli(argv + ["--jobs", "2"])
        assert seq.code == par.code == 0
        assert seq.files["out"] == par.files["out"]

    def test_freq_recursion_outputs(self):
        run = _cli(["freq", "--from", "recursion", "--alpha", "1",
                    "--t", "9,12", "--out", "{out}"])
        assert run.code == 0
        lines = run.files["out"].splitlines()
        assert lines[0] == "t,J,R"
        p_lines = run.files["out.p.csv"].splitlines()
        assert p_lines[0] == "t,P"
        t9 = [line for line in p_lines[1:] if line.startswith("9,")]
        assert float(t9[0].split(",")[1]) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_collapse_outputs(self):
        run = _cli(["collapse", "--alpha", "1",
                    "--t-pairs", "300:303,300:301", "--out", "{out}"])
        assert run.code == 0
        lines = run.files["out"].splitlines()
        assert lines[0] == "t_a,t_b,distance"
        d_same = float(lines[1].split(",")[2])
        d_diff = float(lines[2].split(",")[2])
        assert d_same <= 1e-6 and d_diff > 0.01

    def test_freq_run_source(self):
        run = _cli(["freq", "--from", "run", "--model", "fmm",
                    "--tail", "pareto:alpha=1", "--beta", "0.1",
                    "--log-f", "50", "--seed", "2", "--t", "8", "--out", "{out}"])
        assert run.code == 0
        lines = run.files["out"].splitlines()
        assert lines[0] == "t,J,R"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, rel=1e-9)  # self ratio

    def test_recurse_seed_strings(self):
        run = _cli(["recurse", "--alpha", "1", "--seed", "half",
                    "--t-max", "5", "--out", "{out}"])
        assert run.code == 0
        first = run.files["out"].splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(math.log(0.5), rel=1e-12)
        phis = f"ctex:phis={4.0 / 3.0!r},1.5,1.5"
        run = _cli(["recurse", "--alpha", "1", "--seed", phis,
                    "--t-max", "5", "--out", "{out}"])
        assert run.code == 0
        first = run.files["out"].splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(math.log(3.0), rel=1e-9)

    def test_recurse_seed_file(self, tmp_path):
        seed_file = tmp_path / "seed.txt"
        seed_file.write_text("5.0\n2.0\n")
        run = _cli(["recurse", "--alpha", "1", "--seed", f"file:{seed_file}", "--t-max", "4",
                    "--out", "{out}"])
        assert run.code == 0
        rows = [line.split(",") for line in run.files["out"].splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(math.log(5.0), rel=1e-12)
        # a_2 = 2 loses to (1/alpha) chi_1 = 5
        assert float(rows[1][1]) == pytest.approx(math.log(5.0), rel=1e-12)

    def test_seed_ctex_output(self):
        phis = f"{4.0 / 3.0!r},1.5,1.5"
        run = _cli(["seed-ctex", "--alpha", "1", "--phis", phis, "--out", "{out}"])
        assert run.code == 0
        doc = json.loads(run.files["out"])
        assert doc["indu_ok"] is True
        assert doc["a"][0] == pytest.approx(3.0, rel=1e-9)
        assert doc["a"][1] == pytest.approx(4.0, rel=1e-9)

    def test_verify_lemmas_exit_code(self):
        run = _cli(["verify-lemmas", "--replicas", "2000", "--seed", "3"])
        assert run.code == 0
        assert "galton-lower-bound" in run.stdout and "pass" in run.stdout


class TestEntryPoint:
    # the two tests here that start a child interpreter are the ones whose
    # subject is the child: the `python -m` entry, and a pipe its reader closes

    def test_module_invocation(self):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "0"
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "nu", "--alpha", "1"],
            capture_output=True, text=True, env=env, timeout=_TIMEOUT_S,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "alpha,T,nu,nu_approx,rel_err"

    @pytest.mark.parametrize("argv", [["--help"], ["recurse", "--help"]],
                             ids=["top", "recurse"])
    def test_help_exits_zero(self, argv):
        run = _cli(argv)
        assert run.code == 0
        assert run.stdout.startswith("usage: branchlab") and run.err == []

    def test_unknown_flag_is_a_usage_error(self):
        run = _cli(["recurse", "--bogus"])
        _assert_failed(run, 2, named="--bogus")
        # the failing subcommand's usage, then one error line and nothing else
        assert run.err[0].startswith("usage: branchlab recurse ")
        assert run.err[-1] == "usage error: unrecognized arguments: --bogus"
        assert [line for line in run.err if "error" in line] == [run.err[-1]]

        # a stray flag before the subcommand belongs to the top-level parser
        run = _cli(["--bogus", "recurse", "--alpha", "1", "--t-max", "5"])
        _assert_failed(run, 2)
        assert run.stdout == ""
        assert run.err[0].startswith("usage: branchlab [")
        assert run.err[-1] == "usage error: unrecognized arguments: --bogus"
        assert [line for line in run.err if "error" in line] == [run.err[-1]]

    def test_bad_flag_exit_code(self):
        _assert_failed(_cli(["simulate", "--model", "fmm", "--log-f", "1", "--beta", "2"]),
                       2, named="--beta")

    def test_horizon_overflow_is_a_typed_error(self):
        run = _cli(["simulate", "--model", "fmm", "--tail", "pareto:alpha=0.3", "--log-f", "50",
                    "--t-max", "700", "--seed", "1", "--out", "{out}"])
        _assert_failed(run, 1, named="generation")

    @pytest.mark.parametrize("argv, named", [
        (["seed-ctex", "--alpha", "1e-308", "--phis", "1e308", "--t-max", "4"], "a_2 "),
        (["simulate", "--model", "mmm", "--log-f", "1", "--t-max", "2",
          "--exact-event-cap", "1e30"], "exact_event_cap"),
        (["simulate", "--model", "fmm", "--log-f", "1", "--t-max", "2",
          "--exact-event-cap", "1e30"], "exact_event_cap"),
        (["simulate", "--model", "mmm", "--log-f", "50", "--t-max", "40", "--seed", "1",
          "--mmm-poisson-threshold", "1e30"], "mmm_poisson_threshold"),
        (["simulate", "--model", "mmm", "--log-f", "50", "--t-max", "40", "--seed", "1",
          "--mmm-poisson-threshold", "inf"], "mmm_poisson_threshold"),
        # rejected by SimConfig, before the spectrum table allocates 2e30 bins
        (["simulate", "--model", "mmm", "--log-f", "50", "--t-max", "40", "--seed", "1",
          "--mmm-bins-per-decade", "1000000000000000000000000000000"], "mmm_bins_per_decade"),
        (["seed-ctex", "--alpha", "1", "--phis", "nan,1.5,1.5", "--t-max", "12"],
         "multipliers"),
        (["recurse", "--alpha", "1", "--seed", "ctex:phis=nan,1.5,1.5", "--t-max", "8"],
         "multipliers"),
        # alpha past growth.ALPHA_MAX: these used to crash (nu) or hang (recurse)
        (["nu", "--alpha", "1e308"], "alpha"),
        (["recurse", "--alpha", "1e300", "--t-max", "50"], "alpha"),
        (["nu", "--alpha-min", "1", "--alpha-max", "1e300", "--points", "5", "--log-grid"],
         "alpha"),
        (["freq", "--alpha", "1e300", "--t", "3"], "alpha"),
    ], ids=["seed_ctex_overflow", "mmm_event_cap", "fmm_event_cap",
            "mmm_poisson_threshold_1e30", "mmm_poisson_threshold_inf", "mmm_bins_per_decade_1e30",
            "seed_ctex_nan_phi", "recurse_ctex_nan_phi", "nu_alpha_1e308",
            "recurse_alpha_1e300", "nu_sweep_past_bound", "freq_alpha_1e300"])
    def test_out_of_range_input_is_a_typed_error(self, argv, named):
        _assert_failed(_cli([*argv, "--out", "{out}"]), 1, named=named)

    # each solve past recursion.MAX_T_MAX is refused before its first allocation
    @pytest.mark.parametrize("argv", [
        ["recurse", "--alpha", "1", "--t-max", "10000000000"],
        ["seed-ctex", "--alpha", "1", "--phis", "1.3333333333333333,1.5,1.5",
         "--t-max", "10000000000"],
        ["freq", "--alpha", "1", "--t", "10000000000"],
        ["collapse", "--alpha", "1", "--t-pairs", "2:10000000000"],
    ], ids=["recurse", "seed_ctex", "freq", "collapse"])
    def test_recursion_horizon_past_the_bound_is_a_typed_error(self, monkeypatch, argv):
        def refuse(self, t_max):
            raise AssertionError(f"log_a_array({t_max}) ran")

        monkeypatch.setattr("branchlab.recursion.SeedSequence.log_a_array", refuse)
        _assert_failed(_cli([*argv, "--out", "{out}"]), 1, named="t_max")

    # stored rows past simulate.MAX_ROWS are refused before any replica runs;
    # 10**4 replicas at t-max 10**6 is a list of configs small enough to build
    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "fmm", "--log-f", "1", "--replicas", "10000",
         "--t-max", "1000000"],
        ["simulate", "--model", "fmm", "--log-f", "1", "--t-max", "10000000000"],
        ["freq", "--from", "run", "--t", "10000000000"],
    ], ids=["replicas", "t_max", "freq_run"])
    def test_stored_rows_past_the_bound_are_a_typed_error(self, monkeypatch, argv):
        def refuse(cfg):
            raise AssertionError("a replica ran")

        monkeypatch.setattr("branchlab.simulate.run", refuse)
        _assert_failed(_cli([*argv, "--seed", "1", "--out", "{out}"]), 1, named="rows")

    def test_closed_stdout_is_one_error_line(self):
        # 40,000 rows are far more than a pipe holds, so the writer is still
        # writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "branchlab.cli", "recurse", "--alpha", "1",
             "--t-max", "40000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"t,log_chi,I_t,log_c_t,nu_hat\n"
            proc.stdout.close()
            assert proc.wait(timeout=_TIMEOUT_S) == 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            err = proc.stderr.read().decode()
            proc.stderr.close()
        assert "Traceback" not in err and "Exception ignored" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "closed" in lines[0]

    # "-inf" after a space: argparse alone read it as a flag (a usage error)
    @pytest.mark.parametrize("log_f", ["nan", "inf", "-inf"])
    def test_non_finite_log_f_is_a_typed_error(self, log_f):
        run = _cli(["simulate", "--model", "mmm", "--log-f", log_f, "--t-max", "2"])
        _assert_failed(run, 1, named="log_f")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_seed_file_value_is_a_typed_error(self, tmp_path, value):
        seed_file = tmp_path / "seed.txt"
        seed_file.write_text(f"5.0\n{value}\n")
        run = _cli(["recurse", "--alpha", "1", "--seed", f"file:{seed_file}", "--t-max", "4",
                    "--out", "{out}"])
        _assert_failed(run, 1, named="explicit seed")

    @pytest.mark.parametrize("flag, env", [(["--seed", "-5"], None), ([], "-3")],
                             ids=["flag", "env"])
    def test_negative_verify_lemmas_seed_is_a_usage_error(self, flag, env):
        run = _cli(["verify-lemmas", "--replicas", "100", *flag], env={"BRANCHLAB_SEED": env})
        _assert_failed(run, 2)
        assert len(run.err) == 1
        assert "--seed" in run.err[0] and "BRANCHLAB_SEED" in run.err[0]
        assert run.stdout == ""

    def test_recurse_failed_period_check_writes_nothing(self):
        run = _cli(["recurse", "--alpha", "1", "--t-max", "5", "--detect-period",
                    "--out", "{out}"])
        _assert_failed(run, 1, named="too short for period 3")
        assert run.stdout == ""

    def test_negative_value_after_a_space_is_read(self):
        # argparse alone reads "-1e-300" as a flag, and "--log-f" misses its value
        run = _cli(["simulate", "--model", "fmm", "--log-f", "-1e-300", "--t-max", "2",
                    "--seed", "1", "--out", "{out}"])
        assert run.code == 0 and run.err == [] and "out" in run.files

    @pytest.mark.parametrize("window", [
        ["--slope-lo", "30", "--slope-hi", "10"],
        ["--slope-hi", "100"],
        ["--slope-lo", "-3"],
        ["--slope-lo", "0"],
        ["--slope-lo", "40"],
        {"slope_lo": 41},
        ["--t-max", "1"],  # the default window (5 * 1) // 8 = 0 to 1
        ["--t-max", "0"],
    ], ids=["reversed", "hi_past_t_max", "negative_lo", "zero_lo", "empty", "config_key",
            "default_at_t_max_1", "default_at_t_max_0"])
    def test_bad_slope_window_is_a_usage_error(self, tmp_path, monkeypatch, window):
        def refuse(cfg):
            raise AssertionError("a replica ran before the window was checked")

        monkeypatch.setattr("branchlab.simulate.run", refuse)
        argv = ["simulate", "--model", "fmm", "--log-f", "2", "--t-max", "40",
                "--seed", "1", "--out", "{out}"]
        if isinstance(window, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(window))
            argv += ["--config", str(config)]
        else:
            argv += window
        run = _cli(argv)
        _assert_failed(run, 2, named="slope window")
        assert len(run.err) == 1

    def test_given_slope_window_inside_horizon_is_used(self):
        run = _cli(["simulate", "--model", "fmm", "--log-f", "50", "--t-max", "40",
                    "--seed", "1", "--slope-lo", "1", "--slope-hi", "40", "--out", "{out}"])
        assert run.code == 0
        doc = json.loads(run.files["out.summary.json"])
        assert doc["slope_window"] == [1, 40]
        assert doc["loglog_slopes"]


# The whole CLI over generated argv, --config documents and BRANCHLAB_SEED
# values.  Numbers come from boundary-heavy pools: 0, the smallest subnormal,
# 1e-300, 1, the alpha bound 1e9 and its successor, 1e300, non-finite values,
# negatives and text the parser rejects.  Sizes stay small (t-max <= 100,
# replicas <= 2, points <= 5).  Each pool starts with a typical valid value,
# which hypothesis draws most.
_NUMBERS = ("0.5", "1", "0", "5e-324", "-5e-324", "1e-300", "1e9",
            repr(math.nextafter(1e9, math.inf)), "1e300", "inf", "-inf", "nan", "-1", "x")
_SEEDS = ("linear", "half", "ctex:phis=1.3333333333333333,1.5,1.5", "ctex:phis=nan",
          "ctex:phis=1e300,5e-324", "ctex:", "file:", "x")
_SIZES = ("5", "20", "2", "1", "0", "-1", "100")
_POOLS = {
    ("int", "t_max"): _SIZES,
    ("int", "slope_lo"): _SIZES,
    ("int", "slope_hi"): _SIZES,
    ("int", "points"): ("5", "2", "1", "0", "-1"),
    ("int", "replicas"): ("1", "2", "0", "-1"),
    ("int", "jobs"): ("1",),
    ("int", "seed"): ("1", "0", "-1", str(2**64 - 1), str(2**64)),
    ("int", "mmm_bins_per_decade"): ("8", "1", "0", "-1"),
    ("ints", "t"): ("1", "2", "1,2", "3,5", "20", "1,99", "0", "-1", "x"),
    ("str", "model"): ("fmm", "mmm", "x"),
    ("str", "source"): ("recursion", "run", "x"),
    ("str", "tail"): ("pareto:alpha=1", "pareto:alpha=5e-324", "pareto:alpha=1e300",
                      "pareto:alpha=nan", "pareto:alpha=inf", "pareto:alpha=-1",
                      "paretolog:alpha=1,gamma=0.5", "paretolog:alpha=1,gamma=2", "x"),
    ("str", "seed"): _SEEDS,
    ("str", "seed_sequence"): _SEEDS,
    ("str", "t_pairs"): ("2:3", "3:5,2:4", "1:2", "1:1", "0:1", "99:98", "1", "x:y"),
    ("floats", "phis"): ("1.3333333333333333,1.5,1.5", "2", "nan", "1e300", "0", "-1",
                         "5e-324", "inf,2", "", "x"),
}
_ENV_SEEDS = (None, "7", "-1", "x", "1e3", str(2**64))  # None leaves BRANCHLAB_SEED unset
# config values beyond the pools, each with the field kinds that must refuse
# it: a JSON boolean is no number, and an int takes no non-finite number
_NUMERIC, _INTEGRAL = {"float", "int", "floats", "ints"}, {"int", "ints"}
_JSON_EXTRAS = {"true": _NUMERIC, "false": _NUMERIC, "[true]": _NUMERIC,
                "1e400": _INTEGRAL, "NaN": _INTEGRAL, "[1e400]": _INTEGRAL}
_JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")
# the columns the README documents as non-finite: recurse's nu_hat, simulate's
# log_W, and log_X in the last row of an extinct replica (no class left)
_NON_FINITE_OK = {"nu_hat", "log_W"}


def _json_scalar(text):
    """A pool value as a JSON number where it spells one, else as a JSON string."""
    return text if _JSON_NUMBER.fullmatch(text) else json.dumps(text)


@st.composite
def _config_value(draw, kind, pool):
    """The JSON text of one config value: a pool value in the field's own
    JSON form (a number, a string or a list), as a JSON string or as a list
    of its comma-separated items; or one of _JSON_EXTRAS."""
    if kind == "bool" or draw(st.integers(0, 3)) == 3:
        return draw(st.sampled_from(("true", "false", *_JSON_EXTRAS)))
    value = draw(st.sampled_from(pool))
    items = "[" + ", ".join(_json_scalar(v) for v in value.split(",") if v) + "]"
    own = items if kind in ("floats", "ints") else _json_scalar(value)
    return draw(st.sampled_from((own, json.dumps(value), items)))


@st.composite
def _cli_case(draw):
    """(argv, config, BRANCHLAB_SEED): ``{out}`` in argv stands for the output
    path, and config is None or the (key, JSON text) pairs of a document."""
    command = draw(st.sampled_from(sorted(_SCHEMAS)))
    argv = [command]
    config = [] if draw(st.booleans()) else None
    t_max = None
    for f in _SCHEMAS[command]:
        if f.name == "out":
            argv += ["--out", "{out}"]
            continue
        if command == "verify-lemmas" and f.name == "replicas":
            pool = ("100", "99", "0", "-1")
        else:
            pool = _POOLS.get((f.kind, f.name), _NUMBERS)
        if f.name == "mmm_bins_per_decade" and t_max is not None and t_max <= 20:
            # a 100-generation paretolog run at 1000 bins per decade takes 45 s;
            # the t-max flag overrides a config value
            pool += ("1000",)
        if config is not None and draw(st.integers(0, 9)) >= 6:
            config.append((f.name, draw(_config_value(f.kind, pool))))
        # a required flag is left out one time in ten and an optional one
        # drawn three in ten, so that some argv also pass the parser; alpha
        # counts as required, since nu and the recursion source need it
        usual = f.required or f.name == "alpha"
        if f.name != "jobs" and draw(st.integers(0, 9)) >= (9 if usual else 3):
            continue
        flag = _option(f)
        if f.kind == "bool":
            argv.append(flag if draw(st.booleans()) else "--no-" + flag[2:])
            continue
        value = draw(st.sampled_from(pool))
        if f.name == "t_max":
            t_max = int(value)
        argv += draw(st.sampled_from(([flag, value], [f"{flag}={value}"])))
    if config is not None and draw(st.integers(0, 9)) == 0:
        config.append(("zeta", "1"))  # last, so a refused value is reported first
    return argv, config, draw(st.sampled_from(_ENV_SEEDS))


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def _check_csv(name, text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    for row in rows[1:]:
        assert len(row) == len(header)
        cells = dict(zip(header, row))
        for column, cell in cells.items():
            try:
                value = float(cell)
            except ValueError:
                continue  # text, such as the mode column
            extinct_row = column == "log_X" and cells.get("n_classes") == "0"
            assert math.isfinite(value) or column in _NON_FINITE_OK or extinct_row, \
                f"{column}={cell} in {name}"


@settings(max_examples=300, deadline=None)
@given(_cli_case())
# these used to end in a raw OverflowError (P = alpha * expm1 of a log-ratio
# past 709.78), and in a NaN R cell with a leaked numpy warning (log X_t = 0)
@example((["freq", "--from", "recursion", "--alpha", "5e-324", "--t", "1", "--out", "{out}"],
          None, None))
@example((["collapse", "--alpha", "5e-324", "--t-pairs", "2:3", "--out", "{out}"], None, None))
@example((["freq", "--from", "run", "--log-f", "-1", "--t", "1", "--seed", "1",
           "--model", "fmm", "--t-max", "2", "--out", "{out}"], None, None))
@example((["freq", "--from", "run", "--log-f", "-1", "--t", "1", "--seed", "1",
           "--model", "mmm", "--t-max", "2", "--out", "{out}"], None, None))
# an infinite sweep end: numpy's grid warning leaked before the typed error
@example((["nu", "--alpha-min", "5e-324", "--alpha-max", "inf", "--points", "2",
           "--out", "{out}"], None, None))
# the cycle multiplier 1/alpha passes float64: numpy's overflow warning leaked
@example((["recurse", "--alpha", "5e-324", "--detect-period", "--out", "{out}"], None, None))
# a value after a space that argparse alone read as a flag
@example((["simulate", "--model", "fmm", "--log-f", "-1e-300", "--t-max", "2", "--seed", "1",
           "--out", "{out}"], None, None))
@example((["simulate", "--model", "fmm", "--log-f", "-inf", "--t-max", "2", "--seed", "1",
           "--out", "{out}"], None, None))
# an int field given 1e400 (a raw OverflowError) or a boolean (run as 1)
@example((["recurse", "--alpha", "1", "--out", "{out}"], [("t_max", "1e400")], None))
@example((["recurse", "--alpha", "1", "--out", "{out}"], [("t_max", "true")], None))
@example((["seed-ctex", "--alpha", "1", "--out", "{out}"], [("phis", "[true]")], None))
# JSON lists for list fields, and a BRANCHLAB_SEED that is no integer
@example((["seed-ctex", "--alpha", "1", "--out", "{out}"],
          [("phis", "[1.3333333333333333, 1.5, 1.5]")], None))
@example((["freq", "--alpha", "1", "--out", "{out}"], [("t", "[3, 5]")], None))
@example((["simulate", "--model", "fmm", "--log-f", "1", "--out", "{out}"], None, "1e3"))
# a text field given a JSON non-string: its str() was used (an output file
# named True, a tail family '3', a seed string '5')
@example((["nu", "--alpha", "1", "--out", "{out}"], [("out", "true")], None))
@example((["simulate", "--model", "fmm", "--log-f", "1", "--t-max", "2", "--out", "{out}"],
          [("tail", "3")], None))
@example((["recurse", "--alpha", "1", "--t-max", "5", "--out", "{out}"], [("seed", "5")], None))
def test_cli_over_generated_argv(case):
    argv, config, env_seed = case
    kinds = {f.name: f.kind for f in _SCHEMAS[argv[0]]}
    refused = False
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{" + ", ".join(f'"{key}": {text}' for key, text in config) + "}")
            argv = [*argv, "--config", path]
            # a number field refuses the extras above, a text field any non-string
            refused = any(kinds.get(key) is None or kinds[key] in _JSON_EXTRAS.get(text, ())
                          or kinds[key] == "str" and not isinstance(json.loads(text), str)
                          for key, text in config)
        run = _cli(argv, env={"BRANCHLAB_SEED": env_seed})
    # every drawn flag has its value, so the parser never misses one
    assert not any("expected one argument" in line for line in run.err), run.err
    if refused:
        _assert_failed(run, 2, named="config")
    elif run.code == 0:
        assert not run.err
        for name, text in run.files.items():
            if name.endswith(".json") or argv[0] == "seed-ctex":  # seed-ctex writes JSON
                _strict_json(text)
            else:
                _check_csv(name, text)
    elif argv[0] == "verify-lemmas" and run.code == 1 and not run.err:
        assert "FAIL" in run.stdout  # a failed check, not an error
    else:
        assert run.code in (1, 2)
        _assert_failed(run, run.code)
