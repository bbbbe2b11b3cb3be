"""Command-line front end tests: parsing, precedence, determinism, outputs."""
import contextlib
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from branchlab.cli import (
    _CSV_BLOCK_ROWS, _SCHEMAS, _write_csv, _write_json, dispatch, main, parse_args,
    replica_seed, splitmix64,
)
from branchlab.errors import UsageError


def _run_main(argv):
    return main(argv)


class TestParseArgs:
    def test_single_alpha(self):
        cfg = parse_args(["nu", "--alpha", "1"])
        assert cfg.command == "nu" and cfg.params["alpha"] == 1.0

    def test_range_check_names_flag(self):
        with pytest.raises(UsageError, match="--beta"):
            parse_args(["simulate", "--model", "fmm", "--log-f", "1",
                        "--beta", "1.5"])

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

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

    def test_nu_sweep_csv(self, tmp_path):
        out = tmp_path / "nu.csv"
        assert _run_main(["nu", "--alpha-min", "0.05", "--alpha-max", "10",
                          "--points", "40", "--log-grid", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,T,nu,nu_approx,rel_err"
        assert len(lines) == 41
        rel = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(rel) < 0.07

    def test_recurse_csv_and_period_json(self, tmp_path):
        out = tmp_path / "chi.csv"
        assert _run_main(["recurse", "--alpha", "1", "--t-max", "400",
                          "--detect-period", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,log_chi,I_t,log_c_t,nu_hat"
        first = lines[1].split(",")
        assert float(first[1]) == 0.0  # log chi_1
        row10 = lines[10].split(",")
        assert float(row10[1]) == pytest.approx(math.log(36.0), rel=1e-12)
        assert int(row10[2]) == 8
        doc = json.loads((tmp_path / "chi.csv.period.json").read_text())
        assert doc["t1"] <= 4 and doc["constraints_ok"]
        assert sorted(round(p, 6) for p in doc["phi"]) == [1.333333, 1.5, 1.5]

    @pytest.mark.parametrize("t_max, finite", [(3, 0), (4, 1)])
    def test_recurse_nu_hat_column_at_the_period(self, tmp_path, t_max, finite):
        # alpha = 1 has T = 3: nu_hat needs t + T <= t_max
        out = tmp_path / "chi.csv"
        assert _run_main(["recurse", "--alpha", "1", "--t-max", str(t_max),
                          "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            nu_hat = [float(row["nu_hat"]) for row in csv.DictReader(fh)]
        assert len(nu_hat) == t_max
        assert [math.isfinite(v) for v in nu_hat] == [True] * finite + [False] * (t_max - finite)
        if finite:
            assert nu_hat[0] == pytest.approx(math.log(4.0) / 3.0, rel=1e-15)

    def test_simulate_csv_and_summary(self, tmp_path):
        out = tmp_path / "runs.csv"
        argv = ["simulate", "--model", "mmm", "--tail", "pareto:alpha=1",
                "--beta", "0.1", "--log-f", "50", "--t-max", "12", "--seed", "1",
                "--replicas", "3", "--out", str(out)]
        assert _run_main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replica,t,log_X,log_W,n_classes,mode,dominant_age"
        assert len(lines) == 1 + 3 * 13
        doc = json.loads((tmp_path / "runs.csv.summary.json").read_text())
        assert doc["replicas"] == 3 and doc["survived"] == 3
        assert doc["survival_fraction"] == 1.0

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--model", "fmm", "--beta", "0.2", "--log-f", "40",
                "--t-max", "10", "--seed", "9", "--replicas", "4"]
        assert _run_main(argv + ["--out", str(a)]) == 0
        assert _run_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_jobs_match_sequential(self, tmp_path):
        a, b = tmp_path / "seq.csv", tmp_path / "par.csv"
        argv = ["simulate", "--model", "fmm", "--beta", "0.2", "--log-f", "40",
                "--t-max", "8", "--seed", "9", "--replicas", "4"]
        assert _run_main(argv + ["--jobs", "1", "--out", str(a)]) == 0
        assert _run_main(argv + ["--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_freq_recursion_outputs(self, tmp_path):
        out = tmp_path / "freq.csv"
        assert _run_main(["freq", "--from", "recursion", "--alpha", "1",
                          "--t", "9,12", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,J,R"
        p_lines = (tmp_path / "freq.csv.p.csv").read_text().splitlines()
        assert p_lines[0] == "t,P"
        t9 = [line for line in p_lines[1:] if line.startswith("9,")]
        assert float(t9[0].split(",")[1]) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_collapse_outputs(self, tmp_path):
        out = tmp_path / "col.csv"
        assert _run_main(["collapse", "--alpha", "1",
                          "--t-pairs", "300:303,300:301", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_a,t_b,distance"
        d_same = float(lines[1].split(",")[2])
        d_diff = float(lines[2].split(",")[2])
        assert d_same <= 1e-6 and d_diff > 0.01

    def test_freq_run_source(self, tmp_path):
        out = tmp_path / "freq_run.csv"
        assert _run_main(["freq", "--from", "run", "--model", "fmm",
                          "--tail", "pareto:alpha=1", "--beta", "0.1",
                          "--log-f", "50", "--seed", "2", "--t", "8",
                          "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,J,R"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, rel=1e-9)  # self ratio

    def test_recurse_seed_strings(self, tmp_path):
        out = tmp_path / "half.csv"
        assert _run_main(["recurse", "--alpha", "1", "--seed", "half",
                          "--t-max", "5", "--out", str(out)]) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(math.log(0.5), rel=1e-12)
        ctex = tmp_path / "ctex.csv"
        phis = f"ctex:phis={4.0 / 3.0!r},1.5,1.5"
        assert _run_main(["recurse", "--alpha", "1", "--seed", phis,
                          "--t-max", "5", "--out", str(ctex)]) == 0
        first = ctex.read_text().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(math.log(3.0), rel=1e-9)

    def test_recurse_seed_file(self, tmp_path):
        seed_file = tmp_path / "seed.txt"
        seed_file.write_text("5.0\n2.0\n")
        out = tmp_path / "file.csv"
        assert _run_main(["recurse", "--alpha", "1",
                          "--seed", f"file:{seed_file}", "--t-max", "4",
                          "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(math.log(5.0), rel=1e-12)
        # a_2 = 2 loses to (1/alpha) chi_1 = 5
        assert float(rows[1][1]) == pytest.approx(math.log(5.0), rel=1e-12)

    def test_seed_ctex_output(self, tmp_path):
        out = tmp_path / "ctex.json"
        phis = f"{4.0 / 3.0!r},1.5,1.5"
        assert _run_main(["seed-ctex", "--alpha", "1", "--phis", phis,
                          "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["indu_ok"] is True
        assert doc["a"][0] == pytest.approx(3.0, rel=1e-9)
        assert doc["a"][1] == pytest.approx(4.0, rel=1e-9)

    def test_verify_lemmas_exit_code(self, capsys):
        assert _run_main(["verify-lemmas", "--replicas", "2000", "--seed", "3"]) == 0
        tail_out = capsys.readouterr().out
        assert "galton-lower-bound" in tail_out and "pass" in tail_out


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "0"
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "nu", "--alpha", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "alpha,T,nu,nu_approx,rel_err"

    @pytest.mark.parametrize("argv", [["--help"], ["recurse", "--help"]],
                             ids=["top", "recurse"])
    def test_help_exits_zero(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", *argv], capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: branchlab") and proc.stderr == ""

    def test_unknown_flag_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "recurse", "--bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert [line for line in lines if line.startswith("usage error:")] == [lines[-1]]
        assert "--bogus" in proc.stderr and "Traceback" not in proc.stderr
        # the failing subcommand's usage, then one error line and nothing else
        assert lines[0].startswith("usage: branchlab recurse ")
        assert lines[-1] == "usage error: unrecognized arguments: --bogus"
        assert [line for line in lines if "error" in line] == [lines[-1]]

        # a stray flag before the subcommand belongs to the top-level parser
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "--bogus", "recurse", "--alpha", "1",
             "--t-max", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("usage: branchlab [")
        assert lines[-1] == "usage error: unrecognized arguments: --bogus"
        assert [line for line in lines if "error" in line] == [lines[-1]]

    def test_bad_flag_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "simulate", "--model",
             "fmm", "--log-f", "1", "--beta", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "--beta" in proc.stderr

    def test_horizon_overflow_is_a_typed_error(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "simulate", "--model", "fmm",
             "--tail", "pareto:alpha=0.3", "--log-f", "50", "--t-max", "700",
             "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "generation" in lines[0] and "Traceback" not in proc.stderr
        assert not out.exists()

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
    def test_out_of_range_input_is_a_typed_error(self, tmp_path, argv, named):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.iterdir())

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
            assert proc.wait(timeout=60) == 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            err = proc.stderr.read().decode()
            proc.stderr.close()
        assert "Traceback" not in err and "Exception ignored" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "closed" in lines[0]

    @pytest.mark.parametrize("log_f", ["nan", "inf"])
    def test_non_finite_log_f_is_a_typed_error(self, log_f):
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "simulate", "--model",
             "mmm", "--log-f", log_f, "--t-max", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "log_f" in lines[0] and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_seed_file_value_is_a_typed_error(self, tmp_path, value):
        seed_file = tmp_path / "seed.txt"
        seed_file.write_text(f"5.0\n{value}\n")
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "recurse", "--alpha", "1",
             "--seed", f"file:{seed_file}", "--t-max", "4", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "explicit seed" in lines[0] and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, env", [(["--seed", "-5"], None), ([], "-3")],
                             ids=["flag", "env"])
    def test_negative_verify_lemmas_seed_is_a_usage_error(self, flag, env):
        environ = dict(os.environ)
        environ.pop("BRANCHLAB_SEED", None)
        if env is not None:
            environ["BRANCHLAB_SEED"] = env
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "verify-lemmas", "--replicas", "100",
             *flag],
            capture_output=True, text=True, env=environ,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")
        assert "--seed" in lines[0] and "BRANCHLAB_SEED" in lines[0]
        assert proc.stdout == ""

    def test_recurse_failed_period_check_writes_nothing(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "branchlab.cli", "recurse", "--alpha", "1",
             "--t-max", "5", "--detect-period", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "too short for period 3" in lines[0]
        assert proc.stdout == "" and not list(tmp_path.iterdir())

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
    def test_bad_slope_window_is_a_usage_error(self, tmp_path, monkeypatch, capsys, window):
        def refuse(cfg):
            raise AssertionError("a replica ran before the window was checked")

        monkeypatch.setattr("branchlab.simulate.run", refuse)
        out = tmp_path / "s.csv"
        argv = ["simulate", "--model", "fmm", "--log-f", "2", "--t-max", "40",
                "--seed", "1", "--out", str(out)]
        if isinstance(window, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(window))
            argv += ["--config", str(config)]
        else:
            argv += window
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")
        assert "slope window" in lines[0]
        assert not out.exists() and not list(tmp_path.glob("s.csv*"))

    def test_given_slope_window_inside_horizon_is_used(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--model", "fmm", "--log-f", "50", "--t-max", "40",
                     "--seed", "1", "--slope-lo", "1", "--slope-hi", "40",
                     "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "s.csv.summary.json").read_text())
        assert doc["slope_window"] == [1, 40]
        assert doc["loglog_slopes"]


# The whole CLI over generated argv.  Numbers come from boundary-heavy pools:
# 0, the smallest subnormal, 1e-300, 1, the alpha bound 1e9 and its
# successor, 1e300, non-finite values, negatives and text the parser
# rejects.  Sizes stay small (t-max <= 100, replicas <= 2, points <= 5).
# Each pool starts with a typical valid value, which hypothesis draws most.
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
# the columns the README documents as non-finite: recurse's nu_hat, simulate's
# log_W, and log_X in the last row of an extinct replica (no class left)
_NON_FINITE_OK = {"nu_hat", "log_W"}


@st.composite
def _cli_argv(draw):
    """(command, argv) with ``{out}`` standing for the output path."""
    command = draw(st.sampled_from(sorted(_SCHEMAS)))
    argv = [command]
    t_max = None
    for f in _SCHEMAS[command]:
        if f.name == "out":
            argv += ["--out", "{out}"]
            continue
        # a required flag is left out one time in ten and an optional one
        # drawn three in ten, so that some argv also pass the parser; alpha
        # counts as required, since nu and the recursion source need it
        usual = f.required or f.name == "alpha"
        if f.name != "jobs" and draw(st.integers(0, 9)) >= (9 if usual else 3):
            continue
        flag = "--from" if f.name == "source" else "--" + f.name.replace("_", "-")
        if f.kind == "bool":
            argv.append(flag if draw(st.booleans()) else "--no-" + flag[2:])
            continue
        if command == "verify-lemmas" and f.name == "replicas":
            pool = ("100", "99", "0", "-1")
        else:
            pool = _POOLS.get((f.kind, f.name), _NUMBERS)
        if f.name == "mmm_bins_per_decade" and t_max is not None and t_max <= 20:
            # a 100-generation paretolog run at 1000 bins per decade takes 45 s
            pool += ("1000",)
        value = draw(st.sampled_from(pool))
        if f.name == "t_max":
            t_max = int(value)
        argv.append(f"{flag}={value}")  # "--log-f -inf" would read -inf as a flag
    return command, argv


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def _check_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    for row in rows[1:]:
        assert len(row) == len(header)
        cells = dict(zip(header, row))
        for name, cell in cells.items():
            try:
                value = float(cell)
            except ValueError:
                continue  # text, such as the mode column
            extinct_row = name == "log_X" and cells.get("n_classes") == "0"
            assert math.isfinite(value) or name in _NON_FINITE_OK or extinct_row, \
                f"{name}={cell} in {os.path.basename(path)}"


@settings(max_examples=300, deadline=None)
@given(_cli_argv())
# these used to end in a raw OverflowError (P = alpha * expm1 of a log-ratio
# past 709.78), and in a NaN R cell with a leaked numpy warning (log X_t = 0)
@example(("freq", ["freq", "--from", "recursion", "--alpha", "5e-324", "--t", "1",
                   "--out", "{out}"]))
@example(("collapse", ["collapse", "--alpha", "5e-324", "--t-pairs", "2:3",
                       "--out", "{out}"]))
@example(("freq", ["freq", "--from", "run", "--log-f", "-1", "--t", "1", "--seed", "1",
                   "--model", "fmm", "--t-max", "2", "--out", "{out}"]))
@example(("freq", ["freq", "--from", "run", "--log-f", "-1", "--t", "1", "--seed", "1",
                   "--model", "mmm", "--t-max", "2", "--out", "{out}"]))
# an infinite sweep end: numpy's grid warning leaked before the typed error
@example(("nu", ["nu", "--alpha-min", "5e-324", "--alpha-max", "inf", "--points", "2",
                 "--out", "{out}"]))
# the cycle multiplier 1/alpha passes float64: numpy's overflow warning leaked
@example(("recurse", ["recurse", "--alpha", "5e-324", "--detect-period", "--out", "{out}"]))
def test_cli_over_generated_argv(case):
    command, argv = case
    # a directory per example: pytest's tmp_path is made once per test
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([out if a == "{out}" else a for a in argv])
        files = sorted(os.listdir(tmp))
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert not lines
            for name in files:
                path = os.path.join(tmp, name)
                if name.endswith(".json") or command == "seed-ctex":  # seed-ctex writes JSON
                    with open(path, encoding="utf-8") as fh:
                        _strict_json(fh.read())
                else:
                    _check_csv(path)
        elif command == "verify-lemmas" and code == 1 and not lines:
            assert "FAIL" in stdout.getvalue()  # a failed check, not an error
        else:
            assert code in (1, 2)
            assert [ln for ln in lines if ln.startswith(("error:", "usage error:"))] == lines[-1:]
            assert lines[-1].startswith("error:" if code == 1 else "usage error:")
            # only a usage error may print the parser's usage before its line
            assert code == 2 or len(lines) == 1
            assert not files
