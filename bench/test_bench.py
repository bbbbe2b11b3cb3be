"""Self-test of the benchmark on tiny invocations.

    python3 -m pytest bench -q -p no:cacheprovider

Checks that every metric BENCHMARK.json names is emitted, that a failing
argv shows up in the failure count, that span self times add up to the
root span, that every simulate invocation runs with --jobs 1, and that the
command refuses to run without the package beside it.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from branchlab import cli  # noqa: E402

SPEC = run.load_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    result, context = run.run_workload(name, 3, 0.0, trace, tiny=True)
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    assert result["correct"], context["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    json.dumps(result, allow_nan=False)


def test_failing_argv_raises_failed_frac():
    bad = "simulate --model fmm --log-f nan --t-max 5 --jobs 1 --seed 1 --out {out}/nan.csv"
    result, context = run.run_workload("fmm_restarts", 1, 0.0, 0, tiny=True, extra=(bad,))
    assert result["failed"] >= 1 and context["failed_frac"] > 0
    assert not result["correct"]


def test_failed_output_check_counts_as_failure(tmp_path):
    argv = ["recurse", "--alpha", "1", "--t-max", "40", "--detect-period",
            "--out", str(tmp_path / "chi.csv")]
    assert cli.main(argv) == 0
    (tmp_path / "chi.csv.period.json").write_text('{"phi": NaN}')
    checker = run.Checker()
    checker.check_pass([argv], [None])
    assert checker.failed == 1


def test_span_self_times_sum_to_root():
    out = os.path.join(run.OUT_ROOT, "selftest")
    os.makedirs(out, exist_ok=True)
    argvs = []
    for w in workloads.WORKLOADS.values():
        argvs += workloads.expand(w.tiny, 5, out)
    tracer = spans.Tracer()
    with spans.installed(tracer) as missing:
        run.run_pass(cli, argvs, run.Checker(), tracer=tracer)
    assert missing == []
    agg = tracer.aggregate()
    root = agg[spans.ROOT_SPAN]
    assert root["calls"] == 1
    total_self = sum(a["self_s"] for a in agg.values())
    assert total_self == pytest.approx(root["total_s"], rel=1e-9, abs=1e-9)
    assert agg["cli.main"]["calls"] == len(argvs)
    # the wrappers are gone again
    assert cli.main.__module__ == "branchlab.cli"


def test_jobs_stay_one_everywhere():
    for w in workloads.WORKLOADS.values():
        for argv in workloads.expand(w.argv + w.tiny, 1, "out"):
            if argv[0] == "simulate":
                assert cli.parse_args(argv).params["jobs"] == 1
            assert "--jobs" not in argv or argv[argv.index("--jobs") + 1] == "1"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mmm_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
