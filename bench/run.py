"""Run one branchlab benchmark workload and print its metrics.

    python3 bench/run.py --workload mmm_long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from a checkout: the package is imported from ``src/`` beside this
directory, and CLI outputs go to ``.bench_out/`` at the checkout root.  A
run picks the workload's program seed from ``--seed``, warms the process on
the workload's tiny invocations, then repeats full passes over the
workload's invocations, in this process with ``--jobs 1``, while the next
pass still fits in ``--seconds``.  Every invocation is checked: exit code,
raised exceptions, output invariants, and sha256 against the digests
recorded at the seed commit (``seeds.json``).  Pass times are scaled to a
reference machine speed (see ``Speedometer``); the measured median is in
the context line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-module metrics.  The
last stdout line is the result object; the line before it carries the
run's context (program seed, pass count, tail percentile, peak classes,
failures).  ``--workload all`` runs every workload in both modes and
prints each metric by name with its unit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter, process_time

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 7
TAIL_BEYOND = 10

# The speed of a shared machine drifts: on a two-vCPU sandbox the same pass
# took from 1x to 1.7x its fastest time, switching within seconds, in process
# CPU time as much as in wall time.  While a span runs, a timer therefore
# interrupts every TICK_S seconds to time a small fixed reference kernel, and
# the span's seconds, less the ticks' own time, are scaled to the speed at
# which that kernel takes REF_KERNEL_S.
TICK_S = 0.05
REF_KERNEL_S = 3.5e-4

_KERNEL_RNG = np.random.default_rng(0)
_UNIQUE_INPUT = _KERNEL_RNG.random(4096)
_GATHER_INPUT = _KERNEL_RNG.random(1 << 17)  # 1 MB, beyond L1 and L2
_GATHER_INDEX = _KERNEL_RNG.integers(0, 1 << 17, 2048)


def _reference_kernel():
    """Fixed interpreter, NumPy scalar, NumPy vector and random-gather work;
    no branchlab code."""
    total = 0.0
    for k in range(1, 300):
        total += (k + 1) * math.log(k) - k * math.log(k + 1)
    a = np.zeros(64)
    for i in range(60):
        a[i & 63] = np.logaddexp(a[i & 63], 0.25)
    np.unique(_UNIQUE_INPUT)
    return total + float(_GATHER_INPUT[_GATHER_INDEX].sum())


class Speedometer:
    """Times the reference kernel on each SIGALRM tick while a span runs.

    The kernel draws no random numbers and touches no program state, so the
    program's outputs do not change.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _reference_kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        for _ in range(3):  # first calls in a process run cold
            _reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """REF_KERNEL_S over the mean kernel time; a span shorter than one
        tick is scaled by one kernel run after it."""
        if not self.samples:
            t0 = perf_counter()
            _reference_kernel()
            return REF_KERNEL_S / (perf_counter() - t0)
        return REF_KERNEL_S / statistics.mean(self.samples)


def measure_setup():
    """Median seconds from a fresh interpreter to ``branchlab.cli`` imported.

    Not scaled: interpreter start-up is exec, file reads and unmarshalling,
    which the reference kernel does not track.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import branchlab.cli"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def tail(values):
    """(value, percentile, samples beyond) for the highest percentile that
    leaves min(10, n - 1) samples above it."""
    s = sorted(values)
    n = len(s)
    rank = n - 1 - min(TAIL_BEYOND, n - 1)
    pct = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return s[rank], pct, n - 1 - rank


def invoke(cli, argv):
    """Run one CLI invocation in this process; returns an error text or None."""
    try:
        code = cli.main(argv)
    except Exception as exc:  # a raw exception is a failed invocation, not a crash
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


class Checker:
    """Checks every invocation of every pass and counts the failures.

    An invocation's first clean output must hold its invariants and becomes
    its reference; every later pass, traced or not, must reproduce the
    reference byte for byte.
    """

    def __init__(self, recorded=None):
        self.recorded = recorded  # {file: sha256} per invocation at the seed commit
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.peak_classes = 0

    def check_pass(self, argvs, errors):
        """Check one pass; returns the bytes its output files hold."""
        size = 0
        for k, (argv, error) in enumerate(zip(argvs, errors)):
            self.attempted += 1
            if error is None:
                try:
                    digests, n_bytes = workloads.digests(argv)
                    size += n_bytes
                    if k not in self.reference:
                        peak = workloads.check_outputs(argv)
                        self.peak_classes = max(self.peak_classes, peak)
                        self.reference[k] = digests
                    elif digests != self.reference[k]:
                        error = "outputs differ from the first pass"
                except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{argv[0]}: {error}")
        return size

    def outputs_changed(self):
        """Invocations whose outputs differ from the recorded digests."""
        if self.recorded is None:
            return 0
        return sum(self.reference.get(k) != want for k, want in enumerate(self.recorded))


def run_pass(cli, argvs, checker, tracer=None):
    """One pass over the argv lists, then its checks.

    Returns (scaled wall s, scaled cpu s, measured wall s, scale, output
    bytes); scaled seconds exclude the speedometer's ticks.
    """
    def body():
        return [invoke(cli, a) for a in argvs]

    with Speedometer() as speed:
        t0, c0 = perf_counter(), process_time()
        errors = tracer.run_root(body) if tracer else body()
        wall, cpu = perf_counter() - t0, process_time() - c0
    k = speed.scale()
    size = checker.check_pass(argvs, errors)
    return (wall - speed.spent) * k, (cpu - speed.spent) * k, wall, k, size


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(passes, bytes_out, outputs_changed, overhead):
    """Per-module metrics from the traced passes: counts from the first
    pass, seconds as medians over passes."""
    aggs = [agg for agg, _ in passes]
    counts = passes[0][1]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}

    def stat(fn, key):
        if key == "calls":
            return aggs[0].get(fn, zero)["calls"]
        return statistics.median(a.get(fn, zero)[key] for a in aggs)

    def calls(fn):
        return stat(fn, "calls")

    out = {
        "simulate._rebuild.classes_in": counts["classes_in"],
        "simulate._rebuild.classes_out": counts["classes_out"],
        "simulate._rebuild.merge_ratio": _ratio(counts["classes_out"], counts["classes_in"]),
        "simulate.attempts_per_run": _ratio(calls("simulate._attempt"), calls("simulate.run")),
        "simulate.peak_classes": counts["peak_classes"],
        "tails.sample_fitness.draws": counts["draws"],
        "recursion.solve_chi.steps": counts["steps"],
        "recursion.passes_per_solve": _ratio(calls("recursion._solve_pass"),
                                             calls("recursion.solve_chi")),
        "recursion.window_violations": counts["window_violations"],
        "cli.bytes_out": bytes_out,
        "cli.outputs_changed": outputs_changed,
        "trace.overhead_frac": overhead,
    }

    def value(name):
        if name in out:
            return out[name]
        fn, _, key = name.rpartition(".")
        return stat(fn, key)

    return value


def run_workload(name, bench_seed, seconds, trace, tiny=False, extra=()):
    """Measure one workload; returns (result object, context object).

    ``tiny`` times the small invocations instead of the full ones, and
    ``extra`` appends argv templates to every pass; both serve the self-test.
    """
    from branchlab import cli

    w = workloads.WORKLOADS[name]
    spec = load_spec()
    entry = workloads.pick(name, bench_seed)
    out = os.path.join(OUT_ROOT, name)
    os.makedirs(out, exist_ok=True)
    for stale in os.listdir(out):
        os.remove(os.path.join(out, stale))
    argvs = workloads.expand((w.tiny if tiny else w.argv) + tuple(extra), entry["seed"], out)
    for argv in argvs:
        if argv[0] == "simulate" and cli.parse_args(argv).params["jobs"] != 1:
            raise SystemExit(f"{name}: every simulate invocation must run with --jobs 1")

    setup_s = measure_setup() if not trace else None
    run_pass(cli, workloads.expand(w.tiny, entry["seed"], out), Checker())
    checker = Checker(None if tiny or extra else entry["digests"])
    tracer = spans.Tracer() if trace else None
    start = perf_counter()
    walls, cpus, raw, base, traced = [], [], [], [], []
    while True:
        if tracer is not None:
            # untraced and traced passes alternate, so the overhead compares
            # passes run under the same machine conditions
            base.append(run_pass(cli, argvs, checker)[0])
            with spans.installed(tracer) as missing:
                wall, cpu, measured, k, size = run_pass(cli, argvs, checker, tracer)
            agg = tracer.aggregate()
            for v in agg.values():
                v["self_s"] *= k
                v["total_s"] *= k
            traced.append((agg, dict(tracer.counts)))
        else:
            wall, cpu, measured, k, size = run_pass(cli, argvs, checker)
        walls.append(wall)
        cpus.append(cpu)
        raw.append(measured)
        step = statistics.median(raw) * (2 if tracer else 1)
        if perf_counter() - start + step > seconds:
            break

    context = {"workload": name, "seed": bench_seed, "program_seed": entry["seed"],
               "passes": len(walls)}
    correct = True
    if not trace:
        t_val, t_pct, t_beyond = tail(walls)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "wall_s_tail": t_val,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }.__getitem__
        metrics = spec["end_to_end"]
        context.update(wall_s_tail_percentile=t_pct, wall_s_tail_beyond=t_beyond)
    else:
        tracer.write(os.path.join(OUT_ROOT, f"spans-{name}.tsv"))
        overhead = statistics.median(walls) / statistics.median(base) - 1.0
        values = layer_metrics(traced, size, checker.outputs_changed(), overhead)
        metrics = spec["per_layer"]
        idle = [f for f in w.exercises if traced[0][0].get(f, {}).get("calls", 0) == 0]
        calls = [({k: v["calls"] for k, v in agg.items()}, counts) for agg, counts in traced]
        repeat = all(c == calls[0] for c in calls)
        if idle or not repeat:
            correct = False
            print(f"trace: no calls recorded for {idle}; counts repeat: {repeat}",
                  file=sys.stderr)
        context.update(untraced_wall_s=statistics.median(base), unwrapped=missing)
    context.update({
        "wall_s_measured": statistics.median(raw),
        "failed_frac": checker.failed / checker.attempted,
        "simulate.peak_classes": checker.peak_classes,
        "cli.outputs_changed": checker.outputs_changed(),
        "errors": checker.errors,
    })
    result = {
        "correct": correct and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values(m["name"]), "unit": m["unit"]}
                    for m in metrics},
    }
    return result, context


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def run_all(seed, seconds):
    """Every workload in both modes, each in a fresh process as a single
    workload runs; prints one 'workload metric value unit' line per metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
            context, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
            print(json.dumps(context))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                print(f"{name:14s} {metric:44s} {v['value']!r:>24} {v['unit']}")
                total["metrics"][f"{name}/{metric}"] = v
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "branchlab", "cli.py")):
        print(f"bench: no branchlab package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    elif args.workload in workloads.WORKLOADS:
        result, context = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(context))
    else:
        parser.error(f"unknown workload {args.workload!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
