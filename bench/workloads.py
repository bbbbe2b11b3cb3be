"""Workload table and output checks for the branchlab benchmark.

A workload is a list of real ``branchlab`` CLI invocations, run in one
process with ``--jobs 1``.  Each argv is a template: ``{seed}`` becomes the
program seed picked from the workload's recorded pool (see ``seeds.json``)
and ``{out}`` the scratch output directory.  ``tiny`` holds the same
commands at small sizes; they warm the process before timing and drive the
self-test.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

# Passes repeat one argv set; the same --seed always picks the same pool
# entry, so runs of two commits on one seed time identical inputs.
SEED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seeds.json")

_SIM = "simulate --jobs 1 --seed {seed} --out {out}/sim.csv "


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    tiny: tuple[str, ...]
    # functions (trace names) that must record calls in a traced run
    exercises: tuple[str, ...]
    # pool rule for record.py: {work count: (low, high)}; empty keeps
    # every candidate seed
    band: tuple[tuple[str, int, int], ...] = ()

    @property
    def seeded(self):
        return any("{seed}" in a for a in self.argv)


_SIM_CORE = (
    "simulate.run", "simulate._attempt", "simulate._generation_rng",
    "simulate._rebuild", "simulate.sample_fittest_mutant",
    "analysis.loglog_slope", "cli.main", "cli.parse_args", "cli._write_csv",
    "cli._write_json",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mmm_long",
            argv=(_SIM + "--model mmm --tail pareto:alpha=1 --beta 0.1 "
                  "--log-f 50 --t-max 400 --replicas 3",),
            tiny=(_SIM + "--model mmm --tail pareto:alpha=1 --beta 0.1 "
                  "--log-f 50 --t-max 30 --replicas 1",),
            exercises=_SIM_CORE + (
                "simulate.step_logdet", "simulate.mutant_spectrum",
                "simulate.to_logdet", "tails.inverse_log_tail", "tails.log_tail",
            ),
        ),
        Workload(
            name="mmm_wide",
            argv=(_SIM + "--model mmm --tail pareto:alpha=1 --beta 0.1 "
                  "--log-f 0.6931471805599453 --t-max 24 --replicas 1",),
            tiny=(_SIM + "--model mmm --tail pareto:alpha=1 --beta 0.1 "
                  "--log-f 0.6931471805599453 --t-max 24 --replicas 1 "
                  "--exact-event-cap 1000",),
            exercises=_SIM_CORE + (
                "simulate.step_exact", "simulate._poisson", "simulate.to_logdet",
                "simulate.step_logdet", "simulate.mutant_spectrum",
                "tails.sample_fitness", "tails.inverse_log_tail", "tails.log_tail",
            ),
            band=(("peak_classes", 128_000, 143_000),
                  ("class_steps", 2_000_000, 2_400_000)),
        ),
        Workload(
            name="fmm_restarts",
            argv=(_SIM + "--model fmm --tail pareto:alpha=3 --beta 0.9 "
                  "--log-f 0.1823215567939546 --t-max 40 --replicas 40",),
            tiny=(_SIM + "--model fmm --tail pareto:alpha=3 --beta 0.9 "
                  "--log-f 0.1823215567939546 --t-max 40 --replicas 1",),
            exercises=_SIM_CORE + (
                "simulate.step_exact", "simulate._poisson",
                "tails.sample_max_of_n", "tails.inverse_log_tail",
            ),
            band=(("restarts", 6_000, 6_800),),
        ),
        Workload(
            name="recurse_nu",
            argv=(
                "recurse --alpha 1 --t-max 40000 --detect-period --out {out}/chi.csv",
                "seed-ctex --alpha 1 --phis 1.3333333333333333,1.5,1.5 --t-max 20000 "
                "--out {out}/ctex.json",
                "collapse --alpha 1 --t-pairs 3000:3003,3000:3001 --out {out}/collapse.csv",
                "nu --alpha-min 0.05 --alpha-max 2e4 --points 200 --log-grid "
                "--out {out}/nu.csv",
            ),
            tiny=(
                "recurse --alpha 1 --t-max 400 --detect-period --out {out}/chi.csv",
                "seed-ctex --alpha 1 --phis 1.3333333333333333,1.5,1.5 --t-max 200 "
                "--out {out}/ctex.json",
                "collapse --alpha 1 --t-pairs 300:303,300:301 --out {out}/collapse.csv",
                "nu --alpha-min 0.05 --alpha-max 50 --points 20 --log-grid "
                "--out {out}/nu.csv",
            ),
            exercises=(
                "cli.main", "cli.parse_args", "cli._write_csv", "cli._write_json",
                "recursion.solve_chi", "recursion._solve_pass",
                "recursion.detect_period", "recursion.verify_indu",
                "recursion.SeedSequence.log_a_array", "recursion.nu_hat",
                "growth.period_T", "growth.sweep", "analysis.freq_from_chi",
                "analysis.collapse_distance",
            ),
        ),
    )
}


def expand(templates, seed, out):
    """argv lists for one pass."""
    return [t.format(seed=seed, out=out).split() for t in templates]


def pick(name, bench_seed):
    """The pool entry a benchmark seed selects; the same seed, the same entry."""
    with open(SEED_FILE, encoding="utf-8") as fh:
        pool = json.load(fh)[name]
    return pool[bench_seed % len(pool)]


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    """An output broke an invariant that holds whatever the random stream."""


def _strict_json(path):
    def reject(token):
        raise CheckFailed(f"{os.path.basename(path)}: non-strict JSON token {token}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def _scan_csv(path, finite, peak=None):
    """Check that the ``finite`` columns are finite floats in every row;
    returns the largest value of the ``peak`` column (0 without one)."""
    name = os.path.basename(path)
    top = rows = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = [header.index(c) for c in finite]
        p = header.index(peak) if peak else None
        for row in reader:
            rows += 1
            for i in idx:
                if not math.isfinite(float(row[i])):
                    raise CheckFailed(f"{name} row {rows}: {header[i]}={row[i]}")
            if p is not None:
                top = max(top, int(row[p]))
    if rows == 0:
        raise CheckFailed(f"{name} has no rows")
    return top


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def check_outputs(argv):
    """Raise CheckFailed unless the outputs of one invocation hold their invariants.

    Returns the peak class count for simulate (0 otherwise) so each result
    can carry the work size its seed produced.
    """
    command = argv[0]
    if command == "simulate":
        path = _flag(argv, "--out")
        peak = _scan_csv(path, ["log_X"], peak="n_classes")
        summary = _strict_json(path + ".summary.json")
        if summary["survived"] != summary["replicas"]:
            raise CheckFailed(f"survived {summary['survived']} of {summary['replicas']}")
        return peak
    if command == "recurse":
        path = _flag(argv, "--out")
        _scan_csv(path, ["log_chi", "log_c_t"])
        if "--detect-period" in argv:
            period = _strict_json(path + ".period.json")
            if not period["constraints_ok"]:
                raise CheckFailed("recurse period constraints_ok is false")
            if float(_flag(argv, "--alpha")) == 1.0:
                want = (4 / 3, 3 / 2, 3 / 2)
                got = period["phi"]
                if len(got) != 3 or any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
                    raise CheckFailed(f"alpha=1 multipliers {got}, want {want}")
    elif command == "seed-ctex":
        if not _strict_json(_flag(argv, "--out"))["indu_ok"]:
            raise CheckFailed("seed-ctex indu_ok is false")
    elif command == "collapse":
        _scan_csv(_flag(argv, "--out"), ["distance"])
    elif command == "nu":
        _scan_csv(_flag(argv, "--out"), ["nu"])
    return 0


def output_files(argv):
    """Files one invocation writes, from its --out flag."""
    path = _flag(argv, "--out")
    extra = {"simulate": ".summary.json", "recurse": ".period.json"}.get(argv[0])
    files = [path]
    if extra and (argv[0] != "recurse" or "--detect-period" in argv):
        files.append(path + extra)
    return files


def digests(argv):
    """sha256 of each output file, keyed by file name, and the bytes written."""
    out, size = {}, 0
    for path in output_files(argv):
        with open(path, "rb") as fh:
            data = fh.read()
        out[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return out, size
