"""Record the program-seed pools and output digests in ``seeds.json``.

    python3 bench/record.py                 # every workload
    python3 bench/record.py mmm_wide        # one workload

Run it at the commit whose outputs the benchmark should compare against.
For each seeded workload it tries candidate program seeds, 32-bit hashes of
the workload name and 1, 2, 3, ... (nearby small seeds would share most
restart attempts, whose seeds are consecutive), with one full pass each in
a child process with a time limit.  It keeps a seed when every work count
named by the workload's ``band`` falls inside its range, until the pool
holds ``POOL`` seeds.  Simulation work varies tenfold across seeds
(``mmm_wide`` hands 8k to 890k classes to logdet mode), so the band keeps
every seed in the work regime the workload is meant to time; a benchmark
seed then selects one pool entry.  Each entry keeps the seed's work counts
and the sha256 of every output file.  Workloads without randomness get one
entry.  Every probe is printed, kept or not.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

POOL = 6
PROBE_SECONDS = 12
WORKERS = 2


def candidate(name, i):
    """The i-th candidate program seed of a workload."""
    digest = hashlib.sha256(f"{name}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _probe_dir(name, seed):
    return os.path.join(run.OUT_ROOT, f"record-{name}-{seed}")


def probe(name, seed):
    """One full pass of ``name`` at program seed ``seed``, in this process."""
    from branchlab import cli

    w = workloads.WORKLOADS[name]
    out = _probe_dir(name, seed)
    os.makedirs(out, exist_ok=True)
    argvs = workloads.expand(w.argv, seed, out)
    checker = run.Checker()
    run.run_pass(cli, argvs, checker)
    restarts = class_steps = 0
    for argv in argvs:
        if argv[0] == "simulate":
            path = argv[argv.index("--out") + 1]
            with open(path + ".summary.json", encoding="utf-8") as fh:
                restarts += json.load(fh)["restarts_total"]
            with open(path, encoding="utf-8", newline="") as fh:
                class_steps += sum(int(row["n_classes"]) for row in csv.DictReader(fh))
    digests = [workloads.digests(a)[0] for a in argvs]
    return {"seed": seed, "peak_classes": checker.peak_classes,
            "class_steps": class_steps, "restarts": restarts,
            "failed": checker.failed, "digests": digests}


def probe_child(name, seed):
    """probe() in a child process; None when it runs past PROBE_SECONDS."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_SECONDS, check=True)
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(_probe_dir(name, seed), ignore_errors=True)
    return json.loads(done.stdout.splitlines()[-1])


def record(name):
    w = workloads.WORKLOADS[name]
    if not w.seeded:
        entry = probe_child(name, 0)
        print(name, json.dumps({k: v for k, v in entry.items() if k != "digests"}))
        return [entry]
    pool, i = [], 1
    with ThreadPoolExecutor(WORKERS) as ex:
        while len(pool) < POOL:
            batch = [candidate(name, j) for j in range(i, i + WORKERS)]
            i += WORKERS
            for s, entry in zip(batch, ex.map(lambda s: probe_child(name, s), batch)):
                brief = None if entry is None else {
                    k: v for k, v in entry.items() if k != "digests"}
                keep = entry is not None and entry["failed"] == 0 and all(
                    lo <= entry[count] <= hi for count, lo, hi in w.band)
                print(name, s, "keep" if keep else "skip", json.dumps(brief), flush=True)
                if keep and len(pool) < POOL:
                    pool.append(entry)
    return pool


def main(argv):
    if argv[:1] == ["--probe"]:
        print(json.dumps(probe(argv[1], int(argv[2]))))
        return 0
    names = argv or list(workloads.WORKLOADS)
    data = {}
    if os.path.exists(workloads.SEED_FILE):
        with open(workloads.SEED_FILE, encoding="utf-8") as fh:
            data = json.load(fh)
    for name in names:
        data[name] = record(name)
        with open(workloads.SEED_FILE, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, run.SRC)
    sys.exit(main(sys.argv[1:]))
