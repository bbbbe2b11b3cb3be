"""Timing wrappers around branchlab functions, for the traced benchmark run.

The wrappers live here, not in the package: installing them rebinds each
target name in every ``branchlab`` module namespace that holds the original
function (``simulate`` imports several ``tails`` functions by name, and
``recursion`` imports ``growth_law`` and ``period_T``), and restores the
originals afterwards.  A wrapper records one span (name, start, end,
parent) per call in flat arrays and updates the counters that need a
call's arguments or result.  It draws no random numbers and changes no
argument, so traced outputs are byte-identical to untraced ones.
"""
from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Module attributes to wrap: the CLI path through every public entry point
# of tails, growth, recursion, simulate, analysis and cli, plus the
# module-level stages the hot paths run through.
TARGETS = {
    "tails": ("log_tail", "inverse_log_tail", "sample_fitness", "sample_max_of_n",
              "parse_tail_model", "tail"),
    "growth": ("period_T", "nu", "nu_continuous_approx", "growth_law", "sweep",
               "alpha_critical", "nu_bruteforce"),
    "recursion": ("solve_chi", "_solve_pass", "detect_period", "extract_phi",
                  "build_ctex_seed", "verify_indu", "nu_hat", "c_of_t",
                  "check_bounds", "SeedSequence.log_a_array"),
    "simulate": ("run", "_attempt", "_generation_rng", "initial_state", "to_logdet",
                 "step_exact", "step_logdet", "mutant_spectrum",
                 "sample_fittest_mutant", "_poisson", "_rebuild"),
    "analysis": ("loglog_slope", "freq_from_chi", "freq_from_run",
                 "collapse_distance", "homogeneous_curve"),
    "cli": ("main", "parse_args", "_write_csv", "_write_json"),
}

ROOT_SPAN = "pass"

COUNTS = ("classes_in", "classes_out", "peak_classes", "draws", "steps",
          "window_violations")


class Tracer:
    """Span store for one traced pass plus the counters wrappers update."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self._ids = {ROOT_SPAN: 0}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)

    def reset(self):
        """Drop the spans and counts of the previous pass (wrappers keep working)."""
        for a in (self.name_id, self.parent, self.start, self.end):
            del a[:]
        self.stack[:] = [-1]
        self.counts.update(dict.fromkeys(COUNTS, 0))

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, count=None):
        """Wrap fn so that each call records a span named ``name``."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def run_root(self, fn):
        """Run fn() inside the root span of a fresh pass."""
        self.reset()
        return self.span(ROOT_SPAN, fn)()

    def aggregate(self):
        """Per-name calls, total and self seconds of the recorded spans."""
        nid = np.array(self.name_id, dtype=np.int32)
        par = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        covered = np.zeros(dur.size)
        child = par >= 0
        np.add.at(covered, par[child], dur[child])
        self_t = dur - covered
        k = len(self.names)
        return {
            name: {"calls": int(c), "total_s": float(t), "self_s": float(s)}
            for name, c, t, s in zip(
                self.names,
                np.bincount(nid, minlength=k),
                np.bincount(nid, weights=dur, minlength=k),
                np.bincount(nid, weights=self_t, minlength=k),
            )
        }

    def write(self, path):
        """Write the spans of the last pass as tab-separated rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i, (n, p, s, e) in enumerate(
                    zip(self.name_id, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{self.names[n]}\t{p}\t{s!r}\t{e!r}\n")


def _count_rebuild(c, args, state):
    c["classes_in"] += len(args[1])
    c["classes_out"] += state.n_classes
    c["peak_classes"] = max(c["peak_classes"], state.n_classes)


def _count_draws(c, args, result):
    c["draws"] += int(np.size(result))


def _count_solve_pass(c, args, result):
    L, _, bad_t = result
    c["steps"] += (len(L) - 1 if bad_t is None else bad_t) - 1
    c["window_violations"] += bad_t is not None


_COUNTERS = {
    "simulate._rebuild": _count_rebuild,
    "tails.sample_fitness": _count_draws,
    "recursion._solve_pass": _count_solve_pass,
}


@contextmanager
def installed(tracer):
    """Install the wrappers; yields the target names the package lacks.

    Every module namespace that binds a target's original function gets
    the wrapper; the originals come back on exit.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "branchlab" or n.startswith("branchlab."))]
    undo, missing = [], []
    try:
        for short, attrs in TARGETS.items():
            mod = sys.modules[f"branchlab.{short}"]
            for attr in attrs:
                name = f"{short}.{attr}"
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                original = vars(holder).get(leaf) if holder is not None else None
                if original is None:
                    missing.append(name)
                    continue
                wrapper = tracer.span(name, original, _COUNTERS.get(name))
                for h in ([holder] if owner else modules):
                    for key, value in list(vars(h).items()):
                        if value is original:
                            setattr(h, key, wrapper)
                            undo.append((h, key, original))
        yield missing
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
