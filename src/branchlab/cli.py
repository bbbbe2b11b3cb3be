"""Unified command line front end with JSON config support.

Subcommands: ``nu`` (growth-law sweep), ``recurse`` (recursion solver),
``seed-ctex`` (constructive seed builder + identity check), ``simulate``
(stochastic runs), ``freq`` (frequency snapshots), ``collapse`` (snapshot
distances), ``verify-lemmas`` (Monte Carlo bound checks).

Every command accepts ``--config PATH`` (a JSON object of parameter values,
loaded first and overridden by explicit flags) and writes UTF-8 CSV/JSON.
Identical argv + config + seed give byte-identical outputs.  Exit codes:
0 success, 1 failed verification suite or typed error, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import analysis, growth, recursion, simulate
from .errors import BranchlabError, DomainError, HorizonOverflow, UsageError
from .tails import parse_tail_model

_ENV_SEED = "BRANCHLAB_SEED"
_MASK64 = (1 << 64) - 1

# _write_csv renders and writes this many rows at a time: one write per
# block, and never the whole file as one string.
_CSV_BLOCK_ROWS = 1024


def splitmix64(index: int) -> int:
    """The index-th output of a splitmix64 stream seeded with 0."""
    z = ((index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replica_seed(seed: int, index: int) -> int:
    """Per-replica stream seed: base seed XOR splitmix of the index."""
    return (seed ^ splitmix64(index)) & _MASK64


def _default_seed() -> int:
    raw = os.environ.get(_ENV_SEED, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"{_ENV_SEED} must be an integer, got {raw!r}") from exc


# Range checks return True or the end of their message; ``parse_args`` puts
# the field's flag in front.
def _positive(v):
    return v > 0 or "must be positive"


def _in_open_unit(v):
    return 0.0 < v < 1.0 or "must be in (0, 1)"


def _at_least(bound):
    return lambda v: v >= bound or f"must be >= {bound}"


def _one_of(choices):
    return lambda v: v in choices or f"must be one of {sorted(choices)}"


@dataclasses.dataclass(frozen=True)
class _Field:
    name: str
    kind: str  # float | int | str | bool | floats | ints
    default: object = None
    required: bool = False
    check: object = None
    help: str = ""


_SEED_HELP = "seed string: linear | half | ctex:phis=A,B,... | file:PATH"

_SCHEMAS: dict[str, list[_Field]] = {
    "nu": [
        _Field("alpha", "float", check=_positive, help="single tail index"),
        _Field("alpha_min", "float", check=_positive, help="sweep start"),
        _Field("alpha_max", "float", check=_positive, help="sweep end"),
        _Field("points", "int", check=_at_least(1), help="sweep size"),
        _Field("log_grid", "bool", default=False, help="geometric sweep grid"),
        _Field("out", "str", help="CSV path (default stdout); columns alpha,T,nu,nu_approx,rel_err"),
    ],
    "recurse": [
        _Field("alpha", "float", required=True, check=_positive),
        _Field("seed", "str", default="linear", help=_SEED_HELP),
        _Field("t_max", "int", default=400, check=_at_least(1),
               help=f"horizon (at most {recursion.MAX_T_MAX:g})"),
        _Field("detect_period", "bool", default=False,
               help="also write {t1, cycle, phi, constraints_ok} JSON"),
        _Field("tol", "float", default=1e-9, check=_positive),
        _Field("out", "str", help="CSV path; columns t,log_chi,I_t,log_c_t,nu_hat"),
    ],
    "seed-ctex": [
        _Field("alpha", "float", required=True, check=_positive),
        _Field("phis", "floats", required=True, help="comma-separated cycle multipliers"),
        _Field("t_max", "int", default=200, check=_at_least(1),
               help=f"horizon of the identity check (at most {recursion.MAX_T_MAX:g})"),
        _Field("out", "str", help="JSON result path (default stdout)"),
    ],
    "simulate": [
        _Field("model", "str", required=True, check=_one_of({"fmm", "mmm"})),
        _Field("tail", "str", default="pareto:alpha=1"),
        _Field("beta", "float", default=0.1, check=_in_open_unit),
        _Field("log_f", "float", required=True),
        _Field("t_max", "int", default=40, check=_at_least(0)),
        _Field("seed", "int"),
        _Field("replicas", "int", default=1, check=_at_least(1),
               help=f"independent runs; at most {simulate.MAX_ROWS:g} rows of "
                    "replicas x (t-max + 1)"),
        _Field("jobs", "int", default=1, check=_at_least(1)),
        _Field("exact_event_cap", "float", check=_positive,
               help="expected events per generation before logdet mode (at most "
                    f"{simulate.MAX_EXACT_EVENT_CAP:g}; mmm {simulate.MMM_MAX_EXACT_EVENT_CAP:g})"),
        _Field("mmm_bins_per_decade", "int", check=_at_least(1),
               help="mmm spectrum bins per decade of log-fitness "
                    f"(at most {simulate.MMM_MAX_BINS_PER_DECADE})"),
        _Field("mmm_poisson_threshold", "float", check=_positive,
               help="bin mean above which mmm spectrum bins enter deterministically "
                    f"(at most {simulate.MMM_MAX_POISSON_THRESHOLD:g})"),
        _Field("restart_on_extinction", "bool"),
        _Field("slope_lo", "int", help="log-log slope window start (default 5/8 of t-max)"),
        _Field("slope_hi", "int", help="log-log slope window end (default t-max)"),
        _Field("out", "str",
               help="CSV path; columns replica,t,log_X,log_W,n_classes,mode,dominant_age"),
    ],
    "freq": [
        _Field("source", "str", default="recursion", check=_one_of({"recursion", "run"})),
        _Field("alpha", "float", check=_positive, help="recursion source"),
        _Field("t", "ints", required=True, help="comma-separated generations"),
        _Field("t_max", "int",
               help=f"horizon (default max t + 2; at most {recursion.MAX_T_MAX:g}); a run's "
                    f"default is max t + 1, and t-max + 1 at most {simulate.MAX_ROWS:g}"),
        _Field("seed_sequence", "str", default="linear", help=_SEED_HELP),
        _Field("model", "str", default="fmm", check=_one_of({"fmm", "mmm"})),
        _Field("tail", "str", default="pareto:alpha=1"),
        _Field("beta", "float", default=0.1, check=_in_open_unit),
        _Field("log_f", "float", default=50.0),
        _Field("seed", "int"),
        _Field("out", "str", help="CSV path; columns t,J,R (P table goes to <out>.p.csv)"),
    ],
    "collapse": [
        _Field("alpha", "float", required=True, check=_positive),
        _Field("seed_sequence", "str", default="linear", help=_SEED_HELP),
        _Field("t_pairs", "str", required=True, help="pairs like 300:303,300:301"),
        _Field("t_max", "int",
               help=f"recursion horizon (default max t + 2; at most {recursion.MAX_T_MAX:g})"),
        _Field("out", "str", help="CSV path; columns t_a,t_b,distance"),
    ],
    "verify-lemmas": [
        _Field("replicas", "int", default=10000, check=_at_least(100)),
        # NumPy seeds a generator only from non-negative integers
        _Field("seed", "int", check=lambda v: v >= 0 or f"(or {_ENV_SEED}) must be >= 0"),
    ],
}


@dataclasses.dataclass(frozen=True)
class Config:
    """Validated parameters for one subcommand."""

    command: str
    params: dict


def _option(field: _Field) -> str:
    """The field's flag on the command line; ``source`` is given as ``--from``."""
    return "--from" if field.name == "source" else "--" + field.name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors print its own usage and raise UsageError.

    ``main`` then prints the one ``usage error:`` line and exits 2.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="branchlab",
        description="Branching populations under selection and heavy-tailed mutation",
    )
    sub = parser.add_subparsers(dest="command")
    for command, fields in _SCHEMAS.items():
        p = sub.add_parser(command, help=f"{command} subcommand")
        p.add_argument("--config", default=None, help="JSON parameter file loaded first")
        for f in fields:
            flag = _option(f)
            if f.kind == "bool":
                group = p.add_mutually_exclusive_group()
                group.add_argument(flag, dest=f.name, action="store_const", const=True,
                                   default=None, help=f.help)
                group.add_argument("--no-" + flag[2:], dest=f.name, action="store_const",
                                   const=False, default=None)
            else:
                p.add_argument(flag, dest=f.name, default=None, help=f.help)
    return parser, sub.choices


def _number(kind: str, value):
    """A float or int from a flag's text or a JSON value; JSON true and false
    are not numbers, and an int must be integral (so finite)."""
    if isinstance(value, bool):
        raise ValueError
    if kind == "float":
        return float(value)
    if isinstance(value, float) and value != int(value):
        raise ValueError
    return int(value)


def _convert(field: _Field, value, origin: str):
    try:
        if field.kind in ("float", "int"):
            return _number(field.kind, value)
        if field.kind == "bool":
            if isinstance(value, bool):
                return value
            raise ValueError
        if field.kind in ("floats", "ints"):
            if isinstance(value, str):
                items = [v for v in value.split(",") if v.strip()]
            elif isinstance(value, list):
                items = value
            else:
                raise ValueError
            return [_number(field.kind[:-1], v) for v in items]
        if isinstance(value, str):
            return value
        raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"bad value for {_option(field)} ({origin}): {value!r}") from None


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list) -> list:
    """argv with each ``--flag -1e-300`` of a value-taking flag of the command
    joined into ``--flag=-1e-300``.

    argparse reads a token that starts with ``-`` as a flag unless it is a
    plain negative decimal, so ``-1e-300`` or ``-inf`` would leave the flag
    without its value.  Only tokens that ``float`` parses are joined, and
    only whole flag names (not abbreviations).
    """
    command = next((a for a in argv if a in _SCHEMAS), None)
    if command is None:
        return argv
    takes_value = {"--config"} | {_option(f) for f in _SCHEMAS[command] if f.kind != "bool"}
    joined = argv[: argv.index(command) + 1]
    for token in argv[len(joined):]:
        if joined[-1] in takes_value and token.startswith("-") and _is_float(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def parse_args(argv) -> Config:
    """Parse argv into a validated Config; flags override config-file values."""
    parser, commands = _build_parser()
    argv = _join_negative_values(list(argv))
    ns, extra = parser.parse_known_args(argv)  # --help prints and exits 0
    if extra:
        # a stray token before the subcommand went to the top-level parser and
        # is reported with its usage; otherwise the subcommand's usage is shown
        head = argv[: argv.index(ns.command)] if ns.command is not None else argv
        owner = parser if any(a in head for a in extra) else commands[ns.command]
        owner.error("unrecognized arguments: " + " ".join(extra))
    if ns.command is None:
        raise UsageError("missing subcommand")
    fields = _SCHEMAS[ns.command]
    by_name = {f.name: f for f in fields}

    params = {f.name: f.default for f in fields}
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {ns.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in by_name:
                raise UsageError(f"unknown config key {key!r} for {ns.command}")
            params[key] = _convert(by_name[key], value, f"config {ns.config}")
    for f in fields:
        given = getattr(ns, f.name)
        if given is not None:
            params[f.name] = _convert(f, given, "flag")
    if "seed" in params and params["seed"] is None:
        params["seed"] = _default_seed()

    for f in fields:
        value = params[f.name]
        if value is None:
            if f.required:
                raise UsageError(f"missing required option {_option(f)}")
            continue
        if f.check is not None:
            verdict = f.check(value)
            if verdict is not True:
                raise UsageError(f"{_option(f)} {verdict}")
    return Config(command=ns.command, params=params)


def _open_out(path):
    """The output file at path, or stdout (left open) when path is None."""
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _side_out(out, suffix):
    """Path of a second output written beside --out; stdout without --out."""
    return out + suffix if out else None


def _cells(column) -> list[str]:
    """The text of each cell of one column block.

    A float64 column renders each distinct bit pattern once with ``repr``;
    keying on bits keeps -0.0, 0.0 and every NaN apart.  Other columns go
    through ``str`` of their Python scalars, which for a float is its repr.
    """
    column = np.asarray(column)
    if column.dtype != np.float64:
        return list(map(str, column.tolist()))
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(text.__getitem__, inverse.tolist()))


def _write_csv(path, header, tables):
    """A CSV under one header of the rows of ``tables``, in order.

    Each table is a list of equal-length columns; data that comes in parts
    (replicas, snapshots) is passed as one table per part, so no part is
    copied to join them.  Rows are rendered and written _CSV_BLOCK_ROWS at a
    time.  Each column holds numbers of one type, or text without ``,``,
    ``"`` or line breaks.  Under that contract the output is exactly what
    ``csv.writer(lineterminator="\\n")`` writes for the rows: floats as
    ``float.__repr__`` (an exact round trip), other cells as ``str``.
    Without rows the CSV is its header line alone.
    """
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for columns in tables:
            n = len(columns[0])
            if any(len(c) != n for c in columns):
                raise ValueError("CSV columns differ in length")
            for start in range(0, n, _CSV_BLOCK_ROWS):
                cells = [_cells(c[start:start + _CSV_BLOCK_ROWS]) for c in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _open_out(path) as fh:
        fh.write(text)


def _resolve_seed(text: str, alpha: float) -> recursion.SeedSequence:
    text = text.strip()
    if text == "linear":
        return recursion.SeedSequence.linear()
    if text == "half":
        return recursion.SeedSequence.half()
    if text.startswith("ctex:"):
        body = text[len("ctex:"):]
        if not body.startswith("phis="):
            raise UsageError("ctex seed needs phis=A,B,...")
        try:
            phis = [float(v) for v in body[len("phis="):].split(",")]
        except ValueError as exc:
            raise UsageError(f"bad ctex multipliers in {text!r}") from exc
        return recursion.build_ctex_seed(alpha, phis)
    if text.startswith("file:"):
        path = text[len("file:"):]
        try:
            with open(path, encoding="utf-8") as fh:
                values = [float(line) for line in fh if line.strip()]
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read seed file {path}: {exc}") from exc
        return recursion.SeedSequence.explicit(values)
    raise UsageError(f"unknown seed {text!r}; want {_SEED_HELP}")


def _cmd_nu(p) -> int:
    if p["alpha"] is not None:
        rows = growth.sweep(p["alpha"], p["alpha"], 1)
    else:
        if p["alpha_min"] is None or p["alpha_max"] is None or p["points"] is None:
            raise UsageError("need --alpha or all of --alpha-min/--alpha-max/--points")
        rows = growth.sweep(p["alpha_min"], p["alpha_max"], p["points"], p["log_grid"])
    _write_csv(p["out"], ["alpha", "T", "nu", "nu_approx", "rel_err"], [list(zip(*rows))])
    return 0


def _cmd_recurse(p) -> int:
    seed = _resolve_seed(p["seed"], p["alpha"])
    series = recursion.solve_chi(p["alpha"], seed, p["t_max"])
    payload = None
    if p["detect_period"]:
        # before any output, so a failed period check leaves no file behind
        t1, cycle = recursion.detect_period(series, tol=p["tol"])
        try:
            phi = recursion.extract_phi(cycle, series.nu, series.alpha).tolist()
            constraints_ok = True
        except BranchlabError:
            phi = None
            constraints_ok = False
        payload = {
            "t1": t1,
            "cycle": cycle.tolist(),
            "phi": phi,
            "constraints_ok": constraints_ok,
        }
    # nu_hat stops T rows short of t_max; its last rows are NaN
    nu_hat = np.full(series.t_max, math.nan)
    estimates = recursion.nu_hat(series)
    nu_hat[:estimates.size] = estimates
    _write_csv(p["out"], ["t", "log_chi", "I_t", "log_c_t", "nu_hat"],
               [[np.arange(1, series.t_max + 1), series.L[1:], series.I[1:],
                 series.log_c[1:], nu_hat]])
    if payload is not None:
        _write_json(_side_out(p["out"], ".period.json"), payload)
    return 0


def _seed_values(seed: recursion.SeedSequence, t_show: int) -> list[float]:
    """a_1 .. a_t_show in linear scale; HorizonOverflow names the first a_t past float64."""
    values = []
    for t, log_a in enumerate(seed.log_a_array(t_show)[1:].tolist(), start=1):
        try:
            values.append(math.exp(log_a))
        except OverflowError:
            raise HorizonOverflow(f"seed value a_{t} = exp({log_a:.6g}) overflows float64; "
                                  f"use t_max < {t}") from None
    return values


def _cmd_seed_ctex(p) -> int:
    seed = recursion.build_ctex_seed(p["alpha"], p["phis"])
    check = recursion.verify_indu(p["alpha"], p["phis"], p["t_max"])
    t_show = min(p["t_max"], 4 * len(seed.phi))
    payload = {
        "alpha": p["alpha"],
        "phi": seed.phi,
        "a": _seed_values(seed, t_show),
        "indu_ok": check.ok,
        "first_failing_t": check.first_failing_t,
    }
    _write_json(p["out"], payload)
    return 0


def _sim_config(p, t_max: int, seed: int) -> simulate.SimConfig:
    """The run config of ``simulate`` and ``freq --from run``: each SimConfig
    field the command has and the user set, SimConfig's defaults for the rest."""
    given = {f.name: p[f.name] for f in dataclasses.fields(simulate.SimConfig)
             if p.get(f.name) is not None}
    return simulate.SimConfig(**{**given, "tail": parse_tail_model(p["tail"]),
                                 "t_max": t_max, "seed": seed})


def _slope_window(p) -> tuple[int, int]:
    """The log-log slope window, given or default; it must lie in [1, t_max] (log X_0 = 0)."""
    t_max = p["t_max"]
    lo = p["slope_lo"] if p["slope_lo"] is not None else (5 * t_max) // 8
    hi = p["slope_hi"] if p["slope_hi"] is not None else t_max
    if not 1 <= lo < hi <= t_max:
        raise UsageError(f"slope window needs 1 <= --slope-lo < --slope-hi <= --t-max "
                         f"({t_max}), got [{lo}, {hi}]")
    return lo, hi


def _cmd_simulate(p) -> int:
    lo, hi = _slope_window(p)
    rows = p["replicas"] * (p["t_max"] + 1)
    if rows > simulate.MAX_ROWS:
        raise DomainError(f"replicas x (t_max + 1) = {rows} rows; at most "
                          f"{simulate.MAX_ROWS:g} are stored")
    configs = [
        _sim_config(p, p["t_max"], replica_seed(p["seed"], k)) for k in range(p["replicas"])
    ]
    if p["jobs"] > 1:
        # imported only here: it loads multiprocessing, logging, socket,
        # subprocess and about 30 other modules that nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=p["jobs"]) as pool:
            records = list(pool.map(simulate.run, configs))
    else:
        records = simulate.run_replicas(configs)

    mode_names = np.array([simulate.MODE_EXACT, simulate.MODE_LOGDET], dtype=object)
    _write_csv(
        p["out"],
        ["replica", "t", "log_X", "log_W", "n_classes", "mode", "dominant_age"],
        ([np.full(rec.t.size, k), rec.t, rec.log_X, rec.log_W, rec.n_classes,
          mode_names[rec.mode], rec.dominant_age] for k, rec in enumerate(records)),
    )

    slopes = []
    survived = 0
    for rec in records:
        if rec.outcome != "survived":
            continue
        survived += 1
        try:
            slopes.append(analysis.loglog_slope(rec, lo, hi))
        except BranchlabError:
            pass
    summary = {
        "replicas": p["replicas"],
        "survived": survived,
        "survival_fraction": survived / p["replicas"],
        "restarts_total": sum(rec.restarts for rec in records),
        "slope_window": [lo, hi],
        "loglog_slopes": slopes,
        "loglog_slope_mean": float(np.mean(slopes)) if slopes else None,
    }
    _write_json(_side_out(p["out"], ".summary.json"), summary)
    return 0


def _snapshot_series(p, t_top: int) -> recursion.ChiSeries:
    """Recursion for snapshots up to t_top: solved to --t-max, or to t_top + 2."""
    t_max = p["t_max"] if p["t_max"] is not None else t_top + 2
    seed = _resolve_seed(p["seed_sequence"], p["alpha"])
    return recursion.solve_chi(p["alpha"], seed, t_max)


def _cmd_freq(p) -> int:
    ts = sorted(set(p["t"]))
    if not ts or ts[0] < 1:
        raise UsageError("--t needs generations >= 1")
    if p["source"] == "recursion":
        if p["alpha"] is None:
            raise UsageError("recursion source needs --alpha")
        series = _snapshot_series(p, ts[-1])
        snaps = [analysis.freq_from_chi(series, t) for t in ts]
    else:
        t_max = p["t_max"] if p["t_max"] is not None else ts[-1] + 1
        record = simulate.run(_sim_config(p, t_max, p["seed"]))
        snaps = [analysis.freq_from_run(record, t) for t in ts]
    _write_csv(p["out"], ["t", "J", "R"],
               ([np.full(s.J.size, s.t), s.J, s.R] for s in snaps))
    _write_csv(_side_out(p["out"], ".p.csv"), ["t", "P"], [[ts, [s.P for s in snaps]]])
    return 0


def _cmd_collapse(p) -> int:
    pairs = []
    try:
        for chunk in p["t_pairs"].split(","):
            a, b = chunk.split(":")
            pairs.append((int(a), int(b)))
    except ValueError as exc:
        raise UsageError("--t-pairs wants pairs like 300:303,300:301") from exc
    series = _snapshot_series(p, max(max(a, b) for a, b in pairs))
    distances = [
        analysis.collapse_distance(analysis.freq_from_chi(series, a),
                                   analysis.freq_from_chi(series, b))
        for a, b in pairs
    ]
    _write_csv(p["out"], ["t_a", "t_b", "distance"], [[*zip(*pairs), distances]])
    return 0


def _cmd_verify_lemmas(p) -> int:
    replicas = p["replicas"]
    rng = np.random.default_rng(p["seed"])
    checks = []
    # both estimates are drawn, in this order, before either is checked
    for name, (emp, bound) in (
        ("galton-lower-bound", simulate.mc_verify_galton(101.0, 0.5, 5, replicas, rng)),
        ("generation-dependent-upper-bound",
         simulate.mc_verify_tdg([2.0] * 5, 1, 10.0, 2.0, replicas, rng)),
    ):
        sigma = math.sqrt(max(emp * (1 - emp), 1e-12) / replicas)
        checks.append((name, emp, bound, emp >= bound - 3 * sigma))

    ks_crit = max(0.01, 1.63 / math.sqrt(replicas))
    for alpha in (1.0, 2.0):
        model = parse_tail_model(f"pareto:alpha={alpha}")
        draws = np.array([simulate.sample_fittest_mutant(0.0, model, rng)
                          for _ in range(replicas)])
        ks = simulate.fittest_mutant_ks(draws, model, 1.0)
        checks.append((f"fittest-mutant-law-ks-alpha-{alpha:g}", ks, ks_crit, ks <= ks_crit))

    width = max(len(name) for name, *_ in checks)
    print(f"{'check'.ljust(width)}  {'value':>12}  {'target':>12}  result")
    ok_all = True
    for name, value, target, ok in checks:
        ok_all &= ok
        print(f"{name.ljust(width)}  {value:12.6f}  {target:12.6f}  "
              f"{'pass' if ok else 'FAIL'}")
    return 0 if ok_all else 1


_DISPATCH = {
    "nu": _cmd_nu,
    "recurse": _cmd_recurse,
    "seed-ctex": _cmd_seed_ctex,
    "simulate": _cmd_simulate,
    "freq": _cmd_freq,
    "collapse": _cmd_collapse,
    "verify-lemmas": _cmd_verify_lemmas,
}


def dispatch(config: Config) -> int:
    """Run the configured subcommand and return its exit code."""
    return _DISPATCH[config.command](config.params)


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        return dispatch(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BranchlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does); what is still
        # buffered goes to devnull, so the interpreter's last flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed by the reader before it was written in full",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
