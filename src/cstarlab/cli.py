"""Batch front end: deterministic experiment runs with file reports.

Subcommands
-----------
walk      simulate trajectories, report per-trial hitting/max statistics
sample    Monte-Carlo estimate of the return-to-zero proxy + descriptor
simplex   build one collapse tower and archive it as JSON
weyl      (matching distance, orbit distance, lower bound, gap) over random pairs
cuntz     K1-triviality and unit checks over a range of block sizes
ktheory   six-term computations for the shift algebra and dimension drops
summary   human-readable aggregates of a previously written report

Every subcommand but summary takes `--config FILE`, a JSON object keyed by
its configuration keys, and one flag per key (`--max-size` for `max_size`);
explicit flags win.  Both are checked against one key table, so a config
value must have its flag's JSON type: a string number (`"0.5"`), a bool, a
fractional seed or count, a format other than json or csv, or an `initial`
state that is not an integer exits 2, and so does a `start` given beside an
`initial` distribution.  Float values are recorded as floats (`1` as
`1.0`).  Every subcommand takes `--output` and `--format`; all but cuntz
and ktheory, which draw nothing at random, take `--seed`.  sample and
simplex write JSON only and refuse `--format csv`.

Reports start with a single timestamp header line prefixed '#'; everything
after it is a pure function of the resolved configuration, so re-running
with the same seed gives byte-identical output modulo that line.  JSON
reports are JSON-lines (config record first); CSV reports carry the config
in a second '#' header line.  Exit status: 0 success, 2 invalid
configuration, unreadable input, a malformed report given to summary or
unwritable output, 3 when numerical non-convergence flags are present in
the report.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import cuntz as cuntz_mod
from . import ktheory as ktheory_mod
from .rng import mix64, stream
from .sampler import estimate_prob_jiang_su, sample_algebra
from .simplex import MeasureScheme, build_tower
from .transport import (
    matching_distance,
    random_hermitian,
    random_normal,
    random_unitary,
    unitary_distance,
)
from .walk import Barrier, WalkParams, sample_trajectory

_SCHEMES = {s.value: s for s in MeasureScheme}
_BARRIERS = {b.value: b for b in Barrier}
_ENSEMBLES = {
    "hermitian": random_hermitian,
    "unitary": random_unitary,
    "normal": random_normal,
}

#: configuration key -> kind: float, int, "count" (an int >= 1), str (a
#: path), a tuple of the allowed strings, or "pairs" ([state, weight] pairs);
#: each key's flag and every value it takes, from a flag or a config file,
#: follow the kind
_KEYS = {
    **dict.fromkeys(["p", "tol"], float),
    **dict.fromkeys(["seed", "start"], int),
    **dict.fromkeys(["n", "max_size", "length", "trials", "horizon"], "count"),
    "output": str,
    "format": ("json", "csv"),
    "barrier": tuple(sorted(_BARRIERS)),
    "scheme": tuple(sorted(_SCHEMES)),
    "ensemble": tuple(sorted(_ENSEMBLES)),
    "initial": "pairs",
}


class ConfigError(ValueError):
    pass


def _flag_keywords(kind) -> dict:
    """argparse keywords of the flag of a configuration key of this kind."""
    if kind in (float, int, "count"):
        return {"type": float if kind is float else int}
    if kind == "pairs":
        return {"help": "JSON list of [state, weight] pairs"}
    return {"choices": kind} if isinstance(kind, tuple) else {}


def _checked(key: str, value):
    """`value` as configuration key `key` records it; a value its flag would
    refuse is a ConfigError naming the key.  A JSON bool is not a number."""
    kind = _KEYS[key]
    if kind is float:
        try:
            if type(value) not in (int, float):
                raise TypeError
            return float(value)
        except (TypeError, OverflowError):
            raise ConfigError(f"{key} must be a finite number, got {json.dumps(value)}") from None
    elif kind in (int, "count"):
        if type(value) is not int:
            finite = type(value) is float and math.isfinite(value)
            raise ConfigError(f"{key} must be {'an integer' if finite else 'a finite number'}, "
                              f"got {json.dumps(value)}")
        if kind == "count" and value < 1:
            raise ConfigError(f"{key} must be >= 1")
    elif isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{key} must be one of {sorted(kind)}")
    elif kind is str and not isinstance(value, str):
        raise ConfigError(f"{key} must be a path string")
    elif kind == "pairs":
        try:
            value = json.loads(value) if isinstance(value, str) else value
            if not all(type(pair) is list and len(pair) == 2 and type(pair[0]) is int
                       and type(pair[1]) in (int, float) for pair in value):
                raise ValueError
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a JSON list of [state, weight] pairs") from None
    return value


def _error_record(message: str) -> None:
    print(json.dumps({"error": message}, sort_keys=True), file=sys.stderr)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file beside `path`; a path that cannot be
    written raises ConfigError and leaves no temporary file behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}") from None


def _render(config: dict, records: list, columns: tuple | None) -> str:
    """Report text: JSON-lines, or CSV with `columns` when they are given.

    A string record is an encoded JSON line and is written as it is.  The
    CSV rows are the records holding the first column's key; a missing or
    None value is written empty and a bool as 0/1.
    """
    stamp = f"# generated_at={datetime.now(timezone.utc).isoformat()}\n"
    if columns is None:
        lines = [json.dumps({"config": config}, sort_keys=True)]
        lines += [r if isinstance(r, str) else json.dumps(r, sort_keys=True) for r in records]
        return stamp + "\n".join(lines) + "\n"
    buf = io.StringIO()
    buf.write(f"{stamp}# config={json.dumps(config, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([int(v) if isinstance(v, bool) else v for v in map(rec.get, columns)]
                     for rec in records if columns[0] in rec)
    return buf.getvalue()


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolved and checked configuration: defaults < config file < explicit
    flags.  A start given beside a non-null initial distribution, by flag or
    file, would be ignored, so it is refused."""
    given = {}
    if args.config:
        try:
            with open(args.config) as handle:
                file_cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        given.update(file_cfg)
    given.update((key, getattr(args, key)) for key in defaults if getattr(args, key) is not None)
    # a key whose default is None (p, initial) may stay unset
    cfg = {key: value if value is None and defaults[key] is None else _checked(key, value)
           for key, value in {**defaults, **given}.items()}
    if "start" in given and cfg.get("initial") is not None:
        raise ConfigError("start and initial both set the initial state; give one of them")
    return cfg


def _walk_params(cfg: dict) -> tuple[WalkParams, dict]:
    """The walk of a configuration, and the configuration with `initial`
    resolved and q = 1 - p added as the report records them."""
    if cfg["p"] is None:
        raise ConfigError("--p is required")
    initial = ((cfg["start"], 1.0),) if cfg["initial"] is None else cfg["initial"]
    params = WalkParams(p=cfg["p"], barrier=_BARRIERS[cfg["barrier"]], initial=initial)
    return params, {**cfg, "initial": [[s, w] for s, w in params.initial], "q": params.q}


# ---------------------------------------------------------------------------
# subcommand implementations: resolved configuration -> (configuration to
# record, records, exit status)
# ---------------------------------------------------------------------------

def _cmd_walk(cfg: dict):
    params, cfg = _walk_params(cfg)
    trials, length, seed = cfg["trials"], cfg["length"], cfg["seed"]
    records = []
    for t in range(trials):
        traj = sample_trajectory(params, length, seed, trial=t)
        try:
            hit_step = traj.states.index(0, 1)
        except ValueError:
            hit_step = None
        records.append({"trial": t, "start": traj.states[0], "hit_zero_step": hit_step,
                        "max_state": traj.max_state, "final_state": traj.states[-1]})
    hits = sum(rec["hit_zero_step"] is not None for rec in records)
    records.append({"summary": True, "trials": trials, "frequency_hit_zero": hits / trials})
    return cfg, records, 0


def _cmd_sample(cfg: dict):
    params, cfg = _walk_params(cfg)
    horizon, seed = cfg["horizon"], cfg["seed"]
    result = estimate_prob_jiang_su(params, cfg["trials"], horizon, seed)
    descriptor, diagnostics = sample_algebra(params, _SCHEMES[cfg["scheme"]], horizon, seed)
    # json writes the int keys of covering_radius_samples as strings
    record = {"params": {key: cfg[key] for key in ("p", "q", "barrier", "initial")},
              "scheme": cfg["scheme"], "horizon": result.horizon, "trials": result.trials,
              "estimate": result.estimate, "ci": list(result.ci),
              "diagnostics": dataclasses.asdict(diagnostics)}
    trace_space = str(descriptor.trace_space)
    if params.barrier is Barrier.REFLECTING:
        # the reflecting descriptor carries the almost-sure class
        record["trace_space_class"] = trace_space
    record["descriptor"] = {"unit_class": descriptor.unit_class, "trace_space": trace_space,
                            "finiteness": descriptor.finiteness.value}
    return cfg, [record], 0


def _cmd_simplex(cfg: dict):
    params, cfg = _walk_params(cfg)
    states = sample_trajectory(params, cfg["horizon"] + 1, cfg["seed"]).states
    if params.barrier is Barrier.ABSORBING and 0 in states:
        states = states[: states.index(0) + 1]
    if len(states) < 2:
        raise ConfigError("trajectory too short to build a tower (absorbed immediately)")
    tower = build_tower(list(states), _SCHEMES[cfg["scheme"]], mix64(cfg["seed"], 1))
    # to_json is already sorted-key JSON, so splicing it gives the bytes of
    # json.dumps({"tower": ...}, sort_keys=True) without a decode and re-encode
    return cfg, ['{"tower": ' + tower.to_json() + "}"], 0


def _cmd_weyl(cfg: dict):
    n, seed, make = cfg["n"], cfg["seed"], _ENSEMBLES[cfg["ensemble"]]
    records = []
    for t in range(cfg["trials"]):
        rng = stream(seed, t)
        a, b = make(n, rng), make(n, rng)
        # Hermitian pairs keep their eigvalsh spectra, on which the report bits depend
        spectra = ((np.linalg.eigvalsh(a.array), np.linalg.eigvalsh(b.array))
                   if cfg["ensemble"] == "hermitian" else (a.spectrum(), b.spectrum()))
        delta = matching_distance(*spectra)
        res = unitary_distance(a, b, cfg["tol"], seed=mix64(seed, t))
        records.append({"trial": t, "delta": delta, "d_u": res.value, "lower": res.lower_bound,
                        "gap": res.value - delta, "converged": res.converged})
    return cfg, records, 0 if all(rec["converged"] for rec in records) else 3


def _cmd_cuntz(cfg: dict):
    max_size = cfg["max_size"]
    # one dimension-drop model per pair; both checks read its boundary maps
    records = [{"p": p, "q": q, "gcd": math.gcd(p, q),
                "k1_trivial": cuntz_mod.k1_trivial(unit.m0, unit.m1),
                "unit_check": cuntz_mod.nccw_check(unit)}
               for p in range(1, max_size + 1) for q in range(p, max_size + 1)
               for unit in [cuntz_mod.dimension_drop_unit(p, q)]]
    half = cuntz_mod.LscStep.indicator(0, Fraction(1, 2))
    records.append({"dim_function_half_indicator": str(cuntz_mod.dim_function(half))})
    return cfg, records, 0


def _cmd_ktheory(cfg: dict):
    max_size = cfg["max_size"]
    k0, k1 = ktheory_mod.k_toeplitz()
    records = [{"model": "toeplitz", "k0": str(k0), "k1": str(k1),
                "index_of_shift": ktheory_mod.toeplitz_index_of_shift()}]
    for p in range(1, max_size + 1):
        for q in range(p, max_size + 1):
            g0, g1 = ktheory_mod.k_dimension_drop(p, q)
            records.append({"model": "dimension_drop", "p": p, "q": q,
                            "k0": str(g0), "k1": str(g1)})
    return cfg, records, 0


_WALK = {"p": None, "barrier": "reflecting", "start": 0, "initial": None}

#: name -> (handler, help, default configuration, CSV columns or None for
#: JSON-lines only); the default keys are the subcommand's config-file keys
#: and, in order, its flags after --config
_COMMANDS = {
    "walk": (_cmd_walk, "simulate trajectories",
             {"seed": 0, "output": "walk_report.jsonl", "format": "json", **_WALK,
              "length": 100, "trials": 1},
             ("trial", "start", "hit_zero_step", "max_state", "final_state")),
    "sample": (_cmd_sample, "estimate the return-to-zero proxy",
               {"seed": 0, "output": "sample_report.jsonl", "format": "json", **_WALK,
                "scheme": "barycenter", "trials": 1000, "horizon": 1000},
               None),
    "simplex": (_cmd_simplex, "build and archive a collapse tower",
                {"seed": 0, "output": "tower.jsonl", "format": "json", **_WALK,
                 "scheme": "barycenter", "horizon": 100},
                None),
    "weyl": (_cmd_weyl, "matching vs orbit distance table",
             {"seed": 0, "output": "weyl_report.csv", "format": "csv", "n": 4,
              "ensemble": "hermitian", "tol": 1e-8, "trials": 100},
             ("trial", "delta", "d_u", "lower", "gap", "converged")),
    "cuntz": (_cmd_cuntz, "K1-triviality / unit checks over block sizes",
              {"output": "cuntz_report.jsonl", "format": "json", "max_size": 10},
              ("p", "q", "gcd", "k1_trivial", "unit_check")),
    "ktheory": (_cmd_ktheory, "six-term computations",
                {"output": "ktheory_report.jsonl", "format": "json", "max_size": 12},
                ("model", "p", "q", "k0", "k1")),
}

# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def report_summary(path: str) -> int:
    """Print aggregates of a report written by `run`; idempotent.  JSON-lines
    and CSV reports are read into records and aggregated in one pass; a
    malformed report exits 2 and prints nothing."""
    try:
        with open(path) as handle:
            body = [ln for ln in handle.read().split("\n") if ln and not ln.startswith("#")]
    except OSError as exc:
        _error_record(f"cannot read report: {exc}")
        return 2
    lines, gaps, deltas, freqs, where = [], [], [], [], ""
    try:
        if body and body[0].lstrip().startswith("{"):
            records = [json.loads(ln) for ln in body]  # the first is an object
            records = records[1:] if "config" in records[0] else records
        else:
            records = list(csv.DictReader(body))
            if any(None in row or None in row.values() for row in records):
                raise ValueError("a CSV row and the header differ in length")
        for number, rec in enumerate(records, 1):
            where = f"record {number}: "
            if not isinstance(rec, dict):
                raise TypeError(f"{json.dumps(rec)} is not an object")
            if "estimate" in rec:
                lo, hi = rec["ci"]
                lines.append(f"estimate {rec['estimate']:.6f}  ci [{lo:.6f}, {hi:.6f}]  "
                             f"trials {rec.get('trials')}  horizon {rec.get('horizon')}")
            if "gap" in rec:
                gaps.append(abs(float(rec["gap"])))
            if "delta" in rec:
                deltas.append(float(rec["delta"]))
            if "frequency_hit_zero" in rec:
                freqs.append(f"frequency_hit_zero {rec['frequency_hit_zero']:.6f} "
                             f"over {rec['trials']} trials")
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        _error_record(f"malformed report: {where}{exc!r}")
        return 2
    if gaps:
        lines.append(f"max |gap| {max(gaps):.3e}")
    if deltas:
        lines.append(f"mean delta {sum(deltas) / len(deltas):.6f}")
    print(f"{len(records)} records", *lines, *freqs, sep="\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(prog="cstarlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, defaults, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; explicit flags win")
        for key in defaults:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, **_flag_keywords(_KEYS[key]))
    sp = sub.add_parser("summary", help="summarise a report file")
    sp.add_argument("path")
    return parser


def run(argv: list[str]) -> int:
    """Entry point returning the process exit status (0 / 2 / 3)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "summary":
        return report_summary(args.path)
    handler, _, defaults, columns = _COMMANDS[args.command]
    try:
        cfg = _merge_config(args, defaults)
        if cfg["format"] != "csv":
            columns = None
        elif columns is None:
            raise ConfigError(f"{args.command} writes JSON-lines reports only, not csv")
        config, records, status = handler(cfg)
        _atomic_write(cfg["output"], _render(config, records, columns))
        return status
    except ValueError as exc:
        _error_record(str(exc))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
