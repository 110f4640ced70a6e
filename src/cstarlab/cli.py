"""Batch front end: deterministic experiment runs with file reports.

Subcommands
-----------
walk      simulate trajectories, report per-trial hitting/max statistics
sample    Monte-Carlo estimate of the return-to-zero proxy + descriptor
simplex   build one collapse tower and archive it as JSON
weyl      table of (matching distance, orbit distance, gap) over random pairs
cuntz     K1-triviality and unit checks over a range of block sizes
ktheory   six-term computations for the shift algebra and dimension drops
summary   human-readable aggregates of a previously written report

Reports start with a single timestamp header line prefixed '#'; everything
after it is a pure function of the resolved configuration, so re-running
with the same seed gives byte-identical output modulo that line.  JSON
reports are JSON-lines (config record first); CSV reports carry the config
in a second '#' header line.  Exit status: 0 success, 2 invalid
configuration or unreadable input, 3 when numerical non-convergence flags
are present in the report.
"""

from __future__ import annotations

import argparse
import csv
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
from .sampler import (
    classify_trace_space,
    estimate_prob_jiang_su,
    report_record,
    sample_algebra,
)
from .simplex import MeasureScheme, build_tower
from .transport import (
    matching_distance,
    random_hermitian,
    random_normal,
    random_unitary,
    unitary_distance,
)
from .walk import Barrier, InvalidParamsError, UnsupportedBarrierError, WalkParams, sample_trajectory

_SCHEMES = {s.value: s for s in MeasureScheme}
_BARRIERS = {b.value: b for b in Barrier}
_ENSEMBLES = {
    "hermitian": random_hermitian,
    "unitary": random_unitary,
    "normal": random_normal,
}


class ConfigError(ValueError):
    pass


def _error_record(message: str) -> None:
    print(json.dumps({"error": message}, sort_keys=True), file=sys.stderr)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_jsonl(config: dict, records: list[dict]) -> str:
    lines = [f"# generated_at={datetime.now(timezone.utc).isoformat()}"]
    lines.append(json.dumps({"config": config}, sort_keys=True))
    lines.extend(json.dumps(r, sort_keys=True) for r in records)
    return "\n".join(lines) + "\n"


def _render_csv(config: dict, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(f"# generated_at={datetime.now(timezone.utc).isoformat()}\n")
    buf.write(f"# config={json.dumps(config, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolved configuration: defaults < config file < explicit flags."""
    merged = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path) as handle:
                file_cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in defaults:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    return merged


def _walk_params(cfg: dict) -> WalkParams:
    barrier = _BARRIERS.get(cfg["barrier"])
    if barrier is None:
        raise ConfigError(f"barrier must be one of {sorted(_BARRIERS)}")
    initial = cfg.get("initial")
    if initial is None:
        initial = ((int(cfg["start"]), 1.0),)
    else:
        if isinstance(initial, str):
            initial = json.loads(initial)
        initial = tuple((int(s), float(w)) for s, w in initial)
    q = cfg.get("q")
    try:
        return WalkParams(p=float(cfg["p"]), q=None if q is None else float(q),
                          barrier=barrier, initial=initial)
    except InvalidParamsError as exc:
        raise ConfigError(str(exc))


def _scheme(cfg: dict) -> MeasureScheme:
    scheme = _SCHEMES.get(cfg["scheme"])
    if scheme is None:
        raise ConfigError(f"scheme must be one of {sorted(_SCHEMES)}")
    return scheme


def _positive_int(cfg: dict, key: str) -> int:
    value = cfg[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{key} must be >= 1")
    return value


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_walk(args) -> int:
    defaults = {"p": None, "q": None, "barrier": "reflecting", "start": 0,
                "initial": None, "length": 100, "trials": 1, "seed": 0,
                "output": "walk_report.jsonl", "format": "json"}
    cfg = _merge_config(args, defaults)
    if cfg["p"] is None:
        raise ConfigError("--p is required")
    params = _walk_params(cfg)
    trials = _positive_int(cfg, "trials")
    length = _positive_int(cfg, "length")
    seed = int(cfg["seed"])

    records, rows = [], []
    hits = 0
    for t in range(trials):
        traj = sample_trajectory(params, length, seed, trial=t)
        try:
            hit_step = traj.states.index(0, 1)
        except ValueError:
            hit_step = None
        hits += hit_step is not None
        rec = {"trial": t, "start": traj.states[0], "hit_zero_step": hit_step,
               "max_state": traj.max_state, "final_state": traj.states[-1]}
        records.append(rec)
        rows.append([t, traj.states[0], "" if hit_step is None else hit_step,
                     traj.max_state, traj.states[-1]])
    records.append({"summary": True, "trials": trials,
                    "frequency_hit_zero": hits / trials})
    resolved = {**cfg, "initial": [[s, w] for s, w in params.initial], "q": params.q}
    if cfg["format"] == "csv":
        text = _render_csv(resolved, ["trial", "start", "hit_zero_step", "max_state", "final_state"], rows)
    else:
        text = _render_jsonl(resolved, records)
    _atomic_write(cfg["output"], text)
    return 0


def _cmd_sample(args) -> int:
    defaults = {"p": None, "q": None, "barrier": "reflecting", "start": 0,
                "initial": None, "scheme": "barycenter", "trials": 1000,
                "horizon": 1000, "seed": 0, "output": "sample_report.jsonl",
                "format": "json"}
    cfg = _merge_config(args, defaults)
    if cfg["p"] is None:
        raise ConfigError("--p is required")
    params = _walk_params(cfg)
    scheme = _scheme(cfg)
    trials = _positive_int(cfg, "trials")
    horizon = _positive_int(cfg, "horizon")
    seed = int(cfg["seed"])

    result = estimate_prob_jiang_su(params, trials, horizon, seed)
    descriptor, diagnostics = sample_algebra(params, scheme, horizon, seed)
    record = report_record(params, scheme, result, diagnostics)
    if params.barrier is Barrier.REFLECTING:
        record["trace_space_class"] = str(classify_trace_space(params, scheme))
    record["descriptor"] = {
        "unit_class": descriptor.unit_class,
        "finiteness": descriptor.finiteness.value,
        "trace_space": str(descriptor.trace_space),
    }
    resolved = {**cfg, "initial": [[s, w] for s, w in params.initial], "q": params.q}
    _atomic_write(cfg["output"], _render_jsonl(resolved, [record]))
    return 0


def _cmd_simplex(args) -> int:
    defaults = {"p": None, "q": None, "barrier": "reflecting", "start": 0,
                "initial": None, "scheme": "barycenter", "horizon": 100,
                "seed": 0, "output": "tower.jsonl", "format": "json"}
    cfg = _merge_config(args, defaults)
    if cfg["p"] is None:
        raise ConfigError("--p is required")
    params = _walk_params(cfg)
    scheme = _scheme(cfg)
    horizon = _positive_int(cfg, "horizon")
    seed = int(cfg["seed"])

    traj = sample_trajectory(params, horizon + 1, seed)
    states = traj.states
    if params.barrier is Barrier.ABSORBING and 0 in states:
        states = states[: states.index(0) + 1]
    if len(states) < 2:
        raise ConfigError("trajectory too short to build a tower (absorbed immediately)")
    tower = build_tower(list(states), scheme, mix64(seed, 1))
    resolved = {**cfg, "initial": [[s, w] for s, w in params.initial], "q": params.q}
    # to_json is already sorted-key JSON, so splicing it gives the bytes of
    # json.dumps({"tower": ...}, sort_keys=True) without a decode and re-encode
    text = _render_jsonl(resolved, []) + '{"tower": ' + tower.to_json() + "}\n"
    _atomic_write(cfg["output"], text)
    return 0


def _cmd_weyl(args) -> int:
    defaults = {"n": 4, "trials": 100, "seed": 0, "ensemble": "hermitian",
                "tol": 1e-8, "output": "weyl_report.csv", "format": "csv"}
    cfg = _merge_config(args, defaults)
    n = _positive_int(cfg, "n")
    trials = _positive_int(cfg, "trials")
    seed = int(cfg["seed"])
    tol = float(cfg["tol"])
    make = _ENSEMBLES.get(cfg["ensemble"])
    if make is None:
        raise ConfigError(f"ensemble must be one of {sorted(_ENSEMBLES)}")

    rows, records = [], []
    any_flag = False
    for t in range(trials):
        rng = stream(seed, t)
        a, b = make(n, rng), make(n, rng)
        if cfg["ensemble"] == "hermitian":
            delta = matching_distance(np.linalg.eigvalsh(a.array), np.linalg.eigvalsh(b.array))
        else:
            delta = matching_distance(a.spectrum(), b.spectrum())
        res = unitary_distance(a, b, tol, seed=mix64(seed, t))
        any_flag |= not res.converged
        gap = res.value - delta
        rows.append([t, repr(delta), repr(res.value), repr(gap), int(res.converged)])
        records.append({"trial": t, "delta": delta, "d_u": res.value,
                        "gap": gap, "converged": res.converged})
    if cfg["format"] == "csv":
        text = _render_csv(cfg, ["trial", "delta", "d_u", "gap", "converged"], rows)
    else:
        text = _render_jsonl(cfg, records)
    _atomic_write(cfg["output"], text)
    return 3 if any_flag else 0


def _cmd_cuntz(args) -> int:
    defaults = {"max_size": 10, "output": "cuntz_report.jsonl", "format": "json"}
    cfg = _merge_config(args, defaults)
    max_size = _positive_int(cfg, "max_size")

    records, rows = [], []
    for p in range(1, max_size + 1):
        for q in range(p, max_size + 1):
            m0, m1 = cuntz_mod.dimension_drop_boundary_maps(p, q)
            unit = cuntz_mod.dimension_drop_unit(p, q)
            rec = {"p": p, "q": q, "gcd": math.gcd(p, q),
                   "k1_trivial": cuntz_mod.k1_trivial(m0, m1),
                   "unit_check": cuntz_mod.nccw_check(unit)}
            records.append(rec)
            rows.append([p, q, rec["gcd"], int(rec["k1_trivial"]), int(rec["unit_check"])])
    half = cuntz_mod.LscStep.indicator(0, Fraction(1, 2))
    records.append({"dim_function_half_indicator": str(cuntz_mod.dim_function(half))})
    if cfg["format"] == "csv":
        text = _render_csv(cfg, ["p", "q", "gcd", "k1_trivial", "unit_check"], rows)
    else:
        text = _render_jsonl(cfg, records)
    _atomic_write(cfg["output"], text)
    return 0


def _cmd_ktheory(args) -> int:
    defaults = {"max_size": 12, "output": "ktheory_report.jsonl", "format": "json"}
    cfg = _merge_config(args, defaults)
    max_size = _positive_int(cfg, "max_size")

    k0, k1 = ktheory_mod.k_toeplitz()
    records = [{"model": "toeplitz", "k0": str(k0), "k1": str(k1),
                "index_of_shift": ktheory_mod.toeplitz_index_of_shift()}]
    rows = [["toeplitz", "", "", str(k0), str(k1)]]
    for p in range(1, max_size + 1):
        for q in range(p, max_size + 1):
            g0, g1 = ktheory_mod.k_dimension_drop(p, q)
            records.append({"model": "dimension_drop", "p": p, "q": q,
                            "k0": str(g0), "k1": str(g1)})
            rows.append(["dimension_drop", p, q, str(g0), str(g1)])
    if cfg["format"] == "csv":
        text = _render_csv(cfg, ["model", "p", "q", "k0", "k1"], rows)
    else:
        text = _render_jsonl(cfg, records)
    _atomic_write(cfg["output"], text)
    return 0


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def report_summary(path: str) -> int:
    """Print aggregates of a report written by `run`; idempotent."""
    try:
        with open(path) as handle:
            lines = [ln.rstrip("\n") for ln in handle]
    except OSError as exc:
        _error_record(f"cannot read report: {exc}")
        return 2
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        print("0 records")
        return 0
    if body[0].lstrip().startswith("{"):
        return _summarize_jsonl(body)
    return _summarize_csv(body)


def _summarize_jsonl(body: list[str]) -> int:
    try:
        docs = [json.loads(ln) for ln in body]
    except json.JSONDecodeError as exc:
        _error_record(f"malformed JSON report: {exc}")
        return 2
    config = docs[0].get("config") if isinstance(docs[0], dict) else None
    records = docs[1:] if config is not None else docs
    print(f"{len(records)} records")
    for rec in records:
        if "estimate" in rec:
            lo, hi = rec.get("ci", (None, None))
            print(f"estimate {rec['estimate']:.6f}  ci [{lo:.6f}, {hi:.6f}]  "
                  f"trials {rec.get('trials')}  horizon {rec.get('horizon')}")
    gaps = [abs(rec["gap"]) for rec in records if isinstance(rec, dict) and "gap" in rec]
    if gaps:
        print(f"max |gap| {max(gaps):.3e}")
    freqs = [rec for rec in records if isinstance(rec, dict) and "frequency_hit_zero" in rec]
    for rec in freqs:
        print(f"frequency_hit_zero {rec['frequency_hit_zero']:.6f} over {rec['trials']} trials")
    return 0


def _summarize_csv(body: list[str]) -> int:
    try:
        rows = list(csv.reader(body))
    except csv.Error as exc:
        _error_record(f"malformed CSV report: {exc}")
        return 2
    header, data = rows[0], rows[1:]
    print(f"{len(data)} records")
    if "gap" in header and data:
        idx = header.index("gap")
        gaps = [abs(float(r[idx])) for r in data]
        print(f"max |gap| {max(gaps):.3e}")
    if "delta" in header and data:
        idx = header.index("delta")
        vals = [float(r[idx]) for r in data]
        print(f"mean delta {sum(vals) / len(vals):.6f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cstarlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, scheme=False, walk=False, matrix=False, sizes=False):
        sp.add_argument("--config", help="JSON config file; explicit flags win")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--output")
        sp.add_argument("--format", choices=["json", "csv"])
        if walk:
            sp.add_argument("--p", type=float)
            sp.add_argument("--q", type=float)
            sp.add_argument("--barrier", choices=sorted(_BARRIERS))
            sp.add_argument("--start", type=int)
            sp.add_argument("--initial", help="JSON list of [state, weight] pairs")
        if scheme:
            sp.add_argument("--scheme", choices=sorted(_SCHEMES))
        if matrix:
            sp.add_argument("--n", type=int)
            sp.add_argument("--ensemble", choices=sorted(_ENSEMBLES))
            sp.add_argument("--tol", type=float)
        if sizes:
            sp.add_argument("--max-size", dest="max_size", type=int)

    sp = sub.add_parser("walk", help="simulate trajectories")
    common(sp, walk=True)
    sp.add_argument("--length", type=int)
    sp.add_argument("--trials", type=int)

    sp = sub.add_parser("sample", help="estimate the return-to-zero proxy")
    common(sp, walk=True, scheme=True)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--horizon", type=int)

    sp = sub.add_parser("simplex", help="build and archive a collapse tower")
    common(sp, walk=True, scheme=True)
    sp.add_argument("--horizon", type=int)

    sp = sub.add_parser("weyl", help="matching vs orbit distance table")
    common(sp, matrix=True)
    sp.add_argument("--trials", type=int)

    sp = sub.add_parser("cuntz", help="K1-triviality / unit checks over block sizes")
    common(sp, sizes=True)

    sp = sub.add_parser("ktheory", help="six-term computations")
    common(sp, sizes=True)

    sp = sub.add_parser("summary", help="summarise a report file")
    sp.add_argument("path")
    return parser


_HANDLERS = {
    "walk": _cmd_walk,
    "sample": _cmd_sample,
    "simplex": _cmd_simplex,
    "weyl": _cmd_weyl,
    "cuntz": _cmd_cuntz,
    "ktheory": _cmd_ktheory,
}


def run(argv: list[str]) -> int:
    """Entry point returning the process exit status (0 / 2 / 3)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "summary":
        return report_summary(args.path)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, InvalidParamsError, UnsupportedBarrierError, ValueError) as exc:
        _error_record(str(exc))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
