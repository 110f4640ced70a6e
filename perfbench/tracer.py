"""Span tracing of cstarlab from outside the package.

`Tracer.install()` replaces every public function of each cstarlab module,
and every public method of the classes those modules define, with a thin
wrapper that records a span.  Names that other modules imported (for
example `cstarlab.sampler.batch_hits_zero` or `cstarlab.walk.stream`) are
replaced too, so spans nest from `cli` through `sampler` and `walk` down to
`rng`.  `uninstall()` puts the original objects back.  Wrappers return
whatever the wrapped call returned and let every exception through.

Spans (name, start, end, parent, job id) are kept in compact in-memory
arrays and written out once, by `write`.  Self time (a span's duration
minus the time its child spans cover), layer busy time (time during which
at least one span of the layer is open) and per-function-group inclusive
time are accumulated while spans close, so reading the per-layer metrics
needs no pass over the spans.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import math
import os
import time
from array import array
from collections import defaultdict

LAYERS = ("rng", "walk", "sampler", "simplex", "transport",
          "intlinalg", "ktheory", "cuntz", "cli")

#: function groups with their own inclusive time, keyed by qualified name
GROUPS = {
    "rng.stream": "rng.stream",
    "simplex.build_tower": "simplex.build",
    "simplex.SimplexTower.to_json": "simplex.archive",
    "simplex.SimplexTower.from_json": "simplex.archive",
    "simplex.pushdown": "simplex.pushdown",
    "simplex.covering_radius": "simplex.covering",
    "transport.unitary_distance": "transport.orbit",
    "transport.matching_distance": "transport.matching",
    "transport.wasserstein_inf": "transport.winf",
    "transport.winf_pair": "transport.winf",
    "intlinalg.smith_normal_form": "intlinalg.snf",
}


class DeadlineExceeded(BaseException):
    """Raised in the main thread when a job passes its deadline.

    Derived from BaseException so that no handler inside the program that
    catches `Exception` or `ValueError` can swallow it.
    """


def _philox_words(gen) -> int:
    """64-bit words a Philox-backed Generator has handed out so far."""
    state = gen.bit_generator.state["state"]
    return int(state["counter"][0]) * 4 - 4 + int(gen.bit_generator.state["buffer_pos"])


def _int_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.entries for x in row), default=0)


class Tracer:
    """Installs span-recording wrappers and accumulates per-layer figures."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"cstarlab.{name}") for name in LAYERS}
        self._patches: list[tuple[object, str, object, object]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.recording = False
        self.job_id = -1
        # span storage
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open-span stack: [span index, layer, group, start, child time]
        self._stack: list[list] = []
        self._layer_depth: dict[str, int] = defaultdict(int)
        self._group_depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.group_calls: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._pending: list[tuple] = []
        self._deadline_layers: set[str] = set()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        originals: dict[int, object] = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, (BaseException, enum.Enum))):
                    self._patch_class(obj, layer)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, name, obj, wrapper))
                    setattr(mod, name, wrapper)

    def _patch_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                new = classmethod(self._wrap(attr.__func__, layer, qual))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, layer, qual))
            elif inspect.isfunction(attr):
                new = self._wrap(attr, layer, qual)
            else:
                continue
            self._patches.append((cls, name, attr, new))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------

    def _name_id(self, qual: str) -> int:
        idx = self._name_ids.get(qual)
        if idx is None:
            idx = self._name_ids[qual] = len(self._names)
            self._names.append(qual)
        return idx

    def _wrap(self, fn, layer: str, qual: str):
        name_id = self._name_id(qual)
        group = GROUPS.get(qual)
        post = _POST_HOOKS.get(qual)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._open(name_id, layer, group)
            try:
                result = fn(*args, **kwargs)
            except DeadlineExceeded:
                tracer._deadline_layers.add(layer)
                tracer._close(frame)
                raise
            except BaseException:
                tracer._close(frame)
                raise
            tracer._close(frame)
            if post is not None:
                # counts are read at job end, outside the job's timed region
                tracer._pending.append((post, args, kwargs, result, tracer.caller_layer()))
            return result

        return wrapper

    def _open(self, name_id: int, layer: str, group: str | None) -> list:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self.job_id)
        self.span_end.append(math.nan)
        frame = [idx, layer, group, 0.0, 0.0]
        self._layer_depth[layer] += 1
        if group is not None:
            self._group_depth[group] += 1
        self._stack.append(frame)
        frame[3] = now = time.perf_counter()
        self.span_start.append(now)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        idx, layer, group, start, child = frame
        # frames above this one were orphaned by a deadline that fired inside _open
        while self._stack and self._stack.pop() is not frame:
            pass
        self.span_end[idx] = end
        dur = end - start
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.busy_s[layer] += dur
            self.layer_calls[layer] += 1
        if group is not None:
            self._group_depth[group] -= 1
            if self._group_depth[group] == 0:
                self.group_s[group] += dur
                self.group_calls[group] += 1

    # -- per-job bookkeeping ----------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self._deadline_layers.clear()
        self.recording = True

    def end_job(self) -> set[str]:
        """Stop recording; return the layers a deadline overrun passed through."""
        self.recording = False
        # all empty unless a deadline fired inside the tracer's own bookkeeping
        self._stack.clear()
        self._layer_depth.clear()
        self._group_depth.clear()
        for post, args, kwargs, result, caller in self._pending:
            post(self, caller, args, kwargs, result)
        self._pending.clear()
        return set(self._deadline_layers)

    def caller_layer(self) -> str:
        return self._stack[-1][1] if self._stack else "bench"

    # -- output ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            job=np.frombuffer(self.span_job, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# counts read from arguments and return values at layer boundaries
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _post_stream(tracer, caller, args, kwargs, gen):
    # read after the job, so the counter holds every draw the caller made
    tracer.counts[f"{caller}.uniforms"] += _philox_words(gen)


def _post_hits(tracer, caller, args, kwargs, result):
    tracer.counts["walk.trials"] += int(_arg(args, kwargs, 2, "trials"))


def _post_sup(tracer, caller, args, kwargs, result):
    _, resolved = result
    tracer.counts["walk.trials"] += int(resolved.size)
    tracer.counts["walk.sup_trials"] += int(resolved.size)
    tracer.counts["walk.sup_resolved"] += int(resolved.sum())


def _post_trajectory(tracer, caller, args, kwargs, result):
    tracer.counts["walk.trials"] += 1


def _post_build(tracer, caller, args, kwargs, tower):
    tracer.counts["simplex.levels"] += len(tower.dims)
    tracer.counts["simplex.collapse_floats"] += sum(
        len(m.vector) for m in tower.maps if m.vector is not None)


def _post_to_json(tracer, caller, args, kwargs, text):
    tracer.counts["simplex.archive_bytes"] += len(text)


def _post_from_json(tracer, caller, args, kwargs, tower):
    tracer.counts["simplex.archive_bytes"] += len(_arg(args, kwargs, 1, "text"))


def _post_grid(tracer, caller, args, kwargs, grid):
    tracer.counts["simplex.grid_points"] += int(grid.shape[0])


def _post_orbit(tracer, caller, args, kwargs, res):
    tracer.counts["transport.orbit_iterations"] += res.iterations
    tracer.counts["transport.orbit_starts"] += res.n_starts
    tracer.counts["transport.orbit_converged"] += int(res.converged)


def _post_matching(tracer, caller, args, kwargs, value):
    a = _arg(args, kwargs, 0, "a")
    n = len(getattr(a, "values", a))
    tracer.counts["transport.matching_pairs"] += n * n


def _post_winf(tracer, caller, args, kwargs, value):
    mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
    tracer.counts["transport.winf_atoms"] += math.lcm(mu.common_denominator(),
                                                      nu.common_denominator())


def _post_snf(tracer, caller, args, kwargs, snf):
    m = _arg(args, kwargs, 0, "m")
    tracer.counts["intlinalg.snf_entries"] += m.rows * m.cols
    bits = max(_int_bits(snf.u), _int_bits(snf.d), _int_bits(snf.v))
    tracer.counts["intlinalg.snf_max_bits"] = max(tracer.counts["intlinalg.snf_max_bits"], bits)


def _post_cli(tracer, caller, args, kwargs, status):
    argv = list(_arg(args, kwargs, 0, "argv"))
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            tracer.counts["cli.report_bytes"] += os.path.getsize(path)


_POST_HOOKS = {
    "rng.stream": _post_stream,
    "walk.batch_hits_zero": _post_hits,
    "walk.batch_sup": _post_sup,
    "walk.sample_trajectory": _post_trajectory,
    "simplex.build_tower": _post_build,
    "simplex.SimplexTower.to_json": _post_to_json,
    "simplex.SimplexTower.from_json": _post_from_json,
    "simplex.barycentric_grid": _post_grid,
    "transport.unitary_distance": _post_orbit,
    "transport.matching_distance": _post_matching,
    "transport.wasserstein_inf": _post_winf,
    "intlinalg.smith_normal_form": _post_snf,
    "cli.run": _post_cli,
}
