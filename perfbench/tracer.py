"""Out-of-program tracing for the benchmark's traced run.

``Tracer.install`` wraps every public function and method of the lacuna
layer modules, plus the ``numpy.fft`` transforms, and rebinds each wrapper
wherever a lacuna module holds the original.  A wrapper records one span
(name, start, end, parent) in compact in-memory arrays; hooks add counters
at the same boundaries.  ``Tracer.uninstall`` puts every original back.

``layer_metrics`` turns the spans into the per-layer metrics: counts, and
self times, where a span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# the lacuna modules whose public callables become spans; ``dyadic`` is left
# out on purpose: its scalar arithmetic is too fine-grained to trace, so its
# cost shows up as the self time of its callers in ``lacunary``
LAYERS = ("lacunary", "spectral", "orlicz", "czd", "martingale",
          "multipliers", "harness", "cli")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
# spans whose inverse transforms make up a band loop (for band_fill)
BAND_LOOPS = ("spectral.lp_square_function", "multipliers.SharpnessFamily.square_aggregate")
# spans a hook asks about while they are open
WATCHED = BAND_LOOPS + ("lacunary.lambda_tau",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.nids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._next_id = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []
        self.open_watched: dict[int, str] = {}

    # -- span recording ---------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, hook=None):
        nid = self.intern(name)
        watched = name in WATCHED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread starts with an empty stack: its spans belong to
            # whatever span of the main thread is open when they run
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            sid = next(self._next_id)
            stack.append(sid)
            if watched:
                self.open_watched[sid] = name
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if watched:
                    del self.open_watched[sid]
                with self._lock:
                    self.ids.append(sid)
                    self.nids.append(nid)
                    self.parents.append(parent)
                    self.starts.append(t0)
                    self.ends.append(t1)
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, lac) -> None:
        """Wrap and rebind; ``lac`` is the namespace of imported lacuna modules."""
        modules = [getattr(lac, name) for name in LAYERS] + [lac.package]
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(lac, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", obj,
                                                   HOOKS.get(f"{layer}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        for name in FFT_FUNCS:
            fn = getattr(np.fft, name)
            self._patch(np.fft, name, self.wrap(f"numpy.fft.{name}", fn, _fft_hook))

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(name, raw, HOOKS.get(name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def spans(self) -> dict:
        """Span arrays indexed by span id (ids are dense once all spans closed)."""
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64), kind="stable")
        return {
            "nid": np.frombuffer(self.nids, dtype=np.int32)[order],
            "parent": np.frombuffer(self.parents, dtype=np.int64)[order],
            "start": np.frombuffer(self.starts, dtype=np.float64)[order],
            "end": np.frombuffer(self.ends, dtype=np.float64)[order],
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(sp: dict) -> np.ndarray:
    """Duration minus the union of the child intervals, per span."""
    start, end, parent = sp["start"], sp["end"], sp["parent"]
    covered = np.zeros(start.size)
    order = np.lexsort((start, parent))
    cur_parent, reach = -2, 0.0
    for i in order[np.searchsorted(parent[order], 0):].tolist():
        p = int(parent[i])
        if p != cur_parent:
            cur_parent, reach = p, float(start[i])
        s, e = float(start[i]), float(end[i])
        if e > reach:
            covered[p] += e - max(s, reach)
            reach = e
    return (end - start) - covered


# -- counter hooks ------------------------------------------------------------


def _fft_hook(tr: Tracer, parent, args, result) -> None:
    a = np.asarray(args[0])
    tr.counters["spectral.fft.points"] += a.size
    tr.counters["spectral.fft.bytes_computed"] += a.nbytes + np.asarray(result).nbytes
    if tr.open_watched.get(parent) in BAND_LOOPS:
        tr.counters["band.kept"] += np.count_nonzero(a)
        tr.counters["band.points"] += a.size


def _count(key: str, measure):
    def hook(tr: Tracer, parent, args, result) -> None:
        tr.counters[key] += measure(args, result)
    return hook


def _young_hook(tr: Tracer, parent, args, result) -> None:
    t = np.asarray(args[1])
    tr.counters["orlicz.young.points"] += t.size
    tr.counters["young.nonzero"] += np.count_nonzero(t)


def _solve_hook(tr: Tracer, parent, args, result) -> None:
    tr.counters["martingale.iterations"] += result.iterations
    # the solver only leaves its loop unconverged when it hits the cap
    tr.counters["solve.capped"] += not result.converged


def _intervals_hook(tr: Tracer, parent, args, result) -> None:
    if tr.open_watched.get(parent) != "lacunary.lambda_tau":  # outermost only
        tr.counters["lacunary.intervals"] += len(result)


def _io_size(args, result) -> int:
    return os.path.getsize(args[0])


HOOKS = {
    "lacunary.lambda_tau": _intervals_hook,
    "czd.cz_decompose": _count("czd.atoms", lambda a, r: len(r.atoms)),
    "martingale.decompose_quotient_norm": _solve_hook,
    "multipliers.SharpnessFamily.square_aggregate":
        _count("multipliers.components", lambda a, r: len(a[0].pairs)),
    "harness.weak_type_ratio": _count("harness.weak_type_ratio.levels",
                                      lambda a, r: r["levels"]),
    "orlicz.YoungFunction.__call__": _young_hook,
    "spectral.read_signal": _count("spectral.io.bytes", _io_size),
    "spectral.write_signal": _count("spectral.io.bytes", _io_size),
}


# -- per-layer metrics -----------------------------------------------------------

_FFT = tuple(f"numpy.fft.{f}" for f in FFT_FUNCS)
SELF = {  # self time summed over the listed spans
    "lacunary.lac_tau.s": ("lacunary.lac_tau",),
    "lacunary.lambda_tau.s": ("lacunary.lambda_tau", "lacunary.whitney"),
    "spectral.fft.s": _FFT,
    "spectral.band_indices.s": ("spectral.band_indices",),
    "spectral.spectrum.s": ("spectral.spectrum",),
    "spectral.synthesize.s": ("spectral.synthesize",),
    "spectral.sqfn.s": ("spectral.lp_square_function",),
    "spectral.io.s": ("spectral.read_signal", "spectral.write_signal"),
    "orlicz.luxemburg.s": ("orlicz.luxemburg_avg",),
    "orlicz.luxemburg_rows.s": ("orlicz.luxemburg_avg_rows",),
    "orlicz.young.s": ("orlicz.YoungFunction.__call__",),
    "czd.decompose.s": ("czd.cz_decompose",),
    "czd.stopping.s": ("czd.stopping_intervals",),
    "czd.remove_lacunary.s": ("czd.remove_lacunary",),
    "czd.lacunary_frequencies.s": ("czd.lacunary_frequencies",),
    "czd.windowed_coefficient.s": ("czd.windowed_coefficient",),
    "martingale.solve.s": ("martingale.decompose_quotient_norm",),
    "martingale.project.s": ("martingale.project_to_constraint",),
    "multipliers.square_aggregate.s": ("multipliers.SharpnessFamily.square_aggregate",),
    "multipliers.family_build.s": ("multipliers.build_sharpness_family",),
    "multipliers.aggregate_at.s": ("multipliers.SharpnessFamily.square_aggregate_at",),
    "multipliers.apply.s": ("multipliers.apply_multiplier",
                            "multipliers.StepMultiplier.symbol_for"),
    "harness.weak_type_ratio.s": ("harness.weak_type_ratio",),
    "cli.main.s": ("cli.main",),
}
CALLS = {  # number of spans with the listed names
    "lacunary.lac_tau.calls": ("lacunary.lac_tau",),
    "lacunary.lambda_tau.calls": ("lacunary.lambda_tau",),
    "spectral.fft.calls": _FFT,
    "spectral.band_indices.calls": ("spectral.band_indices",),
    "orlicz.luxemburg.calls": ("orlicz.luxemburg_avg",),
    "orlicz.young.calls": ("orlicz.YoungFunction.__call__",),
    "czd.decompose.calls": ("czd.cz_decompose",),
    "czd.lacunary_frequencies.calls": ("czd.lacunary_frequencies",),
    "czd.windowed_coefficient.calls": ("czd.windowed_coefficient",),
    "martingale.solve.calls": ("martingale.decompose_quotient_norm",),
    "multipliers.apply.calls": ("multipliers.apply_multiplier",),
    "harness.weak_type_ratio.calls": ("harness.weak_type_ratio",),
}
COUNTERS = ("lacunary.intervals", "spectral.fft.points", "spectral.fft.bytes_computed",
            "spectral.io.bytes", "orlicz.young.points", "czd.atoms",
            "martingale.iterations", "multipliers.components",
            "harness.weak_type_ratio.levels", "cli.report_bytes")


def _spec(name: str) -> tuple:
    if name.endswith((".s", "self_s")):
        return name, "s", "lower"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return name, "bytes", "lower"
    if name in ("spectral.band_fill", "orlicz.young.nonzero_frac"):
        return name, "ratio", "higher"  # useful share of the work done
    if name in ("martingale.capped_frac", "bench.trace_overhead"):
        return name, "ratio", "lower"
    if name == "martingale.luxemburg_per_iter":
        return name, "calls/iter", "lower"
    return name, "count", "lower"


# (name, unit, better) in print order
PER_LAYER = [_spec(name) for name in (
    "lacunary.lac_tau.calls", "lacunary.lac_tau.s", "lacunary.lambda_tau.calls",
    "lacunary.lambda_tau.s", "lacunary.intervals",
    "spectral.fft.calls", "spectral.fft.points", "spectral.fft.s",
    "spectral.fft.bytes_computed", "spectral.band_indices.calls",
    "spectral.band_indices.s", "spectral.band_fill", "spectral.spectrum.s",
    "spectral.synthesize.s", "spectral.sqfn.s", "spectral.io.s", "spectral.io.bytes",
    "orlicz.luxemburg.calls", "orlicz.luxemburg.s", "orlicz.luxemburg_rows.s",
    "orlicz.young.calls", "orlicz.young.points", "orlicz.young.nonzero_frac",
    "orlicz.young.s",
    "czd.decompose.calls", "czd.decompose.s", "czd.stopping.s",
    "czd.remove_lacunary.s", "czd.lacunary_frequencies.calls",
    "czd.lacunary_frequencies.s", "czd.windowed_coefficient.calls",
    "czd.windowed_coefficient.s", "czd.atoms",
    "martingale.solve.calls", "martingale.solve.s", "martingale.iterations",
    "martingale.capped_frac", "martingale.luxemburg_per_iter", "martingale.project.s",
    "multipliers.square_aggregate.s", "multipliers.components",
    "multipliers.family_build.s", "multipliers.aggregate_at.s",
    "multipliers.apply.calls", "multipliers.apply.s",
    "harness.weak_type_ratio.calls", "harness.weak_type_ratio.s",
    "harness.weak_type_ratio.levels", "harness.self_s",
    "cli.main.s", "cli.report_bytes",
    "bench.trace_overhead",
)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric except the tracing overhead, by name."""
    sp = tr.spans()
    own = self_times(sp)
    nid = sp["nid"]
    self_by = np.bincount(nid, weights=own, minlength=len(tr.names))
    calls_by = np.bincount(nid, minlength=len(tr.names))

    def total(per_name, names) -> float:
        # a name the program no longer defines was never wrapped: it adds 0
        return sum(per_name[tr.name_ids[n]] for n in names if n in tr.name_ids)

    out: dict = {}
    for metric, names in SELF.items():
        out[metric] = float(total(self_by, names))
    for metric, names in CALLS.items():
        out[metric] = int(total(calls_by, names))
    for key in COUNTERS:
        out[key] = tr.counters.get(key, 0)
    out["spectral.band_fill"] = _ratio(tr.counters.get("band.kept", 0),
                                       tr.counters.get("band.points", 0))
    out["orlicz.young.nonzero_frac"] = _ratio(tr.counters.get("young.nonzero", 0),
                                              out["orlicz.young.points"])
    solves = out["martingale.solve.calls"]
    out["martingale.capped_frac"] = _ratio(tr.counters.get("solve.capped", 0), solves)
    # Luxemburg calls with a solver span among their ancestors
    solve_id = tr.name_ids.get("martingale.decompose_quotient_norm", -1)
    lux = np.nonzero(nid == tr.name_ids.get("orlicz.luxemburg_avg", -1))[0]
    anc = sp["parent"][lux]
    under = np.zeros(lux.size, dtype=bool)
    while np.any(anc >= 0):
        live = anc >= 0
        under[live] |= nid[anc[live]] == solve_id
        anc = np.where(live, sp["parent"][np.maximum(anc, 0)], -1)
    out["martingale.luxemburg_per_iter"] = _ratio(int(under.sum()),
                                                  out["martingale.iterations"])
    harness = [i for i, n in enumerate(tr.names)
               if n.startswith("harness.") and n != "harness.weak_type_ratio"]
    out["harness.self_s"] = float(sum(self_by[i] for i in harness))
    return out
