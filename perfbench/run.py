"""Benchmark of the lacuna package: one workload per run.

    python3 perfbench/run.py --workload {growth,czd,solver,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and from nowhere else.  The workload's inputs are
generated from ``--seed``.  Every output is checked.

``--trace 0`` times whole passes over the workload's items.  A run times
``--seconds`` over the workload's nominal pass time (``pass_s``, at the
reference speed) passes, rounded and at least one, so that the work in a
run does not depend on the host's speed.  When that is more than one pass,
an untimed warm-up pass comes first: the first pass in a process runs on a
fresh heap (on ``growth`` it was about a fifth faster than the passes after
it), and a run mixing the two would report a median that depends on how
many passes it held.  It reports the end-to-end metrics:

* ``setup_s``      median over five set-ups (this process and four fresh ones)
                   of the time from process start to the first timed call:
                   imports, input generation and input files;
* ``wall_s``       median pass time;
* ``item_p50_ms``, ``item_p90_ms``  per-item latency percentiles.  On ``czd``
                   an item is one ensemble member (150 per pass); the other
                   workloads have too few items for a percentile, so there
                   the item is the whole pass;
* ``peak_rss_mb``  peak resident memory of this process.

Every time above but ``setup_s`` is wall time rescaled to one reference
processor speed.  On a shared host the processor's speed changes from one
minute to the next (on a two-vCPU virtual machine a fixed piece of work took
up to 1.5 times its fastest time within 25 seconds).  While the items run, a
timer signal runs a fixed speed probe (``SpeedProbe``) every 50 ms, and one
more runs just before and just after each item; an item's time is multiplied
by ``PROBE_REF`` over the median probe time from its start to its end.  The
probes cost about 3% of the run.  The unrescaled pass times are printed on
the ``raw pass seconds`` line.  Set-up, mostly imports, is plain wall time:
rescaling it, by probes run right after it or by the passes' probes, did not
keep its median over ten runs steadier between sets of runs of the same code
(it moved by up to 30% either way).

``--trace 1`` runs one untraced pass, then one pass with every lacuna layer
wrapped from outside (see ``tracer.py``), checks that both passes wrote
identical report bytes, and reports the per-layer metrics with the tracing
overhead (traced over untraced pass time).  Neither pass runs the speed
probe, whose FFT would count in the ``spectral.fft`` metrics, and no time in
the per-layer metrics is rescaled.  The spans are written to
``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every check passed, 1 when one failed, 2 when the program is missing.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUPS = 5
sys.path.insert(0, HERE)

from tracer import LAYERS, PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_p90_ms", "ms"), ("peak_rss_mb", "MB"))
PROBE_EVERY = 0.05  # seconds between timer-driven speed probes
PROBE_REF = 0.0015  # seconds one probe takes at the reference speed
_PROBE_Z = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 1 << 16))


class SpeedProbe:
    """Times a fixed piece of work that shares nothing with lacuna: one
    2^16-point inverse FFT, whose 2 MiB of input and output fill the L2 cache.

    Of the probes tried (an interpreter loop, FFTs of 2^15, 2^16 and 2^18
    points, and an interpreter loop with a 2^15-point FFT), this one followed
    the pass times of growth, solver and verify most closely over repeated
    runs.  Used as a context manager it also runs the probe from a SIGALRM
    timer every ``PROBE_EVERY`` seconds, so that items lasting seconds are
    sampled throughout and not only at their ends.  The handler runs between bytecodes of the main thread, never
    inside a numpy call.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def probe(self) -> None:
        t0 = time.perf_counter()
        np.fft.ifft(_PROBE_Z)
        self.samples.append(time.perf_counter() - t0)

    def factor(self, since: int) -> float:
        """Rescaling factor for the time since sample ``since``."""
        return PROBE_REF / statistics.median(self.samples[since:])

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class ProgramMissing(Exception):
    pass


def load_lacuna() -> types.SimpleNamespace:
    """Import lacuna from this checkout's ``src/`` and return its modules."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lacuna", "__init__.py")):
        raise ProgramMissing(f"no lacuna package under {src}")
    sys.path.insert(0, src)
    package = importlib.import_module("lacuna")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != src:
        raise ProgramMissing(f"lacuna was imported from {package.__file__}, not {src}")
    modules = {name: importlib.import_module(f"lacuna.{name}") for name in LAYERS}
    return types.SimpleNamespace(package=package, **modules)


def set_up(workload, seed: int, workdir: str) -> tuple:
    lac = load_lacuna()
    os.makedirs(workdir, exist_ok=True)
    return lac, workload.setup(lac, seed, workdir)


def child_setups(args, count: int) -> list:
    """Set-up times of fresh processes, run one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_pass(items, checks: Checks, probe=None) -> tuple:
    """Time each item once; check its result outside the timed call.

    Returns (item times, item times as reported, this pass's report bytes),
    each by item label.  The reported times are rescaled by ``probe`` (a
    ``SpeedProbe``) when one is given and are the item times otherwise.
    """
    raw, scaled, mine = {}, {}, {}
    if probe is not None:
        probe.probe()
    for item in items:
        since = len(probe.samples) - 1 if probe is not None else 0
        t0 = time.perf_counter()
        try:
            try:
                result = item.run()
            finally:
                raw[item.label] = time.perf_counter() - t0
                scaled[item.label] = raw[item.label]
                if probe is not None:
                    probe.probe()
                    scaled[item.label] *= probe.factor(since)
            report, head = item.finish(result, checks)
        except Exception as err:  # a crash is a failed check, not a lost run
            checks.check(False, f"{item.label}.crashed", repr(err))
            continue
        del result  # one item's result alive at a time keeps peak memory honest
        mine[item.label] = report
        if item.label in checks.reports:
            checks.check(checks.reports[item.label] == report,
                         f"{item.label}.deterministic")
        else:
            checks.reports[item.label] = report
            checks.headline.update(head)
    return raw, scaled, mine


def check_reference(name: str, seed: int, checks: Checks) -> None:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh).get(name)
    if ref is None or ref["seed"] != seed:
        return
    for key, want in sorted(ref["values"].items()):
        got = checks.headline.get(key)
        ok = got is not None and abs(got - want) <= ref["rtol"] * abs(want)
        checks.check(ok, f"reference.{key}", f"{got!r} vs {want!r} (rtol {ref['rtol']:g})")


def machine(workload) -> dict:
    def sysconf(code: int):
        try:
            return os.sysconf(code)
        except (ValueError, OSError):
            return None

    # glibc sysconf numbers of _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "l2_cache_bytes": sysconf(191),
            "l3_cache_bytes": sysconf(194), "threads": workload.threads}


def percentile(values: list, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, and exit")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        try:
            lac, items = set_up(workload, args.seed, workdir)
        except ProgramMissing as err:
            sys.stderr.write(f"perfbench: {err}\n")
            return 2
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        checks = Checks()
        if args.trace:
            metrics = traced_run(args, workload, lac, items, checks)
        else:
            metrics = timed_run(args, workload, items, checks, setup_s)
        check_reference(args.workload, args.seed, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine: " + json.dumps(machine(workload), sort_keys=True))
    print("headline: " + json.dumps(checks.headline, sort_keys=True))
    for failure in checks.failures:
        sys.stderr.write(f"FAILED {failure}\n")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 1 if checks.failures else 0


def timed_run(args, workload, items, checks: Checks, setup_s: float) -> dict:
    passes, item_times, raw_passes = [], [], []
    count = max(1, round(args.seconds / workload.pass_s))
    if count > 1:
        run_pass(items, checks)  # warm-up, checked but not timed
    with SpeedProbe() as probe:
        for _ in range(count):
            raw, scaled, _ = run_pass(items, checks, probe)
            if not passes:
                print("items: " + json.dumps(scaled))
            passes.append(sum(scaled.values()))
            raw_passes.append(sum(raw.values()))
            item_times.extend(scaled.values())
    print("raw pass seconds: " + json.dumps(raw_passes))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + child_setups(args, SETUPS - 1)
    latencies = item_times if workload.short_items else passes
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(passes),
        "item_p50_ms": 1e3 * percentile(latencies, 50),
        "item_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(args, workload, lac, items, checks: Checks) -> dict:
    base, _, _ = run_pass(items, checks)
    tracer = Tracer()
    tracer.install(lac)
    try:
        times, _, traced = run_pass(items, checks)
    finally:
        tracer.uninstall()
    if workload.via_cli:
        tracer.counters["cli.report_bytes"] += sum(len(r) for r in traced.values())
    values = layer_metrics(tracer)
    values["bench.trace_overhead"] = sum(times.values()) / sum(base.values())
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
