"""One benchmark run: set-up, the timed loop, the exactness verdicts and the metrics.

The timed phase repeats the workload's rep until ``--seconds`` of rep time
is spent.  The first rep's views go through the workload's exactness
gate; every later rep must reproduce them exactly.  An op fails when it
raises, when its view cannot be formed, when the gate rejects it, or when
it differs from the first rep.  End-to-end metrics come from untraced
reps only; a traced run alternates untraced and traced reps, so that the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import importlib.util
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import tracing, workloads

LIBRARY_MODULES = ("core", "analysis", "transforms", "families", "closedform",
                   "dynamics", "gamedoc", "cli")
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def import_library(root: Path, fresh: bool) -> SimpleNamespace:
    """The toolkit's modules plus the frozen definition oracles of its tests.

    With ``fresh``, previously imported toolkit modules are dropped first,
    so that the import is paid again.  The oracles are loaded after the
    toolkit because they compare its enum members by identity.
    """
    if fresh:
        for name in [n for n in sys.modules if n == "selfishlevel" or n.startswith("selfishlevel.")]:
            del sys.modules[name]
    modules = {name: importlib.import_module(f"selfishlevel.{name}") for name in LIBRARY_MODULES}
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return SimpleNamespace(**modules, oracles=oracles)


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic: the host's current speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 80_001):
        total += Fraction(k % 7 + 1, k % 11 + 2)
        if k % 1000 == 0:
            total = Fraction(total.numerator % 1009, total.denominator)
    return time.perf_counter() - start


class GcMonitor:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self):
        self.collections = 0
        self.pause = 0.0
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.pause += time.perf_counter() - self._started


@dataclass
class Rep:
    traced: bool
    wall: float
    cpu: float
    gc_collections: int
    gc_pause: float
    latencies: list[float]
    digests: dict
    errors: dict
    layers: dict | None = None


def _digest(view) -> str:
    return hashlib.sha256(repr(view).encode()).hexdigest()


def run_rep(workload, monitor: GcMonitor, tracer=None, views: dict | None = None) -> Rep:
    """One timed rep.  Views are reduced to digests, and kept in ``views`` if given."""
    state, latencies, errors, digests = {}, [], {}, {}
    if tracer is not None:
        tracer.reset()
    gc_before = monitor.collections, monitor.pause
    with tracer.installed() if tracer is not None else nullcontext():
        cpu = time.process_time()
        start = time.perf_counter()
        for op in workload.ops:
            if tracer is not None:
                tracer.op = op.key
            began = time.perf_counter()
            try:
                state[op.key] = op.run(state)
            except Exception as exc:  # a raising op is a failed op, not a failed run
                errors[op.key] = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - began)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
    for op in workload.ops:
        if op.key in state:
            try:
                view = op.view(state.pop(op.key))
            except Exception as exc:  # e.g. a CLI call that exited non-zero
                errors[op.key] = f"{type(exc).__name__}: {exc}"
                continue
            digests[op.key] = _digest(view)
            if views is not None:
                views[op.key] = view
    layers = tracer.layer_metrics(workload.games_per_rep) if tracer is not None else None
    return Rep(tracer is not None, wall, cpu, monitor.collections - gc_before[0],
               monitor.pause - gc_before[1], latencies, digests, errors, layers)


@dataclass
class Measurement:
    reps: list[Rep] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)
    count_mismatches: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def measure(workload, seconds: float, monitor: GcMonitor, tracer=None) -> Measurement:
    """Repeat the workload's rep (untraced, then traced when tracing) for ``seconds``."""
    result = Measurement()
    kinds = (None, tracer) if tracer is not None else (None,)
    min_rounds = 2 if tracer is not None else 1  # two traced reps to compare counts
    first, verdicts = None, {}
    rounds: list[float] = []
    while True:
        spent = 0.0
        for rep_tracer in kinds:
            views = {} if first is None else None
            rep = run_rep(workload, monitor, rep_tracer, views)
            spent += rep.wall
            if first is None:
                first = rep.digests
                gate = workload.check(views)
                verdicts = {op.key: rep.errors.get(op.key) or gate.get(op.key)
                            for op in workload.ops}
                result.sizes = workload.sizes(views)
                del views
            for op in workload.ops:
                key = op.key
                message = rep.errors.get(key) or verdicts[key]
                if message is None and rep.digests.get(key) != first.get(key):
                    message = "output differs from the first rep"
                result.attempted += 1
                if message is not None:
                    result.failed += 1
                    result.failures.setdefault(key, message)
            result.reps.append(rep)
        rounds.append(spent)
        if len(rounds) >= min_rounds and sum(rounds) + statistics.median(rounds) > seconds:
            break
    traced = [rep.layers for rep in result.reps if rep.traced]
    for name in sorted(traced[0]) if traced else ():
        values = {layers[name] for layers in traced}
        if tracing.is_exact(name) and len(values) > 1:
            result.count_mismatches.append(f"{name}: {sorted(values)}")
    return result


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between the closest ranks of the sorted values."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> float:
    """Highest percentile of the ladder that leaves ten samples beyond it.

    The samples are the workload's distinct ops, so every run of a workload
    reports the same percentile however many reps fit in its time.
    """
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            return p
    return 50.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "seed": seed, "commit": _commit(root)}


def _set_up(root: Path, name: str, seed: int, scale: str, fresh: bool):
    lib = import_library(root, fresh)
    workload = workloads.WORKLOADS[name](lib, seed, scale)
    warm = workloads.WORKLOADS[name](lib, seed, workloads.TOY)
    state = {}
    for op in warm.ops:
        try:
            state[op.key] = op.run(state)
        except Exception:  # warm-up results are not judged; the timed reps are
            pass
    return lib, workload


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Set up, measure and check one workload; returns the run's full record."""
    monitor = GcMonitor()
    gc.callbacks.append(monitor)
    try:
        calib_before = calibrate()
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            began = time.perf_counter()
            lib, workload = _set_up(root, name, seed, scale, fresh=True)
            setup_times.append(time.perf_counter() - began)
        tracer = tracing.Tracer(lib) if trace else None
        result = measure(workload, seconds, monitor, tracer)
        calib_after = calibrate()
    finally:
        gc.callbacks.remove(monitor)

    untraced = [rep for rep in result.reps if not rep.traced]
    # One latency per distinct op: its median over the untraced reps.
    latencies = [statistics.median(per_op) for per_op in zip(*(rep.latencies for rep in untraced))]
    tail = tail_percentile(len(latencies))
    tail_value = percentile(latencies, tail)
    record = {
        "workload": name, "scale": scale, "seconds": seconds, "trace": int(trace),
        "environment": environment(root, seed),
        "sizes": result.sizes,
        "ops_per_rep": len(workload.ops),
        "attempted": result.attempted, "failed": result.failed,
        "fail_ratio": result.fail_ratio,
        "failures": result.failures,
        "count_mismatches": result.count_mismatches,
        "setup_samples_s": setup_times,
        "host": {"calib_before_s": calib_before, "calib_after_s": calib_after},
        "reps": [{"traced": rep.traced, "wall_s": rep.wall, "cpu_s": rep.cpu,
                  "gc_collections": rep.gc_collections, "gc_pause_s": rep.gc_pause,
                  "op_latencies_s": rep.latencies}
                 for rep in result.reps],
        "op_latency": {"samples": len(latencies), "reps_per_sample": len(untraced),
                       "tail_percentile": tail,
                       "beyond_tail": sum(t > tail_value for t in latencies),
                       "median_s_by_op": dict(zip((op.key for op in workload.ops), latencies))},
    }
    if not trace:
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(rep.wall for rep in untraced),
            "op_p50_ms": percentile(latencies, 50) * 1000,
            "op_tail_ms": tail_value * 1000,
            "peak_rss_mb": peak_rss_mb(),
        }
        return record
    traced = [rep for rep in result.reps if rep.traced]
    layers = {key: statistics.median(rep.layers[key] for rep in traced) for key in traced[0].layers}
    layers.update({
        "py.gc.collections": statistics.median(rep.gc_collections for rep in untraced),
        "py.gc.pause_s": statistics.median(rep.gc_pause for rep in untraced),
        "proc.cpu_s": statistics.median(rep.cpu for rep in untraced),
        "host.calib_s": (calib_before + calib_after) / 2,
        "trace.overhead_s": (statistics.median(rep.wall for rep in traced)
                             - statistics.median(rep.wall for rep in untraced)),
    })
    record["layers"] = layers
    record["metrics"] = {name: layers[name] for name, _ in tracing.PER_LAYER}
    record["spans"] = tracer.kept
    return record
