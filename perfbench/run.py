"""ltlnav benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout; the package is imported from its
``src/``.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it is a
metadata record (versions, thread count, seed, src line count, per-workload
detail).  See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: steadier on a small shared machine than a pool that
# competes with the Python thread, and never more than nproc.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
# numpy's own import is left out: no change to ltlnav can make it faster
_IMPORT_PROBE = ("import time, numpy; t = time.process_time(); "
                 "import ltlnav.cli; print(time.process_time() - t)")

CLOCK = time.thread_time      # as workloads.CLOCK, which times the ops
# Scaled times read as seconds on a machine where the reference loop takes
# REF_S of CPU time.
REF_S = 1e-3
TICK_EVERY_S = 0.1       # CPU seconds between reference ticks

# Exit codes besides 0; an unexpected exception exits 1.
EXIT_NO_SOURCE, EXIT_PIN = 2, 3


def _pin_environment() -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # One CPU for this process and the import probes it starts: the CPUs of
    # a shared machine slow down one at a time, and the reference ticks
    # must time the CPU that the timed work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


class Reference:
    """The speed of the CPU, sampled while the workload runs.

    On a shared virtual machine the CPU runs up to 1.7x slower for tens of
    seconds at a time, in CPU time as well as in wall time.  A tick times
    a fixed loop of small-matrix numpy and dict/frozenset work, like the
    workloads' own mix, in code that no change to ltlnav can make faster.
    While measuring, a CPU-time interval timer ticks every TICK_EVERY_S.
    An op's CPU time, less the ticks inside it, is scaled piece by piece:
    each piece between two ticks by REF_S over the mean loop time of those
    two ticks.
    """

    def __init__(self):
        import numpy as np    # after _pin_environment set the BLAS threads
        self._np = np
        self._x = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 8
        self.start: list[float] = []  # CPU clock at each tick's start
        self.end: list[float] = []    # and at its end
        self.ref_s: list[float] = []  # loop time, the faster of two runs
        self._busy = False

    def _loop(self):
        v = self._np.ones((1, 64))
        seen = {}
        for i in range(80):
            v = self._np.tanh(v @ self._x)
            for j in range(12):
                k = frozenset(((i * 7 + j) % 61, (i * 13 + j) % 97, j))
                seen[k] = seen.get(k, 0) + 1
        return len(seen)

    def tick(self, *_signal) -> None:
        if self._busy:       # a timer signal that arrived during a tick
            return
        self._busy = True
        t_start = CLOCK()
        best = float("inf")
        for _ in range(2):
            t0 = CLOCK()
            self._loop()
            best = min(best, CLOCK() - t0)
        self.start.append(t_start)
        self.end.append(CLOCK())
        self.ref_s.append(best)
        self._busy = False

    @contextmanager
    def periodic(self):
        """Tick before the block, every TICK_EVERY_S inside it, and after."""
        self.tick()
        previous = signal.signal(signal.SIGPROF, self.tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_EVERY_S, TICK_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
            self.tick()

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(scaled seconds, CPU seconds) of the work between CPU clock
        readings t0 and t1, without the ticks inside.  Needs a tick that
        ended by t0 and one that started at or after t1."""
        prev = bisect_right(self.end, t0) - 1
        last = bisect_left(self.start, t1)
        if prev < 0 or last == len(self.start):
            raise ValueError("no reference tick on both sides of the op")
        scaled = raw = 0.0
        lo = t0
        for k in range(prev + 1, last + 1):
            piece = (t1 if k == last else self.start[k]) - lo
            raw += piece
            scaled += piece * 2 * REF_S / (self.ref_s[prev] + self.ref_s[k])
            if k < last:
                lo, prev = self.end[k], k
        return scaled, raw


def _import_seconds() -> float:
    """CPU time of `import ltlnav.cli` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                         capture_output=True, text=True, check=True,
                         timeout=60, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def _setup(wl, ref: Reference) -> tuple[float, list[float], list[float]]:
    """Set up SETUP_REPEATS times: import in a fresh interpreter, then build
    the workload's state.  Returns the median scaled time of a repeat, each
    scaled by reference ticks before and after it, and the unscaled import
    and build times."""
    scaled, imports, builds = [], [], []
    ref.tick()
    for _ in range(SETUP_REPEATS):
        imports.append(_import_seconds())
        t1 = CLOCK()
        wl.setup()
        t2 = CLOCK()
        ref.tick()
        builds.append(t2 - t1)
        factor = 2 * REF_S / (ref.ref_s[-2] + ref.ref_s[-1])
        scaled.append((imports[-1] + builds[-1]) * factor)
    return statistics.median(scaled), imports, builds


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile, so the value is one op's latency."""
    import numpy as np
    return float(np.percentile(np.asarray(values), q, method="inverted_cdf"))


@dataclass
class Measurement:
    scaled: dict = field(default_factory=dict)   # op key -> [seconds]
    raw: dict = field(default_factory=dict)      # op key -> [CPU seconds]
    units: int = 0

    def per_unit_s(self) -> float:
        return sum(map(sum, self.scaled.values())) / self.units


def _measure(wl, ref: Reference, seconds: float) -> Measurement:
    """Run whole units until `seconds` of wall time have passed (at least
    one)."""
    m = Measurement()
    ops = []
    t_end = time.perf_counter() + seconds
    with ref.periodic():
        while not wl.done and (m.units == 0 or time.perf_counter() < t_end):
            gc.collect()    # each unit starts from a collected heap
            ops += wl.unit()
            m.units += 1
    for key, t0, t1 in ops:
        scaled, raw = ref.scaled(t0, t1)
        m.scaled.setdefault(key, []).append(scaled)
        m.raw.setdefault(key, []).append(raw)
    return m


def _summary(latencies: dict, wl) -> dict:
    """Throughput and latency of the ops.  An op's latency is the median of
    its repeats; only the compile suite repeats an op, once per pass, with
    renamed propositions."""
    ops = [statistics.median(v) for v in latencies.values()]
    ms = [1e3 * x for x in ops]
    return {"items_per_s": wl.items_per_op * len(ops) / sum(ops),
            "op_ms.p50": statistics.median(ms),
            "op_ms.tail": _percentile(ms, wl.tail_pct)}


def _metadata(args, traced: bool) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True,
                                timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None          # a plain checkout is not a git repository
    src_hash = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(data)
        src_lines += data.count(b"\n")
    return {"commit": commit, "src_sha256": src_hash.hexdigest(),
            "src_lines": src_lines, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "traced": traced, "size": args.size}


def run(args) -> tuple[dict, dict]:
    import workloads
    import tracing

    wl = workloads.make(args.workload, args.seed, args.size == "tiny")
    ref = Reference()
    setup_s, imports, builds = _setup(wl, ref)
    wl.warmup()

    if args.trace:
        # untraced and traced halves; the per-unit ratio is the overhead
        plain = _measure(wl, ref, args.seconds / 2)
        wl.restart()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = _measure(wl, ref, args.seconds / 2)
        finally:
            tracer.restore()
        metrics = tracing.layer_metrics(tracer, traced.units)
        metrics["trace.overhead_frac"] = (
            traced.per_unit_s() / plain.per_unit_s() - 1.0, "ratio")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.npz")
        unscaled = {}
    else:
        m = _measure(wl, ref, args.seconds)
        scaled = _summary(m.scaled, wl) if m.scaled else {}
        unscaled = _summary(m.raw, wl) if m.raw else {}
        metrics = {"setup_s": (setup_s, "s")}
        for name, unit in (("items_per_s", "1/s"), ("op_ms.p50", "ms"),
                           ("op_ms.tail", "ms")):
            metrics[name] = (scaled.get(name, 0.0), unit)
        unscaled["setup_s"] = statistics.median(
            i + b for i, b in zip(imports, builds))

    wl.check()
    if not args.trace:
        metrics["success_rate"] = (wl.success_rate(), "ratio")
        metrics["ok_frac"] = (1.0 - wl.failed / max(wl.attempted, 1), "ratio")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    result = {"correct": wl.wrong == 0, "attempted": wl.attempted,
              "failed": wl.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    ref_ms = [1e3 * x for x in ref.ref_s]
    meta = {"meta": _metadata(args, bool(args.trace)),
            "detail": {"op": wl.op, "item": wl.item,
                       "setup": {"import_s": imports, "build_s": builds},
                       "unscaled": unscaled,
                       "ref_ms": {"ticks": len(ref_ms), "min": min(ref_ms),
                                  "median": statistics.median(ref_ms),
                                  "max": max(ref_ms)},
                       **wl.detail(), "errors": wl.errors[:20]}}
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every unit, for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "ltlnav" / "__init__.py").is_file():
        print(f"perfbench: no ltlnav sources under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    _pin_environment()
    import ltlnav
    if Path(ltlnav.__file__).resolve().parent != SRC / "ltlnav":
        print(f"perfbench: imported ltlnav from {ltlnav.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    import workloads
    try:
        meta, result = run(args)
    except workloads.PinMismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_PIN
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
