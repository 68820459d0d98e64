"""One cold pass of one workload, in a fresh interpreter.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH`` and a fixed ``PYTHONHASHSEED``:

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--setup-only]

It imports ``uda``, builds the workload's inputs, and records the monotonic
time and the CPU time at which it became ready for its first request.
Unless ``--setup-only`` is given it then sends every request, one at a
time, and runs the output checks after the last one.  The last line of its
standard output is one JSON object with the measurements.

Times that feed the benchmark's bounds are CPU times of this process scaled
to a reference core speed (see ``CoreSpeed``): on a shared virtual machine
the wall time of the same work moves by tens of percent with what the
neighbours run, the CPU time drops the periods in which this process did
not run at all, and the scaling drops most of the periods in which it ran
on a slowed core.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
from statistics import median
import sys
import time
from array import array
from pathlib import Path

import uda
import uda.cli  # noqa: F401  (every CLI invocation pays this import)
from tracer import Tracer
from workloads import REFERENCE_DIGESTS, WORKLOADS, digest


def cache_stats() -> dict[str, dict[str, int]]:
    """Every lru_cache of the ``uda`` modules, found by its ``cache_info``,
    and the size of every module-level dict whose name mentions a cache.

    Keys are ``<module>.<function>`` of the defining module, so that a cache
    re-exported by several modules is counted once.
    """
    out: dict[str, dict[str, int]] = {}
    seen: set[int] = set()
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "uda" or modname.startswith("uda.")):
            continue
        for attr, val in vars(mod).items():
            if id(val) in seen:
                continue
            info = getattr(val, "cache_info", None)
            if callable(info) and callable(getattr(val, "cache_clear", None)):
                seen.add(id(val))
                ci = info()
                owner = val.__module__.removeprefix("uda.")
                out[f"{owner}.{val.__qualname__}"] = {
                    "hits": ci.hits, "misses": ci.misses, "size": ci.currsize}
            elif isinstance(val, dict) and "cache" in attr.lower():
                seen.add(id(val))
                out[f"{modname.removeprefix('uda.')}.{attr}"] = {"size": len(val)}
    return out


def peak_rss_kb() -> int:
    """This process's own peak resident set size.

    ``VmHWM`` is kept per address space.  ``ru_maxrss`` also carries the
    parent's peak across the fork and exec that started this process, so it
    would read the benchmark's own memory instead of the program's.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# The calibration loop: fixed interpreter work on a small table that stays
# in cache.  It allocates no object the garbage collector tracks, so that it
# cannot move a collection of the program it interrupts.
_PROBE_TABLE = dict.fromkeys(range(64), 0)
PROBE_LOOPS = 500
# Time the calibration loop takes on the reference core; one second of CPU
# time in which the loop took REF_PROBE_S counts as one second.
REF_PROBE_S = 1e-4
PROBE_INTERVAL_S = 0.025


def _probe() -> int:
    t = _PROBE_TABLE
    x = 0
    for i in range(PROBE_LOOPS):
        k = i & 63
        t[k] = (t[k] + i) & 0xFFFF
        x = (x * 31 + i) & 0xFFFFF
    return x


def probe_once() -> tuple[float, float]:
    """Run the loop twice; return (CPU time of both, CPU time of the second).

    The first run brings the loop's code and table back into the cache
    after the program evicted them, so the second measures the speed of
    the core rather than the program's memory footprint.
    """
    c0 = time.thread_time()
    _probe()
    c1 = time.thread_time()
    _probe()
    c2 = time.thread_time()
    return c2 - c0, c2 - c1


def speed_factor(samples: int = 9) -> float:
    """The reference-time scale of the current core, from a few probes."""
    return REF_PROBE_S / median(probe_once()[1] for _ in range(samples))


class CoreSpeed:
    """Samples the core's speed while the requests run.

    Every ``PROBE_INTERVAL_S`` of this process's CPU time a ``SIGPROF``
    handler runs the calibration loop.  ``scale`` then turns the CPU time
    of each request into reference seconds: it removes the loops that ran
    inside the request and multiplies the rest by the mean of
    ``REF_PROBE_S / loop time`` over those loops, or over the latest loop
    before the request if none ran inside it.  The loops cost about one
    percent of the CPU time.

    CPU times come from the clock of the thread, the only one the child
    has: while a process-wide CPU timer is armed, Linux serves the process
    clock from a sum that advances only at scheduler events, so that it
    reads zero for most short requests.
    """

    def __init__(self):
        self.at = array("d")       # CPU time at which each sample started
        self.spent = array("d")    # CPU time each sample took
        self.factor = array("d")   # REF_PROBE_S / loop time

    def __call__(self, signum, frame):
        at = time.thread_time()
        spent, warm = probe_once()
        self.at.append(at)
        self.spent.append(spent)
        self.factor.append(REF_PROBE_S / warm)

    def start(self) -> None:
        self.factor.append(speed_factor())
        self.at.append(time.thread_time())
        self.spent.append(0.0)
        signal.signal(signal.SIGPROF, self)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, starts, ends) -> list[float]:
        """Reference seconds of each request, given its CPU start and end
        times in the order the requests ran."""
        out = []
        k, n = 0, len(self.at)
        for a, b in zip(starts, ends):
            while k < n and self.at[k] < a:
                k += 1
            lo = k
            while k < n and self.at[k] < b:
                k += 1
            if k > lo:
                spent = sum(self.spent[lo:k])
                factor = sum(self.factor[lo:k]) / (k - lo)
            else:
                spent, factor = 0.0, self.factor[max(lo - 1, 0)]
            out.append(max(b - a - spent, 0.0) * factor)
        return out


class GcClock:
    """Counts collections and their pauses, through ``gc.callbacks``."""

    def __init__(self):
        self.collections = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.seconds += time.perf_counter() - self._start


def run_pass(workload, tracer=None) -> dict:
    """Send every request, then check the answers; returns the measurements."""
    call, record = workload.call, workload.record
    if tracer is not None:
        def call(req, _call=call):
            return tracer.request(_call, req)
    requests = workload.requests
    kept: list = [None] * len(requests)
    raised: dict[int, str] = {}
    latencies = array("d")
    cpu_starts, cpu_ends = array("d"), array("d")
    clock = GcClock()
    # the calibration loops would count as program time in the spans
    speed = CoreSpeed() if tracer is None else None
    if tracer is not None:
        tracer.install()
    gc.callbacks.append(clock)
    if speed is not None:
        speed.start()
    try:
        for idx in workload.order:
            req = requests[idx]
            cpu_starts.append(time.thread_time())
            t0 = time.perf_counter()
            try:
                out = call(req)
            except Exception as exc:  # a failed request, counted, not fatal
                raised[idx] = f"raised {exc!r}"
                out = None
            latencies.append(time.perf_counter() - t0)
            cpu_ends.append(time.thread_time())
            if idx not in raised:
                kept[idx] = record(req, out)
    finally:
        if speed is not None:
            speed.stop()
        gc.callbacks.remove(clock)
        if tracer is not None:
            tracer.uninstall()
    cpu_s = sum(b - a for a, b in zip(cpu_starts, cpu_ends))
    ref_latencies = (speed.scale(cpu_starts, cpu_ends) if speed is not None
                     else [])
    peak_rss_mb = peak_rss_kb() / 1024
    caches = cache_stats()

    # untimed: checks and digest
    failures, docs = workload.check(kept)
    failures.update(raised)
    got = digest(docs)
    digest_ok = got == REFERENCE_DIGESTS[workload.name]
    attempted = len(requests)
    failed = len(failures)
    if not digest_ok and not failed:
        # the outputs differ from the reference and no request explains it
        failed = attempted
    return {
        "latencies": latencies.tolist(),
        "ref_latencies": ref_latencies,
        "run_s": sum(latencies),
        "run_cpu_s": sum(ref_latencies),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"request {k}: {v}" for k, v in sorted(failures.items())][:10],
        "digest": got,
        "digest_ok": digest_ok,
        "cpu_s": cpu_s,
        "gc_collections": clock.collections,
        "gc_s": clock.seconds,
        "caches": caches,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if Path(uda.__file__).resolve().parent != (src / "uda").resolve():
        print(f"uda was imported from {uda.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    # CPU time since the process started, interpreter start-up included:
    # the main thread is the task that was forked and exec'd
    ready_cpu = time.thread_time()
    setup = {"ready": ready, "setup_cpu_s": ready_cpu * speed_factor()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = Tracer() if args.trace else None
    result = run_pass(workload, tracer)
    result.update(setup)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["tree"] = tracer.tree()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
