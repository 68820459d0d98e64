"""Benchmark of the uda engine: cold-process passes over four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed-loop, one request at a time):

  quotient-matrices  all 25 ``matrix`` documents at (r,n)=(2,5), then
                     ``verify --suite bracket``: the serving path
                     rep_matrix/bracket_check, whose first request pays
                     the whole closed-form sweep.
  quotient-genfun    all 15 projected ``genfun`` documents at (2,6): the
                     finite closed form on another rectangle shape.
  oracle-sweep       star_oracle_coords for all 133,056 (i, j, lambda) at
                     (6,12): the exterior layer, with almost no polynomial
                     or closed-form work.
  schur-det          ``giambelli`` documents for all 126 lambda at (4,9):
                     exact_det over deformed h's, the largest heap.

Each pass runs in a fresh child process (``child.py``), so every cache
starts cold, as it does for every ``uda`` command.  Children run one at a
time with a fixed ``PYTHONHASHSEED``; nothing else of the benchmark runs
beside them.  The seed only permutes the requests inside a workload.

A run first starts one child that only imports (it compiles the bytecode
once, as an installation would), then several set-up-only children, then as
many full passes as fit in ``--seconds`` (at least one).  With ``--trace 1``
the passes alternate untraced and traced; the traced ones record per-layer
spans (see ``tracer.py``).

The human-readable lines name every metric with its unit; the last line is
the JSON result.  With ``--trace 0`` its metrics are the end-to-end ones:

  setup_s      median over set-ups of the child's CPU time from its start
               until it is ready for its first request (interpreter start,
               ``import uda``, inputs), in reference seconds
  run_cpu_s    the child's CPU time from the first request to the last,
               with cold caches, in reference seconds: the lower quartile
               over the run's passes (see ``lower_quartile``)
  peak_rss_mb  median over passes of the child's maximum resident set size

A reference second is a second of CPU time on a core as fast as the one on
which the calibration loop of ``child.CoreSpeed`` takes ``REF_PROBE_S``.
The machine the benchmark was written on is a 2-vCPU Intel Xeon virtual
machine on a shared host.  There the wall time of one pass moved by 20-50 %
between runs of the same code: the process waits while neighbours run, and
the core it runs on slows to about half speed for seconds to minutes.  The
CPU time drops the waiting.  The scaling drops most of the slowing, because
the calibration loop slows with the core.  The program is single-threaded,
so on an otherwise idle core on which the loop takes ``REF_PROBE_S`` the
reference time equals the wall time; on the machine above the loop took
100-140 us.

Printed on the lines above, not in the JSON: ``run_s``, the wall time from
the first request to the last (the sum over requests of each request's
fastest latency across the passes); ``setup_wall_s``, the median wall time
from spawning a child until it is ready; ``fail_frac`` (failed / attempted
requests); and, on oracle-sweep and schur-det, ``op_p50_ms`` and
``op_p90_ms`` over each request's median reference time across the
passes.  ``fail_frac`` is in
the result's ``attempted`` and ``failed`` fields.  The percentiles are left
out of the JSON because every JSON metric must exist on every workload.
With ``--trace 1`` the JSON metrics are the per-layer ones of
``tracer.LAYER_METRICS``.

Every result is also written, with the seed, nproc, the Python version and
the CPU model, to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from statistics import median, median_low, quantiles
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

WORKLOAD_NAMES = ("quotient-matrices", "quotient-genfun", "oracle-sweep",
                  "schur-det")
PERCENTILE_WORKLOADS = ("oracle-sweep", "schur-det")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
HASHSEED = "0"


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = HASHSEED
    return env


def run_child(root: Path, args: list[str]) -> tuple[float, dict]:
    """Start one child, wait for it, return (spawn time, its result)."""
    cmd = [sys.executable, str(HERE / "child.py")] + args
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fastest(passes: list[dict]) -> list[float]:
    """Each request's fastest wall latency over the passes.

    The minimum per request, as ``timeit`` recommends, drops the waits that
    hit one pass and not another; it feeds the wall ``run_s`` and
    ``trace.overhead_s``.
    """
    return [min(lat) for lat in zip(*(p["latencies"] for p in passes))]


def per_request_median(passes: list[dict]) -> list[float]:
    """Each request's median reference time over the passes."""
    return [median(t) for t in zip(*(p["ref_latencies"] for p in passes))]


def lower_quartile(values: list[float]) -> float:
    """The lower quartile, interpolated between the values.

    Interference the calibration loop does not see, such as a neighbour
    thrashing the shared cache, only ever adds time, so the low end of the
    passes is the steadier summary.  The scaling can also err downwards,
    so the quartile rather than the minimum: on the machine described
    above the run-to-run spread of the quartile was the lowest of minimum,
    quartile and median on every workload but genfun, which has two passes.
    """
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=4, method="inclusive")[0]


def percentiles_ms(latencies: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of the request latencies, in ms."""
    deciles = quantiles(latencies, n=10)
    return median(latencies) * 1e3, deciles[8] * 1e3


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    run_child(root, base + ["--setup-only"])        # compiles bytecode once
    setups, setups_wall = [], []
    for _ in range(SETUP_SAMPLES):
        spawned, res = run_child(root, base + ["--setup-only"])
        setups.append(res["setup_cpu_s"])
        setups_wall.append(res["ready"] - spawned)

    passes: dict[bool, list[dict]] = {False: [], True: []}
    kinds = [False, True] if trace else [False]
    longest = 0.0
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        done = all(passes[x] for x in kinds)
        if done and time.monotonic() - start + longest > seconds:
            break
        t0 = time.monotonic()
        spawned, res = run_child(root, base + (["--trace"] if kind else []))
        longest = max(longest, time.monotonic() - t0)
        res["setup_s"] = res["ready"] - spawned
        passes[kind].append(res)
        if kind is False:
            setups.append(res["setup_cpu_s"])
            setups_wall.append(res["setup_s"])
        k += 1
    return {"setups": setups, "setups_wall": setups_wall,
            "plain": passes[False], "traced": passes[True]}


def summarise(workload: str, seed: int, trace: bool, m: dict) -> dict:
    plain, traced = m["plain"], m["traced"]
    every = plain + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    digests = sorted({p["digest"] for p in every})
    end_to_end = {
        "setup_s": (median(m["setups"]), "s"),
        "run_cpu_s": (lower_quartile([p["run_cpu_s"] for p in plain]), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in plain), "MB"),
    }
    extra = {"run_s": (sum(fastest(plain)), "s"),
             "setup_wall_s": (median(m["setups_wall"]), "s"),
             "fail_frac": (failed / attempted, "1"),
             "run_pass_median_s": (median(p["run_s"] for p in plain), "s")}
    if workload in PERCENTILE_WORKLOADS:
        p50, p90 = percentiles_ms(per_request_median(plain))
        extra["op_p50_ms"] = (p50, "ms")
        extra["op_p90_ms"] = (p90, "ms")
    out = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "cpu": cpu_model(), "pythonhashseed": HASHSEED},
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": m["setups"],
        "correct": failed == 0 and all(p["digest_ok"] for p in every),
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in every for f in p["failures"]][:10],
        "digests": digests,
        "end_to_end": end_to_end,
        "extra": extra,
        "caches": plain[-1]["caches"],
        "per_pass": [{k: p[k] for k in ("run_s", "run_cpu_s", "setup_s",
                                         "setup_cpu_s", "peak_rss_mb",
                                         "cpu_s", "gc_collections", "gc_s")}
                     for p in every],
    }
    if trace:
        out["layers"] = layer_metrics(plain, traced)
        out["tree"] = traced[0]["tree"]
    return out


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: spans from the traced passes, process and cache
    figures from the untraced ones, which the tracing would disturb.  Each is
    the lower median over passes, so that exact counts stay whole."""
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = median_low(p["layers"][key] for p in traced)
    layers["process.gc_collections"] = median_low(
        p["gc_collections"] for p in plain)
    layers["process.gc_s"] = median_low(p["gc_s"] for p in plain)
    layers["process.cpu_s"] = median_low(p["cpu_s"] for p in plain)
    layers["trace.overhead_s"] = sum(fastest(traced)) - sum(fastest(plain))
    caches = plain[-1]["caches"]
    for module in ("exterior", "symfunc", "glaction", "module_iso", "all"):
        mine = [v for k, v in caches.items()
                if module in ("all", k.split(".")[0])]
        for field in ("hits", "misses", "size"):
            layers[f"cache.{module}.{field}"] = sum(v.get(field, 0) for v in mine)
    return {name: (layers[name], unit) for name, unit, *_ in LAYER_METRICS}


def report(s: dict) -> None:
    print(f"perfbench workload={s['workload']} seed={s['seed']} "
          f"trace={s['trace']} passes={s['passes']} "
          f"traced_passes={s['traced_passes']} "
          f"setup_samples={len(s['setup_samples'])}")
    print("env " + json.dumps(s["env"]))
    for name, (value, unit) in {**s["end_to_end"], **s["extra"]}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {s['attempted']} failed {s['failed']} "
          f"digest {'ok' if s['correct'] else 'MISMATCH'} {' '.join(s['digests'])}")
    for f in s["failures"]:
        print(f"failure {f}")
    for name, cache in sorted(s["caches"].items()):
        print(f"cache {name} " + " ".join(f"{k}={v}" for k, v in cache.items()))
    if s["trace"]:
        for name, (value, unit) in s["layers"].items():
            print(f"{name} {value:.6g} {unit}")
    metrics = s["layers"] if s["trace"] else s["end_to_end"]
    print(json.dumps({
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "uda" / "__init__.py").is_file():
        print(f"error: no uda sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    try:
        m = measure(root, args.workload, args.seed, args.seconds,
                    bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    s = summarise(args.workload, args.seed, bool(args.trace), m)
    outdir = root / ".perfbench"
    outdir.mkdir(exist_ok=True)
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(s, indent=1) + "\n")
    report(s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
