"""Tests of the benchmark itself: its checks, its digests and its tracer.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import uda.glaction  # noqa: E402
from uda.partitions import Partition  # noqa: E402
from uda.poly import ONE  # noqa: E402
from child import CoreSpeed, run_pass  # noqa: E402
from run import WORKLOAD_NAMES, lower_quartile  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (REFERENCE_DIGESTS, WORKLOADS, OracleSweep,  # noqa: E402
                       QuotientGenfun, QuotientMatrices)


def child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert set(REFERENCE_DIGESTS) == set(WORKLOAD_NAMES)
    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _, _ in LAYER_METRICS]
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "run_cpu_s", "peak_rss_mb"]


def test_seed_permutes_requests_only():
    a, b = QuotientMatrices(1), QuotientMatrices(2)
    assert a.order != b.order
    assert sorted(a.order) == sorted(b.order) == list(range(26))
    assert a.order[-1] == b.order[-1] == 25     # the bracket suite stays last
    assert a.requests == b.requests


def test_corrupted_document_fails():
    w = QuotientGenfun(0)
    idx = next(k for k, req in enumerate(w.requests)
               if req[req.index("--lambda") + 1] == "2,1")
    rc, doc = w.call(w.requests[idx])
    kept = [None] * len(w.requests)
    kept[idx] = (rc, doc)
    assert w.check(kept)[0] == {}
    d = json.loads(doc)
    d["terms"][0]["schur"][0]["coeff"] = "2"
    kept[idx] = (rc, json.dumps(d))
    failures, _ = w.check(kept)
    assert list(failures) == [idx] and "oracle" in failures[idx]
    kept[idx] = (rc, doc[:-20])
    assert "malformed" in w.check(kept)[0][idx]


def _patched_oracle_pass(monkeypatch, bad_request: int, effect) -> dict:
    """Run 40 oracle-sweep requests, one of them answered by ``effect``."""
    w = OracleSweep(0)
    w.order = w.order[:40]
    bad = w.requests[w.order[bad_request]]
    real = uda.glaction.star_oracle_coords

    def fake(op, lam, r, n):
        if op is bad[2] and lam == bad[3]:
            return effect(real(op, lam, r, n))
        return real(op, lam, r, n)
    monkeypatch.setattr(uda.glaction, "star_oracle_coords", fake)
    return run_pass(w)


def test_wrong_coordinate_fails(monkeypatch):
    def two_coords(coords):
        return {Partition(()): ONE, Partition((1,)): ONE}
    res = _patched_oracle_pass(monkeypatch, 7, two_coords)
    assert res["failed"] == 1 and "not 0 or +-D_mu" in res["failures"][0]


def test_raised_exception_fails(monkeypatch):
    def boom(coords):
        raise RuntimeError("injected")
    res = _patched_oracle_pass(monkeypatch, 3, boom)
    assert res["failed"] == 1 and "injected" in res["failures"][0]


def test_unexplained_digest_mismatch_fails_every_request(monkeypatch):
    w = QuotientGenfun(0)
    w.order = w.order[:1]
    res = run_pass(w)
    assert res["failures"] == [] and not res["digest_ok"]
    assert res["failed"] == res["attempted"] == 15


def test_core_speed_scales_each_request():
    speed = CoreSpeed()
    speed.at.extend([0.0, 1.0, 1.5])
    speed.spent.extend([0.0, 0.1, 0.1])
    speed.factor.extend([2.0, 1.0, 0.5])
    # no loop inside the first request: the latest one before it scales it;
    # the second loses the two loops inside it and takes their mean factor
    assert speed.scale([0.2, 0.9], [0.8, 2.0]) == pytest.approx([1.2, 0.675])


def test_lower_quartile_interpolates():
    assert lower_quartile([3.0]) == 3.0
    assert lower_quartile([4.0, 0.0]) == 1.0
    assert lower_quartile([5.0, 1.0, 2.0, 3.0, 4.0]) == 2.0


def test_untraced_pass_reports_reference_times():
    w = OracleSweep(0)
    w.order = w.order[:2000]
    res = run_pass(w)
    assert len(res["ref_latencies"]) == len(res["latencies"]) == 2000
    assert res["run_cpu_s"] > 0 and all(t >= 0 for t in res["ref_latencies"])


def test_tracer_restores_the_program():
    before = uda.glaction.star_oracle_coords
    mul = uda.poly.MvPolynomial.__mul__
    t = Tracer()
    t.install()
    try:
        assert uda.glaction.star_oracle_coords is not before
        assert uda.cli.star_oracle_coords is uda.glaction.star_oracle_coords
    finally:
        t.uninstall()
    assert uda.glaction.star_oracle_coords is before
    assert uda.cli.star_oracle_coords is before
    assert uda.poly.MvPolynomial.__mul__ is mul


def test_digest_is_independent_of_seed_and_tracing():
    plain = [child("--workload", "oracle-sweep", "--seed", str(s)) for s in (1, 2)]
    traced = [child("--workload", "oracle-sweep", "--seed", "1", "--trace")
              for _ in range(2)]
    for res in plain + traced:
        assert res["digest"] == REFERENCE_DIGESTS["oracle-sweep"]
        assert res["failed"] == 0
    exact = [name for name, unit, *_ in LAYER_METRICS
             if unit == "count" and name in traced[0]["layers"]]
    assert exact and all(traced[0]["layers"][k] == traced[1]["layers"][k]
                         for k in exact)
    assert traced[0]["layers"]["glaction.star_oracle_coords.calls"] == 133056
    assert plain[0]["gc_collections"] == child(
        "--workload", "oracle-sweep", "--seed", "1")["gc_collections"]


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "schur-det",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
