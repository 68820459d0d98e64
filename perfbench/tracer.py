"""Per-layer spans recorded from outside the program.

``Tracer.install`` rebinds the layer functions of ``uda`` in every ``uda``
module that holds them (a ``from .x import f`` makes a second binding), and
replaces the arithmetic operators of ``MvPolynomial`` and ``BiLaurent`` on
their classes.  Nothing under ``src/`` changes; ``uninstall`` restores the
originals.

Spans nest under one root span per request.  A span's self time is its
duration minus the time its direct children cover.  ``MvPolynomial``
multiply and add run millions of times, so they are not spans: each call
adds its count and duration to the enclosing span, and to a per-parent
aggregate, instead of recording a span of its own.  Spans are aggregated by
(parent, name) in memory and written out when the run ends.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end metric it
should move and the workloads on which it should move it.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (name, unit, better, moves, on)
LAYER_METRICS = [
    ("poly.mul.calls", "count", "lower", "run_cpu_s, op_p90_ms", "schur-det, quotient-*"),
    ("poly.mul.term_products", "count", "lower", "run_cpu_s, op_p90_ms", "schur-det, quotient-*"),
    ("poly.mul.self_s", "s", "lower", "run_cpu_s, op_p90_ms", "schur-det, quotient-*"),
    ("poly.add.calls", "count", "lower", "run_cpu_s, op_p90_ms", "schur-det, quotient-*"),
    ("poly.add.self_s", "s", "lower", "run_cpu_s, op_p90_ms", "schur-det, quotient-*"),
    ("bilaurent.mul.calls", "count", "lower", "run_cpu_s", "quotient-*"),
    ("bilaurent.mul.coeff_products", "count", "lower", "run_cpu_s", "quotient-*"),
    ("bilaurent.mul.self_s", "s", "lower", "run_cpu_s", "quotient-*"),
    ("determinant.exact_det.calls", "count", "lower", "op_p50_ms, op_p90_ms, run_cpu_s", "schur-det"),
    ("determinant.exact_det.self_s", "s", "lower", "op_p50_ms, op_p90_ms, run_cpu_s", "schur-det"),
    ("symfunc.giambelli.calls", "count", "lower", "op_p50_ms, op_p90_ms, run_cpu_s", "schur-det"),
    ("symfunc.giambelli.self_s", "s", "lower", "op_p50_ms, op_p90_ms, run_cpu_s", "schur-det"),
    ("module_iso.schur_map_of_poly.calls", "count", "lower", "run_cpu_s", "quotient-*"),
    ("module_iso.schur_map_of_poly.monomials_in", "count", "lower", "run_cpu_s", "quotient-*"),
    ("module_iso.schur_map_of_poly.self_s", "s", "lower", "run_cpu_s", "quotient-*"),
    ("glaction.generating_action_finite.calls", "count", "lower", "run_cpu_s", "quotient-*"),
    ("glaction.generating_action_finite.self_s", "s", "lower", "run_cpu_s", "quotient-*"),
    ("glaction.coeffs_projected", "count", "lower", "run_cpu_s", "quotient-*"),
    ("glaction.positive_w_coeffs", "count", "lower", "run_cpu_s", "quotient-*"),
    ("glaction.useful_coeff_ratio", "ratio", "higher", "run_cpu_s", "quotient-*"),
    ("glaction.rep_matrix.calls", "count", "lower", "run_cpu_s", "quotient-matrices"),
    ("glaction.rep_matrix.self_s", "s", "lower", "run_cpu_s", "quotient-matrices"),
    ("glaction.bracket_check.calls", "count", "lower", "run_cpu_s", "quotient-matrices"),
    ("glaction.bracket_check.self_s", "s", "lower", "run_cpu_s", "quotient-matrices"),
    ("glaction.star_oracle_coords.calls", "count", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("glaction.star_oracle_coords.self_s", "s", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.contract.calls", "count", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.contract.self_s", "s", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.wedge.calls", "count", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.wedge.self_s", "s", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.reduce_mod_n.calls", "count", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.reduce_mod_n.self_s", "s", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.wedge_coords.calls", "count", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.wedge_coords.self_s", "s", "lower", "op_p50_ms, op_p90_ms", "oracle-sweep"),
    ("exterior.convert_basis.calls", "count", "lower", "op_p50_ms, op_p90_ms; run_cpu_s", "oracle-sweep; quotient-* (cache fill)"),
    ("exterior.convert_basis.self_s", "s", "lower", "op_p50_ms, op_p90_ms; run_cpu_s", "oracle-sweep; quotient-* (cache fill)"),
    ("schubert.sigma_coefficient.calls", "count", "lower", "op_p50_ms, op_p90_ms; run_cpu_s", "oracle-sweep; quotient-* (cache fill)"),
    ("schubert.sigma_coefficient.self_s", "s", "lower", "op_p50_ms, op_p90_ms; run_cpu_s", "oracle-sweep; quotient-* (cache fill)"),
    ("cli.main.calls", "count", "lower", "run_cpu_s", "quotient-*, schur-det"),
    ("cli.main.self_s", "s", "lower", "run_cpu_s", "quotient-*, schur-det"),
    ("cache.exterior.hits", "count", "higher", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.exterior.misses", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.exterior.size", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.symfunc.hits", "count", "higher", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.symfunc.misses", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.symfunc.size", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.glaction.hits", "count", "higher", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.glaction.misses", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.glaction.size", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.module_iso.size", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.all.hits", "count", "higher", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.all.misses", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("cache.all.size", "count", "lower", "run_cpu_s, peak_rss_mb", "all"),
    ("process.gc_collections", "count", "lower", "run_cpu_s, peak_rss_mb", "schur-det mostly"),
    ("process.gc_s", "s", "lower", "run_cpu_s, peak_rss_mb", "schur-det mostly"),
    ("process.cpu_s", "s", "lower", "run_cpu_s, peak_rss_mb", "schur-det mostly"),
    ("trace.overhead_s", "s", "lower", "-", "all"),
]

# (module, function) pairs that become spans.  The span is named after the
# module that defines the function, whichever module the caller imported it
# from.
SPAN_FUNCTIONS = [
    ("determinant", "exact_det"),
    ("symfunc", "giambelli"),
    ("module_iso", "schur_map_of_poly"),
    ("glaction", "generating_action_finite"),
    ("glaction", "rep_matrix"),
    ("glaction", "bracket_check"),
    ("glaction", "star_oracle_coords"),
    ("exterior", "contract"),
    ("exterior", "wedge"),
    ("exterior", "reduce_mod_n"),
    ("exterior", "wedge_coords"),
    ("exterior", "convert_basis"),
    ("schubert", "sigma_coefficient"),
    ("cli", "main"),
]


_FINITE = "glaction.generating_action_finite"


def _uda_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "uda" or name.startswith("uda."))]


class Tracer:
    """Aggregated spans for one process; install, run requests, uninstall."""

    def __init__(self):
        # a frame is [time covered by direct children, span name,
        # projections made beneath it]
        self.stack: list[list] = []
        self.spans: dict[tuple[str, str], list] = {}   # (parent, name) -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _close(self, parent: str, name: str, total: float, child: float):
        stat = self.spans.get((parent, name))
        if stat is None:
            stat = self.spans[(parent, name)] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += total
        stat[2] += total - child

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so that each call is a span; ``count(args, result,
        frame)`` may add layer-specific counts."""
        stack, close, counts = self.stack, self._close, self.counts

        def wrapper(*args, **kwargs):
            frame = [0.0, name, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                close(parent[1], name, dt, frame[0])
            if count is not None:
                for key, val in count(args, out, frame).items():
                    counts[key] = counts.get(key, 0) + val
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn, size=None):
        """Wrap a hot binary operator: its calls and time are added to the
        enclosing span instead of opening one; ``size(a, b)`` adds the work
        of one call to the ``<name>.term_products`` count."""
        stack, close, counts = self.stack, self._close, self.counts
        products = name + ".term_products"

        def wrapper(a, b):
            t0 = perf_counter()
            out = fn(a, b)
            dt = perf_counter() - t0
            parent = stack[-1]
            parent[0] += dt
            close(parent[1], name, dt, 0.0)
            if size is not None:
                counts[products] = counts.get(products, 0) + size(a, b)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def request(self, fn, arg):
        """Run one request as a root span."""
        frame = [0.0, "request", 0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(arg)
        finally:
            dt = perf_counter() - t0
            self.stack.pop()
            self._close("", "request", dt, frame[0])

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapper):
        for mod in _uda_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)

    def install(self):
        import uda.cli  # noqa: F401  (the CLI module is not imported by uda)
        from uda.bilaurent import BiLaurent
        from uda.poly import MvPolynomial

        self.stack.append([0.0, "", 0])    # catches calls outside any request
        counters = {
            "schur_map_of_poly": self._projection_counts,
            "generating_action_finite": self._finite_counts,
        }
        mods = {m.__name__: m for m in _uda_modules()}
        for modname, fname in SPAN_FUNCTIONS:
            orig = getattr(mods["uda." + modname], fname)
            wrapper = self.span(f"{modname}.{fname}", orig, counters.get(fname))
            self._rebind(orig, wrapper)

        def poly_size(a, b):
            return len(a.terms) * (len(b.terms) if isinstance(b, MvPolynomial) else 1)

        def bl_size(a, b):
            return len(a.coeffs) * (len(b.coeffs) if isinstance(b, BiLaurent) else 1)

        mul = self.leaf("poly.mul", MvPolynomial.__mul__, poly_size)
        add = self.leaf("poly.add", MvPolynomial.__add__)
        for attr, w in (("__mul__", mul), ("__rmul__", mul),
                        ("__add__", add), ("__radd__", add)):
            self._set(MvPolynomial, attr, w)
        blmul = self.span("bilaurent.mul", BiLaurent.__mul__,
                          lambda a, out, frame: {
                              "bilaurent.mul.coeff_products": bl_size(*a)})
        for attr in ("__mul__", "__rmul__"):
            self._set(BiLaurent, attr, blmul)

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)
        self.stack.clear()

    def _projection_counts(self, args, out, frame):
        for f in reversed(self.stack):
            if f[1] == _FINITE:
                f[2] += 1
                break
        return {"module_iso.schur_map_of_poly.monomials_in": len(args[0].terms)}

    @staticmethod
    def _finite_counts(args, res, frame):
        # the finite closed form projects only when it computes (a miss
        # of its cache)
        if not frame[2]:
            return {}
        return {"glaction.coeffs_projected": frame[2],
                "glaction.positive_w_coeffs": len(res.positive_w),
                "_useful_coeffs": len(res.schur_form)}

    # -- results ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(s[0] for (_, n), s in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(s[2] for (_, n), s in self.spans.items() if n == name)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times (the trace.*, process.* and
        cache.* metrics are filled in by the caller)."""
        out: dict[str, float] = {}
        names = [f"{m}.{f}" for m, f in SPAN_FUNCTIONS] + ["poly.mul", "poly.add",
                                                          "bilaurent.mul"]
        for name in names:
            out[name + ".calls"] = self.calls(name)
            out[name + ".self_s"] = self.self_s(name)
        for key in ("poly.mul.term_products", "bilaurent.mul.coeff_products",
                    "module_iso.schur_map_of_poly.monomials_in",
                    "glaction.coeffs_projected", "glaction.positive_w_coeffs"):
            out[key] = self.counts.get(key, 0)
        projected = out["glaction.coeffs_projected"]
        out["glaction.useful_coeff_ratio"] = (
            self.counts.get("_useful_coeffs", 0) / projected if projected else 0.0)
        return out

    def tree(self) -> list[dict]:
        """The aggregated span tree, one row per (parent, name) pair."""
        return [{"parent": p, "name": n, "calls": s[0], "total_s": s[1],
                 "self_s": s[2]}
                for (p, n), s in sorted(self.spans.items())]
