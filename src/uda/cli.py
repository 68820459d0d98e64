"""Command-line front end.

Subcommands: ``giambelli`` (Schur determinants), ``act`` (a single star
action), ``genfun`` (generating functions, projected or windowed),
``matrix`` (representation matrices), ``factorize`` (the universal
factorisation) and ``verify`` (the built-in verification suites).

Output is deterministic: identical configurations produce byte-identical
documents.  Exit codes: 0 success, 1 invalid configuration (the message
names the violated bound), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import AlgebraError
from .exterior import BasisTag, DualDeltaForm, ExtElement, contract, convert_basis
from .glaction import (StarOperator, bracket_check, generating_action,
                       generating_action_adapted, generating_action_finite,
                       quotient_action, rep_matrix, star_oracle,
                       star_oracle_coords, universal_factorization)
from .module_iso import schur_map_to_poly
from .partitions import Partition, partitions_in_rectangle
from .poly import ONE, ZERO, c_, h_
from .symfunc import giambelli


class UsageError(Exception):
    pass


def parse_partition(text: str | None) -> Partition:
    if text is None or text.strip() in ("", "0"):
        return Partition(())
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--lambda must be comma-separated integers, got {text!r}")
    try:
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(str(exc))


@dataclass
class RunConfig:
    command: str
    r: int
    n: int | None
    lam: Partition
    i: int | None
    j: int | None
    dual: str
    zmax: int | None
    wmin: int | None
    wmax: int
    project: bool
    suite: str | None
    output: str
    out_path: str | None

    def validate(self):
        if self.r < 1:
            raise UsageError(f"--r must be at least 1, got {self.r}")
        if self.n is not None and not (1 <= self.r <= self.n):
            raise UsageError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if len(self.lam) > self.r:
            raise UsageError(f"--lambda {self.lam} is longer than r={self.r}")
        if self.n is not None and self.project and not self.lam.fits_rectangle(
                self.r, self.n - self.r):
            raise UsageError(
                f"--lambda {self.lam} does not fit the {self.r}x{self.n - self.r} rectangle")
        for name, val in (("--i", self.i), ("--j", self.j)):
            if val is None:
                continue
            if val < 0:
                raise UsageError(f"{name} must be nonnegative, got {val}")
            if self.n is not None and self.project and val > self.n - 1:
                raise UsageError(f"{name} must lie in [0, {self.n - 1}], got {val}")


def _emit(doc: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _json_doc(payload) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, in one pass.

    The standard encoder drops to its pure-Python path whenever ``indent``
    is set.  This writer renders what the documents are made of (dicts with
    str keys, lists, str, int, bool and None) itself and hands any other
    value to ``json.dumps``, re-indented to its depth.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    kind = type(obj)
    if kind is str:
        out.append(_encode_str(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict and all(type(k) is str for k in obj):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, val in obj.items():
            out.append(sep + _encode_str(key) + ": ")
            _write_json(val, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:  # floats, tuples, subclasses, non-str keys, unserialisable values
        out.append(json.dumps(obj, indent=2).replace("\n", newline))


def cmd_giambelli(cfg: RunConfig) -> str:
    delta = giambelli(cfg.lam, cfg.r, cfg.n)
    if cfg.output == "json":
        return _json_doc(delta.to_json())
    return f"Delta_{cfg.lam} (r={cfg.r}, n={cfg.n}) = {delta.value}\n"


def cmd_act(cfg: RunConfig) -> str:
    if cfg.i is None or cfg.j is None:
        raise UsageError("act needs --i and --j")
    op = (StarOperator.adapted(cfg.i, cfg.j) if cfg.dual == "s"
          else StarOperator.plain(cfg.i, cfg.j))
    quotient = cfg.n is not None and cfg.project
    coords = star_oracle_coords(op, cfg.lam, cfg.r, cfg.n, quotient=quotient)
    value = schur_map_to_poly(coords, cfg.r, cfg.n)
    if cfg.output == "json":
        schur = [{"partition": mu.to_json(), "coeff": str(coords[mu])}
                 for mu in sorted(coords)]
        return _json_doc({"command": "act", "r": cfg.r, "n": cfg.n,
                          "lambda": cfg.lam.to_json(), "i": cfg.i, "j": cfg.j,
                          "dual": cfg.dual, "projected": quotient,
                          "value": value.to_json(), "schur": schur})
    return f"{value}\n"


def _action_text(res) -> str:
    lines = [f"lambda={res.lam} r={res.r} n={res.n} dual={res.dual}"]
    for (z, w) in sorted(res.schur_form, key=lambda k: (-k[1], k[0])):
        poly = schur_map_to_poly(res.schur_form[(z, w)], res.r, res.n)
        lines.append(f"z^{z} w^{w}: {poly}")
    if res.has_positive_w_terms():
        lines.append(f"# {len(res.positive_w)} nonzero coefficients at positive "
                     "powers of w (no operator of the family); excluded above")
    return "\n".join(lines) + "\n"


def cmd_genfun(cfg: RunConfig) -> str:
    if cfg.project:
        if cfg.n is None:
            raise UsageError("projected genfun needs --n (use --no-project otherwise)")
        if cfg.dual != "s":
            raise UsageError("the projected generating function lives on the "
                             "adapted dual basis; use --dual s or --no-project")
        res = generating_action_finite(cfg.lam, cfg.r, cfg.n)
    else:
        if cfg.zmax is None:
            raise UsageError("--no-project genfun needs --zmax")
        if cfg.dual == "s":
            if cfg.n is None:
                raise UsageError("--dual s needs --n (the number of c variables)")
            res = generating_action_adapted(cfg.lam, cfg.r, cfg.n, cfg.zmax,
                                            wmin=cfg.wmin, wmax=cfg.wmax)
        else:
            res = generating_action(cfg.lam, cfg.r, cfg.zmax,
                                    wmin=cfg.wmin, n=cfg.n)
    if cfg.output == "json":
        return _json_doc(res.to_json())
    return _action_text(res)


def cmd_matrix(cfg: RunConfig) -> str:
    if cfg.n is None:
        raise UsageError("matrix needs --n")
    if cfg.i is None or cfg.j is None:
        raise UsageError("matrix needs --i and --j")
    mat = rep_matrix(cfg.i, cfg.j, cfg.r, cfg.n)
    if cfg.output == "json":
        return _json_doc(mat.to_json())
    lines = [f"operator (i={cfg.i}, j={cfg.j}) on the {mat.dimension}-dimensional "
             f"basis of the (r={cfg.r}, n={cfg.n}) quotient"]
    for lam in mat.basis:
        images = [f"{mat.entries[(mu, lam)]}*D{mu}" for mu in mat.basis
                  if (mu, lam) in mat.entries]
        lines.append(f"D{lam} -> " + (" + ".join(images) if images else "0"))
    return "\n".join(lines) + "\n"


def _xpoly_text(coeffs) -> str:
    bits = []
    for k in range(len(coeffs) - 1, -1, -1):
        if not coeffs[k]:
            continue
        mono = "1" if k == 0 else ("X" if k == 1 else f"X^{k}")
        bits.append(f"({coeffs[k]})*{mono}" if k else f"({coeffs[k]})")
    return " + ".join(bits) if bits else "0"


def cmd_factorize(cfg: RunConfig) -> str:
    if cfg.n is None:
        raise UsageError("factorize needs --n")
    p, q, ok = universal_factorization(cfg.r, cfg.n)
    if cfg.output == "json":
        return _json_doc({"command": "factorize", "r": cfg.r, "n": cfg.n,
                          "p": [co.to_json() for co in p],
                          "q": [co.to_json() for co in q],
                          "verified": ok})
    return (f"p(X) = {_xpoly_text(p)}\n"
            f"q(X) = {_xpoly_text(q)}\n"
            f"verified: {ok}\n")


# -- verification suites ----------------------------------------------------------


def _suite_golden(report) -> bool:
    ok = True
    res = star_oracle(StarOperator.plain(3, 2), Partition((2, 1)), 2)
    want = -c_(1) * (h_(1) * h_(2) - h_(3)) + c_(1) ** 2 * h_(2)
    ok &= report(res == want, "star action of X^3 (x) del^2 on (2,1), r=2")

    act = generating_action(Partition(()), 3, zmax=6)
    ok &= report(act.series.coeff(5, -1) == h_(4) - h_(1) * h_(3),
                 "z^5 w^-1 coefficient of the r=3 generating action")

    fin = generating_action_finite(Partition((2, 1)), 2, 4)
    want_terms = {
        (0, -1): {Partition((2,)): ONE},
        (1, -1): {Partition((2, 1)): ONE},
        (2, -1): {Partition((2, 2)): ONE},
        (0, -3): {Partition(()): -ONE},
        (2, -3): {Partition((1, 1)): ONE},
        (3, -3): {Partition((2, 1)): ONE},
    }
    ok &= report(fin.schur_form == want_terms,
                 "six-term Schur form of the (2,1) quotient action, r=2 n=4")
    return ok


def _suite_oracle(report, r: int, n: int) -> bool:
    """The closed form, the oracle and the index substitution agree."""
    ok = True
    for lam in partitions_in_rectangle(r, n - r):
        res = generating_action_finite(lam, r, n)
        for i in range(n):
            for j in range(n):
                image = quotient_action(i, j, lam, r, n)
                combinatorial = {} if image is None else dict([image])
                same = res.coords_at(i, j) == star_oracle_coords(
                    StarOperator.adapted(i, j), lam, r, n) == combinatorial
                ok &= report(same, f"lambda={lam} (i,j)=({i},{j})")
    return ok


def _suite_bracket(report, r: int, n: int) -> bool:
    ok = True
    top = min(n, 4)  # full quadruple sweep over [0, top-1]^4
    for a in range(top):
        for b in range(top):
            for c in range(top):
                for d in range(top):
                    ok &= report(bracket_check(a, b, c, d, r, n),
                                 f"bracket ({a},{b};{c},{d})")
    return ok


def _suite_factorize(report, n: int) -> bool:
    ok = True
    for nn in range(1, n + 1):
        for r in range(1, nn + 1):
            _, _, good = universal_factorization(r, nn)
            ok &= report(good, f"universal factorization r={r} n={nn}")
    return ok


def _suite_duality(report) -> bool:
    ok = True
    for i in range(9):
        u = convert_basis(ExtElement.vector(i, BasisTag.DEFORMED_XC),
                          BasisTag.PLAIN_X, None)
        for j in range(9):
            val = contract(DualDeltaForm(j), u, None).terms.get((), ZERO)
            want = ONE if i == j else ZERO
            ok &= report(val == want, f"dual form del^{j}(s) on X^{i}(c)")
    return ok


def _suite_ideal(report) -> bool:
    ok = True
    for (r, n) in ((2, 4), (3, 5)):
        for k in range(1, r + 1):
            gen = Partition((n - r + k,))
            dead = all(
                not star_oracle_coords(StarOperator.adapted(i, j), gen, r, n)
                for i in range(n) for j in range(n))
            ok &= report(dead, f"ideal generator index {n - r + k} dies, r={r} n={n}")
    return ok


def cmd_verify(cfg: RunConfig) -> str:
    lines: list[str] = []
    failures = 0

    def report(passed: bool, label: str) -> bool:
        nonlocal failures
        lines.append(("PASS " if passed else "FAIL ") + label)
        if not passed:
            failures += 1
        return passed

    suite = cfg.suite or "all"
    r = cfg.r
    n = cfg.n if cfg.n is not None else 4
    if not (1 <= r <= n):
        raise UsageError(f"verify needs 1 <= r <= n, got r={r}, n={n}")
    if suite in ("golden", "all"):
        _suite_golden(report)
    if suite in ("duality", "all"):
        _suite_duality(report)
    if suite in ("ideal", "all"):
        _suite_ideal(report)
    if suite in ("factorize", "all"):
        _suite_factorize(report, n)
    if suite in ("oracle", "all"):
        _suite_oracle(report, r, n)
    if suite in ("bracket", "all"):
        _suite_bracket(report, r, n)
    lines.append(f"{'OK' if not failures else 'FAILED'}: "
                 f"{len(lines) - failures}/{len(lines)} checks passed")
    doc = "\n".join(lines) + "\n"
    if failures:
        raise AlgebraError(doc)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uda",
        description="Exact gl-module structure of universal decomposition algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_lambda=True):
        p.add_argument("--r", type=int, required=True, help="degree of the factor")
        p.add_argument("--n", type=int, default=None,
                       help="degree of the generic polynomial (omit for the stable case)")
        if need_lambda:
            p.add_argument("--lambda", dest="lam", default=None,
                           help="partition as comma-separated parts, e.g. 2,1")
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--out", dest="out_path", default=None,
                       help="write the document to this path instead of stdout")

    common(sub.add_parser("giambelli", help="Schur determinant of a partition"))

    p_act = sub.add_parser("act", help="one star-action image")
    common(p_act)
    p_act.add_argument("--i", type=int, required=True)
    p_act.add_argument("--j", type=int, required=True)
    p_act.add_argument("--dual", choices=("none", "s"), default="none")
    p_act.add_argument("--no-project", dest="project", action="store_false")

    p_gen = sub.add_parser("genfun", help="generating function of all images")
    common(p_gen)
    p_gen.add_argument("--dual", choices=("none", "s"), default="s")
    p_gen.add_argument("--no-project", dest="project", action="store_false")
    p_gen.add_argument("--zmax", type=int, default=None)
    p_gen.add_argument("--wmin", type=int, default=None)
    p_gen.add_argument("--wmax", type=int, default=0)

    p_mat = sub.add_parser("matrix", help="representation matrix of one operator")
    common(p_mat, need_lambda=False)
    p_mat.add_argument("--i", type=int, required=True)
    p_mat.add_argument("--j", type=int, required=True)

    common(sub.add_parser("factorize", help="universal factorization"),
           need_lambda=False)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    common(p_ver, need_lambda=False)
    p_ver.add_argument("--suite", default="all",
                       choices=("golden", "oracle", "bracket", "factorize",
                                "duality", "ideal", "all"))
    return parser


_HANDLERS = {
    "giambelli": cmd_giambelli,
    "act": cmd_act,
    "genfun": cmd_genfun,
    "matrix": cmd_matrix,
    "factorize": cmd_factorize,
    "verify": cmd_verify,
}


_PARSER: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        cfg = RunConfig(
            command=args.command,
            r=getattr(args, "r", 1),
            n=getattr(args, "n", None),
            lam=parse_partition(getattr(args, "lam", None)),
            i=getattr(args, "i", None),
            j=getattr(args, "j", None),
            dual=getattr(args, "dual", "none"),
            zmax=getattr(args, "zmax", None),
            wmin=getattr(args, "wmin", None),
            wmax=getattr(args, "wmax", 0),
            project=getattr(args, "project", True),
            suite=getattr(args, "suite", None),
            output=args.output,
            out_path=args.out_path,
        )
        cfg.validate()
        doc = _HANDLERS[cfg.command](cfg)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AlgebraError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 2
    try:
        _emit(doc, cfg.out_path)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {cfg.out_path or 'stdout'}: "
                         f"{exc.strerror or exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
