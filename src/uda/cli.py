"""Command-line front end.

Subcommands: ``giambelli`` (Schur determinants), ``act`` (a single star
action), ``genfun`` (generating functions, projected or windowed),
``matrix`` (representation matrices), ``factorize`` (the universal
factorisation) and ``verify`` (the suites of ``uda.verify``).

Output is deterministic: identical configurations produce byte-identical
documents.  Exit codes: 0 success, 1 invalid configuration (the message
names the violated bound), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import AlgebraError
from .glaction import (StarOperator, generating_action,
                       generating_action_adapted, generating_action_finite,
                       quotient_action, rep_matrix, star_oracle_coords,
                       universal_factorization)
from .module_iso import schur_map_to_poly
from .partitions import Partition
from .poly import MvPolynomial, _PerMonomial, var_name
from .symfunc import giambelli
from .verify import SUITES


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


def _validate(args: argparse.Namespace):
    if args.r < 1:
        raise UsageError(f"--r must be at least 1, got {args.r}")
    if args.n is not None and not (1 <= args.r <= args.n):
        raise UsageError(f"need 1 <= r <= n, got r={args.r}, n={args.n}")
    if len(args.lam) > args.r:
        raise UsageError(f"--lambda {args.lam} is longer than r={args.r}")
    if args.n is not None and args.project and not args.lam.fits_rectangle(
            args.r, args.n - args.r):
        raise UsageError(
            f"--lambda {args.lam} does not fit the {args.r}x{args.n - args.r} rectangle")
    for name, val in (("--i", args.i), ("--j", args.j)):
        if val is None:
            continue
        if val < 0:
            raise UsageError(f"{name} must be nonnegative, got {val}")
        if args.n is not None and args.project and val > args.n - 1:
            raise UsageError(f"{name} must lie in [0, {args.n - 1}], got {val}")


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
    value to ``json.dumps``, re-indented to its depth.  An ``MvPolynomial``
    is written as its ``to_json()`` would be, straight from its terms.
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
    elif kind is MvPolynomial:
        _write_poly(obj, newline, out)
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


class _PowerText(dict):
    """``((family, index), exp) -> '"c1": exp'``, filled on first use."""

    def __missing__(self, power):
        var, exp = power
        text = self[power] = _encode_str(var_name(var)) + ": " + int.__repr__(exp)
        return text


_POWER_TEXT = _PowerText()
_MONO_TEXT = _PerMonomial(_POWER_TEXT.__getitem__)   # packed monomial -> texts


def _write_poly(p: MvPolynomial, newline: str, out: list[str]) -> None:
    """``p.to_json()`` through ``_write_json``, without building it."""
    i1 = newline + "  "
    terms = p._sorted()
    if not terms:
        out.append("{" + i1 + '"terms": []' + newline + "}")
        return
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    exps_open = "{" + i3 + '"exps": {' + i4
    exps_sep = "," + i4
    exps_close = i3 + "}"
    num = "," + i3 + '"num": "'
    den = '",' + i3 + '"den": "'
    close = '"' + i2 + "}"
    mono_text = _MONO_TEXT.__getitem__
    out.append("{" + i1 + '"terms": [' + i2)
    sep = ""
    for m, q in terms:
        if m:
            exps = exps_open + exps_sep.join(mono_text(m)) + exps_close
        else:
            exps = "{" + i3 + '"exps": {}'
        out.append(sep + exps + num + str(q.numerator) + den
                   + str(q.denominator) + close)
        sep = "," + i2
    out.append(i1 + "]" + newline + "}")


def cmd_giambelli(args: argparse.Namespace) -> str:
    delta = giambelli(args.lam, args.r, args.n)
    if args.output == "json":
        return _json_doc({"partition": args.lam.to_json(), "value": delta})
    return f"Delta_{args.lam} (r={args.r}, n={args.n}) = {delta}\n"


def cmd_act(args: argparse.Namespace) -> str:
    if args.i is None or args.j is None:
        raise UsageError("act needs --i and --j")
    quotient = args.n is not None and args.project
    if quotient and args.dual == "s":
        image = quotient_action(args.i, args.j, args.lam, args.r, args.n)
        coords = {} if image is None else dict([image])
    else:
        op = StarOperator.adapted if args.dual == "s" else StarOperator.plain
        coords = star_oracle_coords(op(args.i, args.j), args.lam, args.r,
                                    args.n, quotient=quotient)
    value = schur_map_to_poly(coords, args.r, args.n)
    if args.output == "json":
        schur = [{"partition": mu.to_json(), "coeff": str(coords[mu])}
                 for mu in sorted(coords)]
        return _json_doc({"command": "act", "r": args.r, "n": args.n,
                          "lambda": args.lam.to_json(), "i": args.i, "j": args.j,
                          "dual": args.dual, "projected": quotient,
                          "value": value, "schur": schur})
    return f"{value}\n"


def _action_text(res) -> str:
    lines = [f"lambda={res.lam} r={res.r} n={res.n} dual={res.dual}"]
    for (z, w) in sorted(res.schur_form, key=lambda k: (-k[1], k[0])):
        poly = schur_map_to_poly(res.schur_form[(z, w)], res.r, res.n)
        lines.append(f"z^{z} w^{w}: {poly}")
    if res.positive_w:
        lines.append(f"# {len(res.positive_w)} nonzero coefficients at positive "
                     "powers of w (no operator of the family); excluded above")
    return "\n".join(lines) + "\n"


def cmd_genfun(args: argparse.Namespace) -> str:
    if args.project:
        if args.n is None:
            raise UsageError("projected genfun needs --n (use --no-project otherwise)")
        if args.dual != "s":
            raise UsageError("the projected generating function lives on the "
                             "adapted dual basis; use --dual s or --no-project")
        res = generating_action_finite(args.lam, args.r, args.n)
    else:
        if args.zmax is None:
            raise UsageError("--no-project genfun needs --zmax")
        if args.dual == "s":
            if args.n is None:
                raise UsageError("--dual s needs --n (the number of c variables)")
            res = generating_action_adapted(args.lam, args.r, args.n, args.zmax,
                                            wmin=args.wmin, wmax=args.wmax)
        else:
            res = generating_action(args.lam, args.r, args.zmax,
                                    wmin=args.wmin, n=args.n)
    if args.output == "json":
        return _json_doc(res.to_json())
    return _action_text(res)


def cmd_matrix(args: argparse.Namespace) -> str:
    if args.n is None:
        raise UsageError("matrix needs --n")
    if args.i is None or args.j is None:
        raise UsageError("matrix needs --i and --j")
    mat = rep_matrix(args.i, args.j, args.r, args.n)
    if args.output == "json":
        return _json_doc(mat.to_json())
    lines = [f"operator (i={args.i}, j={args.j}) on the {mat.dimension}-dimensional "
             f"basis of the (r={args.r}, n={args.n}) quotient"]
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


def cmd_factorize(args: argparse.Namespace) -> str:
    if args.n is None:
        raise UsageError("factorize needs --n")
    p, q, ok = universal_factorization(args.r, args.n)
    if args.output == "json":
        return _json_doc({"command": "factorize", "r": args.r, "n": args.n,
                          "p": p, "q": q,
                          "verified": ok})
    return (f"p(X) = {_xpoly_text(p)}\n"
            f"q(X) = {_xpoly_text(q)}\n"
            f"verified: {ok}\n")


def cmd_verify(args: argparse.Namespace) -> str:
    n = 4 if args.n is None else args.n
    if not (1 <= args.r <= n):
        raise UsageError(f"verify needs 1 <= r <= n, got r={args.r}, n={n}")
    names = SUITES if args.suite == "all" else (args.suite,)
    checks = [check for name in names for check in SUITES[name](args.r, n)]
    failures = sum(not passed for passed, _ in checks)
    lines = [("PASS " if passed else "FAIL ") + label for passed, label in checks]
    lines.append(f"{'OK' if not failures else 'FAILED'}: "
                 f"{len(checks) - failures}/{len(checks)} checks passed")
    doc = "\n".join(lines) + "\n"
    if failures:
        raise AlgebraError(doc)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uda",
        description="Exact gl-module structure of universal decomposition algebras")
    # what main reads for every subcommand but only some define; a
    # subcommand's own default wins over these
    parser.set_defaults(lam=None, i=None, j=None, project=True)
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

    p_gia = sub.add_parser("giambelli", help="Schur determinant of a partition")
    common(p_gia)
    p_gia.set_defaults(project=False)  # no quotient element: any lambda fits

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
        args.lam = parse_partition(args.lam)
        _validate(args)
        doc = _HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AlgebraError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 2
    try:
        _emit(doc, args.out_path)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.out_path or 'stdout'}: "
                         f"{exc.strerror or exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
