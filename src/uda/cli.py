"""Command-line front end.

Subcommands: ``giambelli`` (Schur determinants), ``act`` (a single star
action), ``genfun`` (generating functions, projected or windowed),
``matrix`` (representation matrices), ``factorize`` (the universal
factorisation) and ``verify`` (the suites of ``uda.verify``).  One table,
``_COMMANDS``, holds each subcommand's help text, the function that adds
its arguments and its handler.

``main`` dispatches on the first argument: a known subcommand gets a parser
of its own, built from the table on its first call and reused after.  The
whole tree (``build_parser``) is built only for what it words: ``uda
--help``, a missing or unknown subcommand, and arguments the subcommand
does not recognize.  No parser is built at import.

Output is deterministic: identical configurations produce byte-identical
documents.  Exit codes: 0 success, 1 invalid configuration (the message
names the violated bound), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import AlgebraError
from .glaction import (StarOperator, _matrix_unit, generating_action,
                       generating_action_adapted, generating_action_finite,
                       rep_matrix, star_oracle_coords, universal_factorization)
from .module_iso import schur_map_to_poly
from .partitions import Partition, wedge_indices
from .poly import MvPolynomial, _PerMonomial, _TextTable, var_name
from .symfunc import giambelli, giambelli_term_bound
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


# power code of c1^exp -> '"c1": exp'; packed monomial -> (key, *power texts)
_POWER_TEXT = _TextTable(lambda v, e: _encode_str(var_name(v)) + ": "
                         + int.__repr__(e))
_MONO_TEXT = _PerMonomial(partial(map, _POWER_TEXT.__getitem__))


def _write_poly(p: MvPolynomial, newline: str, out: list[str]) -> None:
    """``p.to_json()`` through ``_write_json``, without building it."""
    i1 = newline + "  "
    terms = p._sorted(_MONO_TEXT)
    if not terms:
        out.append("{" + i1 + '"terms": []' + newline + "}")
        return
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    num = "," + i3 + '"num": "'
    exps_open = "{" + i3 + '"exps": {' + i4
    exps_sep = "," + i4
    exps_close = i3 + "}" + num
    no_exps = "{" + i3 + '"exps": {}' + num
    den = '",' + i3 + '"den": "'
    close = '"' + i2 + "}," + i2   # the comma after the last term is cut
    int_close = den + "1" + close
    texts = [(exps_open + exps_sep.join(entry[1:]) + exps_close
              if len(entry) > 1 else no_exps)
             + (int.__repr__(q) + int_close if type(q) is int
                else str(q.numerator) + den + str(q.denominator) + close)
             for entry, q in terms]
    texts[-1] = texts[-1][:-len(i2) - 1]
    out.append("{" + i1 + '"terms": [' + i2)
    out += texts
    out.append(i1 + "]" + newline + "}")


# the largest Schur determinant ``giambelli`` expands, as counted by
# ``giambelli_term_bound``: the column 1^22 (49,010 terms) takes about 1 s of
# CPU on a 2-vCPU Xeon VM, and every two more rows double the terms and the
# time; a column of a few hundred rows ended in a RecursionError
GIAMBELLI_MAX_TERMS = 50_000


def cmd_giambelli(args: argparse.Namespace) -> str:
    bound = giambelli_term_bound(args.lam, args.n)
    if bound > GIAMBELLI_MAX_TERMS:
        raise UsageError(f"--lambda {args.lam} expands to up to {bound} terms; "
                         f"giambelli expands at most {GIAMBELLI_MAX_TERMS}")
    delta = giambelli(args.lam, args.r, args.n)
    if args.output == "json":
        return _json_doc({"partition": args.lam.to_json(), "value": delta})
    return f"Delta_{args.lam} (r={args.r}, n={args.n}) = {delta}\n"


def cmd_act(args: argparse.Namespace) -> str:
    quotient = args.n is not None and args.project
    if args.dual == "s":   # the matrix unit E_ij, in and out of the quotient
        image = _matrix_unit(args.i, args.j, wedge_indices(args.lam, args.r))
        coords = {} if image is None else dict([image])
    else:
        coords = star_oracle_coords(StarOperator.plain(args.i, args.j), args.lam,
                                    args.r, args.n, quotient=quotient)
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
        for flag in ("zmax", "wmin", "wmax"):
            if getattr(args, flag) is not None:
                raise UsageError(f"projected genfun is exact at every operator "
                                 f"and takes no --{flag}; use --no-project "
                                 f"for a window")
        res = generating_action_finite(args.lam, args.r, args.n)
    else:
        if args.zmax is None:
            raise UsageError("--no-project genfun needs --zmax")
        if args.dual == "s":
            if args.n is None:
                raise UsageError("--dual s needs --n (the number of c variables)")
            res = generating_action_adapted(
                args.lam, args.r, args.n, args.zmax, wmin=args.wmin,
                wmax=0 if args.wmax is None else args.wmax)
        else:
            if args.wmax is not None:
                raise UsageError("--wmax applies to --dual s only; the plain "
                                 "generating function ends at w^0")
            res = generating_action(args.lam, args.r, args.zmax,
                                    wmin=args.wmin, n=args.n)
    if args.output == "json":
        return _json_doc(res.to_json())
    return _action_text(res)


def cmd_matrix(args: argparse.Namespace) -> str:
    if args.n is None:
        raise UsageError("matrix needs --n")
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


def _common(p: argparse.ArgumentParser, need_lambda=True,
            n_note="omit for the stable case", outputs=("text", "json")):
    p.add_argument("--r", type=int, required=True, help="degree of the factor")
    p.add_argument("--n", type=int, default=None,
                   help=f"degree of the generic polynomial ({n_note})")
    if need_lambda:
        p.add_argument("--lambda", dest="lam", default=None,
                       help="partition as comma-separated parts, e.g. 2,1")
    p.add_argument("--output", choices=outputs, default="text")
    p.add_argument("--out", dest="out_path", default=None,
                   help="write the document to this path instead of stdout")


def _giambelli_args(p):
    _common(p)
    p.set_defaults(project=False)  # no quotient element: any lambda fits


def _act_args(p):
    _common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--dual", choices=("none", "s"), default="none")
    p.add_argument("--no-project", dest="project", action="store_false")


def _genfun_args(p):
    _common(p)
    p.add_argument("--dual", choices=("none", "s"), default="s")
    p.add_argument("--no-project", dest="project", action="store_false")
    p.add_argument("--zmax", type=int, default=None)
    p.add_argument("--wmin", type=int, default=None)
    p.add_argument("--wmax", type=int, default=None,
                   help="top w-exponent of --dual s (default 0); K > 0 also "
                        "reads w^1..w^K, the images of X^i(c) (x) phi_k, "
                        "where phi_k(X^m) = s_{m+k}(c)")


def _matrix_args(p):
    _common(p, need_lambda=False)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)


def _verify_args(p):
    # verify writes a text report only, and without --n it runs n=4
    _common(p, need_lambda=False, n_note="default 4", outputs=("text",))
    p.add_argument("--suite", default="all",
                   choices=("golden", "oracle", "bracket", "factorize",
                            "duality", "ideal", "all"))


# subcommand -> (help, adds its arguments, handler), in the order of --help
_COMMANDS = {
    "giambelli": ("Schur determinant of a partition", _giambelli_args,
                  cmd_giambelli),
    "act": ("one star-action image", _act_args, cmd_act),
    "genfun": ("generating function of all images", _genfun_args, cmd_genfun),
    "matrix": ("representation matrix of one operator", _matrix_args,
               cmd_matrix),
    "factorize": ("universal factorization",
                  partial(_common, need_lambda=False), cmd_factorize),
    "verify": ("run a verification suite", _verify_args, cmd_verify),
}

# what main reads for every subcommand but only some define; a subcommand's
# own default wins over these
_DEFAULTS = {"lam": None, "i": None, "j": None, "project": True}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: ``uda --help``, and the wording of every error that
    is not one subcommand's own."""
    parser = argparse.ArgumentParser(
        prog="uda",
        description="Exact gl-module structure of universal decomposition algebras")
    parser.set_defaults(**_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


_PARSERS: dict[str | None, argparse.ArgumentParser] = {}  # None: the tree


def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of one subcommand, built the first time it is invoked, as
    the tree would build it; ``None`` asks for the tree."""
    parser = _PARSERS.get(command)
    if parser is None:
        if command is None:
            parser = build_parser()
        else:
            parser = argparse.ArgumentParser(prog=f"uda {command}")
            parser.set_defaults(command=command, **_DEFAULTS)
            _COMMANDS[command][1](parser)
        _PARSERS[command] = parser
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is not None:
        args, extra = _parser(command).parse_known_args(argv[1:])
        if not extra:
            return args
    # no subcommand, or arguments it does not know: the tree words the error
    return _parser(None).parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        args.lam = parse_partition(args.lam)
        _validate(args)
        doc = _COMMANDS[args.command][2](args)
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
