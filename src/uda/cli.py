"""Command-line front end.

Subcommands: ``giambelli`` (Schur determinants), ``act`` (a single star
action), ``genfun`` (generating functions, projected or windowed),
``matrix`` (representation matrices), ``factorize`` (the universal
factorisation) and ``verify`` (the suites of ``uda.verify``).  One table,
``_COMMANDS``, holds each subcommand's help text, its arguments (``_Arg``
declarations: flag, dest, type, choices, default, required, store_false,
help), its own defaults and its handler.

``main`` reads a well-formed call straight from that table (``_scan``,
through ``_FLAGS``, each subcommand's flags indexed once at import): exact
flags, each value of its declared type and among its choices, every
required flag given.  No parser is built for it.  Any other argv (help,
abbreviations, ``--flag=value``, unknown or bad arguments) is parsed, and
its help or error worded, by the whole argparse tree (``build_parser``),
fed the same declarations.  No parser is built at import.

Output is deterministic: identical configurations produce byte-identical
documents; a ``genfun`` document is written in one pass over the operator
images of ``glaction._images``, which come in its order.  Exit codes: 0
success, 1 invalid configuration (the message names the violated bound), 2
internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Mapping
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import AlgebraError
from .glaction import (_columns, _images, operator_image,
                       universal_factorization)
from .module_iso import schur_map_to_poly
from .partitions import Partition
from .poly import (_EXPS_CLOSE, _EXPS_OPEN, _JSON, _JSON_SEP, _PARTS, FAM_C,
                   FAM_E, MvPolynomial)
from .symfunc import (giambelli, giambelli_h_term_count, giambelli_term_bound,
                      x_power_term_count)
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
    is written as its ``to_json()`` would be, straight from its terms.  The
    ``matrix`` and ``genfun`` documents have writers of their own,
    ``_matrix_json`` and ``_genfun_json``.
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


# a polynomial's JSON around its terms' part fragments (``poly._PARTS``),
# at their depth: the value of a top-level key
_POLY_NEWLINE = "\n  "
_NO_TERMS = '{\n    "terms": []\n  }'
_TERMS_OPEN = '{\n    "terms": [\n      '
_TERMS_CLOSE = "\n    ]\n  }"
_NO_EXPS = '{\n        "exps": {},\n        "num": "'
_DEN = '",\n        "den": "'
_TERM_SEP = ",\n      "   # cut after the last term
_TERM_CLOSE = '"\n      }' + _TERM_SEP
_INT_CLOSE = _DEN + "1" + _TERM_CLOSE


def _write_poly(p: MvPolynomial, newline: str, out: list[str]) -> None:
    """``p.to_json()`` through ``_write_json``, without building it.

    A term is the JSON fragments of its c-, e- and h-parts, the first
    non-empty one without its separator, then its coefficient: the c-part's
    opens "exps" and the h-part's closes it.  The fragments are written at
    the depth of a top-level value; a polynomial at any other depth is
    written there and its block re-indented once."""
    if newline != _POLY_NEWLINE:
        block: list[str] = []
        _write_poly(p, _POLY_NEWLINE, block)
        out.append("".join(block).replace(_POLY_NEWLINE, newline))
        return
    rows = p._sorted()
    if not rows:
        out.append(_NO_TERMS)
        return
    # the empty c- and e-parts' entries, None where no row has them
    c0, e0 = _PARTS[FAM_C].get(0), _PARTS[FAM_E].get(0)
    texts = [(c[_JSON] + e[_JSON_SEP] + h[_JSON_SEP] if c is not c0
              else c[_JSON] + e[_JSON] + h[_JSON_SEP] if e is not e0
              else c[_JSON] + h[_JSON])
             + (int.__repr__(q) + _INT_CLOSE if type(q) is int
                else str(q.numerator) + _DEN + str(q.denominator) + _TERM_CLOSE)
             for _, c, e, h, q, _ in rows]
    last = texts[-1]
    if not rows[-1][5]:   # the constant term comes last, with no members
        last = _NO_EXPS + last[len(_EXPS_OPEN + _EXPS_CLOSE):]
    texts[-1] = last[:-len(_TERM_SEP)]
    out.append(_TERMS_OPEN)
    out += texts
    out.append(_TERMS_CLOSE)


def _parts(lam, indent: str) -> str:
    """A partition's ``to_json()`` list, written at ``indent``."""
    inner = indent + "  "
    return ("[" + inner + ("," + inner).join(map(str, lam)) + indent + "]"
            if lam else "[]")


def _items(texts: list[str], indent: str) -> str:
    """A list of written items, written at ``indent``."""
    inner = indent + "  "
    return ("[" + inner + ("," + inner).join(texts) + indent + "]"
            if texts else "[]")


def _matrix_json(i: int, j: int, r: int, n: int,
                 columns: Mapping[Partition, tuple[Partition, int] | None]) -> str:
    """``_json_doc(rep_matrix(i, j, r, n))`` written straight from the
    column map of E_ij (``_columns``).  ``to_json`` sorts the entries by
    column, then row; the map lists the columns in basis order, each with
    one entry at most, so they are written in its order."""
    row = '{\n      "row": '
    col = ',\n      "col": '
    coeff = ',\n      "coeff": "'
    close = '"\n    }'
    return (
        f'{{\n  "i": {i},\n  "j": {j},\n  "r": {r},\n  "n": {n},'
        f'\n  "dimension": {len(columns)},\n  "basis": '
        + _items([_parts(lam, "\n    ") for lam in columns], "\n  ")
        + ',\n  "entries": '
        + _items([row + _parts(image[0], "\n      ") + col
                  + _parts(lam, "\n      ") + coeff + str(image[1]) + close
                  for lam, image in columns.items() if image], "\n  ")
        + "\n}\n")


# a genfun document, one of its terms and one coordinate of a term's image
_GENFUN = '{\n  "lambda": %s,\n  "r": %d,\n  "n": %s,\n  "dual": "%s",\n  "terms": %s\n}\n'
_TERM = '{\n      "z": %d,\n      "w": %d,\n      "schur": [\n        %s\n      ]\n    }'
_COORD = '{\n          "partition": %s,\n          "coeff": %s\n        }'


def _genfun_json(lam: Partition, r: int, n: int | None, dual: str,
                 images: Iterable) -> str:
    """The JSON document of the generating function of lam whose images at
    w <= 0 are ``images`` (``glaction._images``), as ``_json_doc`` would
    write it, in one pass over them: they come in the order of the terms,
    (-w, z), each with its coordinates sorted by partition."""
    terms = [_TERM % (i, w, ",\n        ".join([
        _COORD % (_parts(mu, "\n          "), _encode_str(str(c))) for mu, c in coords]))
        for i, w, coords in images]
    return _GENFUN % (_parts(lam, "\n  "), r, "null" if n is None else n, dual,
                      "[\n    " + ",\n    ".join(terms) + "\n  ]" if terms else "[]")


# the largest Schur determinant ``giambelli`` expands, as counted by
# ``giambelli_term_bound``: the column 1^22 (49,010 terms) takes 1.1-1.2 s of
# CPU and peaks at 83 MB in a process of its own on a 2-vCPU Xeon VM (1.3-1.6 s
# and 180 MB when its minors kept every box), and every two more rows double
# the terms and the time; a column of a few hundred rows ended in a
# RecursionError.  Plain
# ``act`` takes as many terms of X^i over the deformed basis: X^32 (43,820)
# takes 1.6-2.3 s in a process of its own, and X^40 (215,308) took 9.1 s
GIAMBELLI_MAX_TERMS = 50_000

# the largest variable index, lam_1 + len(lam) - 1, of a Schur determinant
# ``giambelli`` expands: every packed monomial is as wide as all the fields
# the process has made, so one part of N (N + 1 terms over 2N variables)
# takes 1.2 s of CPU and peaks at 230 MB at N = 5000 on a 2-vCPU Xeon VM,
# and 2.8 s and 558 MB at N = 8000; it also bounds the list of
# ``giambelli_term_bound``, which is as long as |lam|
GIAMBELLI_MAX_INDEX = 5_000

# the most parts of a Schur determinant ``giambelli`` expands: the bound of
# lam is at least that of the column 1^len(lam) (add lam_i - 1 to row i of
# each h-part of a monomial counted for the column), which is at least
# p(len(lam)), and p(42) = 53,174 exceeds GIAMBELLI_MAX_TERMS; refusing on
# the length alone spares the term bound, which loops len(lam) * |lam| times
GIAMBELLI_MAX_PARTS = 41


def _check_schur_det(lam: Partition, n: int | None, name: str) -> None:
    """Raise ``UsageError``, naming lam as ``name`` and the bound, unless
    ``giambelli`` expands the Schur determinant of lam within its limits."""
    top = lam.part(1) + len(lam) - 1
    if top > GIAMBELLI_MAX_INDEX:
        raise UsageError(f"{name} {lam} uses the variable index {top}; "
                         f"giambelli takes indices up to {GIAMBELLI_MAX_INDEX}")
    if len(lam) > GIAMBELLI_MAX_PARTS:
        raise UsageError(f"{name} {lam} has {len(lam)} parts; past "
                         f"{GIAMBELLI_MAX_PARTS} parts the term bound exceeds "
                         f"{GIAMBELLI_MAX_TERMS}, and giambelli expands at "
                         f"most {GIAMBELLI_MAX_TERMS}")
    count = giambelli_h_term_count(lam)
    if count > GIAMBELLI_MAX_TERMS:
        raise UsageError(f"{name} {lam} may expand to {count} monomials in h "
                         f"alone; giambelli expands at most {GIAMBELLI_MAX_TERMS}")
    bound = giambelli_term_bound(lam, n)
    if bound > GIAMBELLI_MAX_TERMS:
        raise UsageError(f"{name} {lam} expands to up to {bound} terms; "
                         f"giambelli expands at most {GIAMBELLI_MAX_TERMS}")


def cmd_giambelli(args: argparse.Namespace) -> str:
    _check_schur_det(args.lam, args.n, "--lambda")
    delta = giambelli(args.lam, args.r, args.n)
    if args.output == "json":
        return _json_doc({"partition": args.lam.to_json(), "value": delta})
    return f"Delta_{args.lam} (r={args.r}, n={args.n}) = {delta}\n"


def _check_widths(lam: Partition, *named: tuple[str, int]) -> None:
    """Refuse, before any algebra, a named operator index or a variable index
    of lam above ``GIAMBELLI_MAX_INDEX``: the operators and the Maya diagram
    of lam are as wide as these indices."""
    for name, val in (*named, ("the variable index of --lambda",
                               lam.part(1) + len(lam) - 1)):
        if val > GIAMBELLI_MAX_INDEX:
            raise UsageError(f"{name} must be at most {GIAMBELLI_MAX_INDEX}, "
                             f"the giambelli index bound, got {val}")


def _check_work(flag: str, work: str, count: int, unit: str, command: str,
                limit: int = GIAMBELLI_MAX_TERMS) -> None:
    """Refuse, before any algebra, what ``flag`` asks ``command`` for when
    ``count``, a deterministic estimate of the ``unit`` that ``work``
    expands to, passes ``limit``."""
    if count > limit:
        raise UsageError(f"{flag}: {work} expands to at least {count} {unit}; "
                         f"{command} expands at most {limit}")


def _check_x_power(flag: str, i: int, n: int | None, command: str) -> None:
    """``_check_work`` on the terms of a plain X^i over the deformed basis."""
    _check_work(f"{flag} {i}", f"X^{i}", x_power_term_count(
        i, n, GIAMBELLI_MAX_TERMS), "terms over the deformed basis", command)


def cmd_act(args: argparse.Namespace) -> str:
    _check_widths(args.lam, ("--i", args.i), ("--j", args.j))
    if args.dual != "s":   # the oracle expands the plain X^i first
        _check_x_power("--i", args.i, args.n, "act")
    quotient = args.n is not None and args.project
    coords = operator_image(args.i, -args.j, args.lam, args.r, args.n,
                            "adapted" if args.dual == "s" else "plain",
                            quotient=quotient)
    for mu in coords:
        _check_schur_det(mu, args.n, "the image's partition")
    value = schur_map_to_poly(coords, args.r, args.n)
    if args.output == "json":
        schur = [{"partition": mu.to_json(), "coeff": str(coords[mu])}
                 for mu in sorted(coords)]
        return _json_doc({"command": "act", "r": args.r, "n": args.n,
                          "lambda": args.lam.to_json(), "i": args.i, "j": args.j,
                          "dual": args.dual, "projected": quotient,
                          "value": value, "schur": schur})
    return f"{value}\n"


def _action_text(lam: Partition, r: int, n: int | None, dual: str,
                 images: list) -> str:
    """The text document of the generating function whose images are
    ``images`` (``glaction._images``), in the order of its lines, (-w, z).
    Each distinct image is expanded and rendered once: the diagonal images
    of lam repeat, and a Schur determinant of r rows is built anew on each
    ``giambelli`` call."""
    lines = [f"lambda={lam} r={r} n={n} dual={dual}"]
    texts: dict[tuple, str] = {}
    for z, w, coords in images:
        if w <= 0:
            key = tuple(coords)
            text = texts.get(key)
            if text is None:
                text = texts[key] = str(schur_map_to_poly(dict(coords), r, n))
            lines.append(f"z^{z} w^{w}: {text}")
    if positive := sum(w > 0 for _, w, _ in images):
        lines.append(f"# {positive} nonzero coefficients at positive "
                     "powers of w (no operator of the family); excluded above")
    return "\n".join(lines) + "\n"


# the most partition parts the images of an adapted genfun may list, r for
# each image: a matrix unit moves a particle to a hole or keeps it, so the
# quotient holds at most r(n-r+1) images and a window up to z^zmax at most
# r(zmax+1).  At (10,5001), 499,200 parts, the JSON document takes 1.4 s of
# CPU and 107 MB in a process of its own on a 2-vCPU Xeon VM; (14,5001),
# 977,368 parts, took 1.9 s and 151 MB, and (2500,2520), 131 million, 40 s
# and 3.2 GB for a 946 MB document
GENFUN_MAX_IMAGE_PARTS = 500_000


def _check_image_parts(r: int, images: int, bound: str) -> None:
    """Refuse, before any algebra, an adapted genfun of more than
    ``GENFUN_MAX_IMAGE_PARTS`` image parts, r for each of its at most
    ``images`` images; ``bound`` words that count."""
    count = r * images
    if count > GENFUN_MAX_IMAGE_PARTS:
        raise UsageError(f"genfun may list up to {count} partition parts, r={r} "
                         f"for each of up to {images} images ({bound}); it "
                         f"lists at most {GENFUN_MAX_IMAGE_PARTS}")


# the most terms a --no-project --dual s window reaching w^1 .. w^K may form,
# counted in T, the terms of s(c) up to s_(top+K), top = r-1+lam_1 being the
# top particle: n T for that table (each s_j sums up to n products), r
# (min(top, n) + 1) T for phi_1 .. phi_K on the r particles, and r (zmax + 1)
# T for the images, one copy for each power of X(c) up to X^zmax(c).
# At r=1, n=4 it takes 0.6 s of CPU and 85 MB for K=100 (1.29 million) and
# 2.6 s and 361 MB for K=150 in a process of its own on a 2-vCPU Xeon VM;
# --zmax 400 --wmax 60 (12.9 million) took 3.0 s and 983 MB
GENFUN_MAX_POSITIVE_W_TERMS = 2_000_000

# the most form values a plain --no-project window may read: each of its
# (zmax+1)(r+lam_1) operators values del^j on all r particles, X^b(c) for the
# particle at b over the plain basis, whose c-variables widen every packed
# monomial.  At zmax=0 it takes 1.5-2.4 s of CPU and 172 MB at r=632
# (399,424) and 2.4 s and 219 MB at r=700 in a process of its own on a
# 2-vCPU Xeon VM; zmax=2 took 6.3 s and 533 MB at r=1000 and 30 s and
# 3.45 GB at r=2000 (wall time)
GENFUN_MAX_FORM_VALUES = 400_000

# the most terms a plain --no-project window may hold: the image of X^i
# (x) del^j keeps up to one coordinate per term of X^i over the deformed
# basis and particle, so the window counts the terms of X^0 .. X^zmax times
# r.  At n=1 (i+1 terms in X^i) r=1 zmax=998 (501,501) takes 3.3 s of CPU
# and 319 MB, and n=2 r=2 zmax=180 (1,037,322) 2.8 s and 293 MB, in a
# process of its own on a 2-vCPU Xeon VM; n=1 zmax=5000 (12.5 million)
# grew past 5 GB, and n=2 r=2 zmax=430 (13.5 million) ran out of a 1.5 GB
# address space
GENFUN_MAX_WINDOW_TERMS = 500_000


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
        _check_widths(args.lam, ("the top operator index n-1", args.n - 1))
        _check_image_parts(args.r, args.r * (args.n - args.r + 1), "r(n-r+1)")
        dual, window = "adapted", (args.n - 1, None, 0)
    else:
        if args.zmax is None:
            raise UsageError("--no-project genfun needs --zmax")
        _check_widths(args.lam, ("--zmax", args.zmax))
        if args.dual == "s":
            if args.n is None:
                raise UsageError("--dual s needs --n (the number of c variables)")
            _check_image_parts(args.r, args.r * (args.zmax + 1), "r(zmax+1)")
            wmax = 0 if args.wmax is None else args.wmax
            if wmax > 0:
                top = args.r - 1 + args.lam.part(1)
                _check_widths(args.lam, ("the top particle plus --wmax", top + wmax))
                times = args.n + args.r * (min(top, args.n) + args.zmax + 2)
                _check_work(
                    f"--wmax {wmax}", f"the window z^0 .. z^{args.zmax}, w^1 .. "
                    f"w^{wmax} on r={args.r} particles",
                    times * x_power_term_count(
                        top + wmax, args.n, GENFUN_MAX_POSITIVE_W_TERMS // times),
                    f"terms from s(c) up to s_{top + wmax}", "genfun",
                    GENFUN_MAX_POSITIVE_W_TERMS)
            # the JSON document leaves w^1 .. w^wmax out, so it asks for
            # none of them; a valid window wholly above w^0 lists no term and
            # asks for nothing, and an invalid one is asked as given, to be
            # refused
            if args.output == "json":
                if args.wmin is None or args.wmin <= 0:
                    wmax = min(wmax, 0)
                elif args.wmin <= wmax and args.zmax >= 0:
                    return _genfun_json(args.lam, args.r, args.n, "adapted", ())
            dual, window = "adapted", (args.zmax, args.wmin, wmax)
        else:
            if args.wmax is not None:
                raise UsageError("--wmax applies to --dual s only; the plain "
                                 "generating function ends at w^0")
            # the oracle expands every plain X^i, i <= zmax, first
            _check_x_power("--zmax", args.zmax, args.n, "genfun")
            _check_work(f"--zmax {args.zmax}", f"X^0 .. X^{args.zmax} on r={args.r} "
                        "particles", args.r * x_power_term_count(
                            args.zmax, args.n, GENFUN_MAX_WINDOW_TERMS // args.r,
                            every_power=True),
                        "terms over the deformed basis", "genfun",
                        GENFUN_MAX_WINDOW_TERMS)
            width = args.r + args.lam.part(1)
            _check_work(f"--r {args.r}", f"the window z^0 .. z^{args.zmax}, w^0 .. "
                        f"w^-{width - 1} on r={args.r} particles",
                        (args.zmax + 1) * width * args.r, "form values", "genfun",
                        GENFUN_MAX_FORM_VALUES)
            dual, window = "plain", (args.zmax, args.wmin, 0)
    images = _images(args.lam, args.r, args.n, dual, window)
    if args.output == "json":
        return _genfun_json(args.lam, args.r, args.n, dual, images)
    images = list(images)
    for mu in sorted({mu for _, w, coords in images if w <= 0 for mu, _ in coords}):
        _check_schur_det(mu, args.n, "the image's partition")
    return _action_text(args.lam, args.r, args.n, dual, images)


# the largest quotient ``matrix`` renders and ``verify --suite bracket``
# checks, in basis elements C(n, r): at (9,18), 48,620 columns, the document
# takes 0.7-1.2 s of CPU and 37 MB as text and 0.8-1.5 s and 53-65 MB as JSON,
# and the bracket suite 4.6 s and 86 MB, in a process of its own on a 2-vCPU
# Xeon VM; (10,20), at 184,756, took 3.2 s and 102 MB as text, and the suite
# at (30,60) ran out of a 1 GB address space
MATRIX_MAX_DIMENSION = 50_000


def _binomial(n: int, r: int, stop: int) -> int:
    """C(n, r), the dimension of the (r, n) quotient, counted one factor at
    a time: exact up to ``stop``, and a count above it once past it, where
    the count stops (math.comb alone takes 13 s at C(10^6, 5 * 10^5))."""
    dim = 1
    for t in range(min(r, n - r)):
        dim = dim * (n - t) // (t + 1)
        if dim > stop:
            break
    return dim


def _check_dimension(r: int, n: int, work: str) -> None:
    """Refuse, before any algebra, a quotient of more than
    ``MATRIX_MAX_DIMENSION`` basis elements, for which ``work`` words what
    is asked."""
    if _binomial(n, r, MATRIX_MAX_DIMENSION) > MATRIX_MAX_DIMENSION:
        raise UsageError(f"the (r={r}, n={n}) quotient has more than "
                         f"{MATRIX_MAX_DIMENSION} basis elements; {work} "
                         f"at most {MATRIX_MAX_DIMENSION}")


def cmd_matrix(args: argparse.Namespace) -> str:
    if args.n is None:
        raise UsageError("matrix needs --n")
    _check_dimension(args.r, args.n, "matrix renders")
    # a matrix unit moves each column to one row at most
    columns = _columns(args.i, args.j, args.r, args.n)
    if args.output == "json":
        return _matrix_json(args.i, args.j, args.r, args.n, columns)
    lines = [f"operator (i={args.i}, j={args.j}) on the {len(columns)}-dimensional "
             f"basis of the (r={args.r}, n={args.n}) quotient"]
    lines += [f"D{lam} -> {'0' if image is None else f'{image[1]}*D{image[0]}'}"
              for lam, image in columns.items()]
    return "\n".join(lines) + "\n"


def _xpoly_text(coeffs) -> str:
    bits = []
    for k in range(len(coeffs) - 1, -1, -1):
        if not coeffs[k]:
            continue
        mono = "1" if k == 0 else ("X" if k == 1 else f"X^{k}")
        bits.append(f"({coeffs[k]})*{mono}" if k else f"({coeffs[k]})")
    return " + ".join(bits) if bits else "0"


# the most term reads the factorize check may make: it projects each
# coefficient of p*q - f, converting wedges of r factors over s(c) up to
# s_(n+r-1), and its CPU time follows r (min(r, n-r) + 1) times the terms of
# that table, 0.7-3.8 * 10^-5 s each over 31 runs, each in a process of its
# own, with r = 1 .. 14 on a 2-vCPU Xeon VM.  (7,14), at 149,464, takes
# 1.0 s and (13,13), at 112,814, 4.1 s; (8,16), at 409,536, took 3.9 s,
# (10,20) 37 s, r=1 n=44 (903,002) 17 s and 401 MB, and r=1 n=70 ran out of
# a 1 GB address space.  ``verify --suite factorize`` takes the same limit on
# the sum over its checks of every r' <= n' <= n: n = 9 (112,902) takes
# 0.75 s, n = 10 (256,686) took 1.9 s and n = 12 passed 60 s
FACTORIZE_MAX_TERM_READS = 150_000


def _factorize_reads(r: int, n: int, stop: int) -> int:
    """The term reads of the factorize check of (r, n): r (min(r, n-r) + 1)
    for each term of s_0(c) .. s_(n+r-1)(c), exact up to ``stop`` and a
    count above it past that."""
    weight = r * (min(r, n - r) + 1)
    return weight * x_power_term_count(n + r - 1, n, stop // weight)


def _factorize_suite_reads(n: int, stop: int) -> int:
    """The term reads of ``verify --suite factorize`` at n, the factorize
    check of every r' <= n' <= n, exact up to ``stop`` and a count above it
    past that, where the sum stops."""
    reads = 0
    for nn in range(1, n + 1):
        for rr in range(1, nn + 1):
            reads += _factorize_reads(rr, nn, stop - reads)
            if reads > stop:
                return reads
    return reads


def cmd_factorize(args: argparse.Namespace) -> str:
    if args.n is None:
        raise UsageError("factorize needs --n")
    _check_work(f"--r {args.r} --n {args.n}", f"the check of r={args.r} factors "
                f"over s_0(c) .. s_{args.n + args.r - 1}(c)", _factorize_reads(
                    args.r, args.n, FACTORIZE_MAX_TERM_READS),
                "term reads, r (min(r, n-r) + 1) for each term of those s_k(c)",
                "factorize", FACTORIZE_MAX_TERM_READS)
    p, q, ok = universal_factorization(args.r, args.n)
    if args.output == "json":
        return _json_doc({"command": "factorize", "r": args.r, "n": args.n,
                          "p": p, "q": q,
                          "verified": ok})
    return (f"p(X) = {_xpoly_text(p)}\n"
            f"q(X) = {_xpoly_text(q)}\n"
            f"verified: {ok}\n")


# the most steps ``verify --suite oracle`` may take: for each of the C(n, r)
# basis elements lam, n^2 oracle calls and the closed form of lam, whose
# coefficients hold up to T terms, T the term bound of the Schur determinant
# of (n-r+1)^r, each projected over the X terms of s(c) up to s_(ztop+r),
# ztop = n-1+max(2, r) the top power of z it checks, so C(n, r) (n^2 + T X)
# in all.  A step took 1.1-3.1 * 10^-6 s of CPU over 18 runs from (3,4) to
# (6,7), each in a process of its own on a 2-vCPU Xeon VM: (3,6), at 984,300,
# takes 1.1 s and (8,8), at 744,874, 1.9 s; (5,6), at 1,102,788, took 2.2-2.4
# s, (9,9) (2,527,281) 6.8 s and 135 MB, (1,24) (7,051,224) 22 s and 365 MB,
# (6,7) (7,753,242) 20 s and 180 MB, and (4,7) 40 s, while (1,28) passed 45
# s and 800 MB, and (1,400) and (2,40) 30 s
ORACLE_MAX_STEPS = 1_000_000


def _oracle_suite_steps(r: int, n: int, stop: int) -> int:
    """The steps of ``verify --suite oracle`` at (r, n), C(n, r) (n^2 + T X)
    as ``ORACLE_MAX_STEPS`` counts them, exact up to ``stop`` and a count
    above it past that: the closed-form term is counted only once C(n, r)
    n^2 is within ``stop``."""
    dim = _binomial(n, r, stop // (n * n))
    if dim * n * n > stop:
        return dim * n * n
    size = giambelli_term_bound(Partition((n - r + 1,) * r), n)
    return dim * (n * n + size * x_power_term_count(
        n + r - 1 + max(2, r), n, stop // (dim * size)))


def cmd_verify(args: argparse.Namespace) -> str:
    n = 4 if args.n is None else args.n
    if not (1 <= args.r <= n):
        raise UsageError(f"verify needs 1 <= r <= n, got r={args.r}, n={n}")
    names = SUITES if args.suite == "all" else (args.suite,)
    if "factorize" in names:
        _check_work(f"--n {n}", f"the factorize suite over 1 <= r' <= n' <= {n}",
                    _factorize_suite_reads(n, FACTORIZE_MAX_TERM_READS),
                    "term reads, as factorize counts them for each (r', n')",
                    "verify", FACTORIZE_MAX_TERM_READS)
    if "oracle" in names:
        _check_work(f"--r {args.r} --n {n}", f"the oracle suite of the (r={args.r}, "
                    f"n={n}) quotient", _oracle_suite_steps(args.r, n, ORACLE_MAX_STEPS),
                    "steps, n^2 oracle calls and the closed form's term reads for "
                    "each basis element", "verify", ORACLE_MAX_STEPS)
    if "bracket" in names:
        _check_dimension(args.r, n, "the bracket suite checks")
    checks = [check for name in names for check in SUITES[name](args.r, n)]
    failures = sum(not passed for passed, _ in checks)
    lines = [("PASS " if passed else "FAIL ") + label for passed, label in checks]
    lines.append(f"{'OK' if not failures else 'FAILED'}: "
                 f"{len(checks) - failures}/{len(checks)} checks passed")
    doc = "\n".join(lines) + "\n"
    if failures:
        raise AlgebraError(doc)
    return doc


class _Arg:
    """One argument of a subcommand, as ``add_argument`` takes it and as the
    scan of ``_scan`` reads it.  A ``store_false`` flag takes no value and
    defaults to True."""

    __slots__ = ("flag", "dest", "type", "choices", "default", "required",
                 "store_false", "help")

    def __init__(self, flag, dest=None, type=None, choices=None, default=None,
                 required=False, store_false=False, help=None):
        self.flag = flag
        self.dest = dest or flag[2:].replace("-", "_")
        self.type = type
        self.choices = choices
        self.default = True if store_false else default
        self.required = required
        self.store_false = store_false
        self.help = help

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.store_false:
            parser.add_argument(self.flag, dest=self.dest, action="store_false",
                                help=self.help)
        else:
            parser.add_argument(self.flag, dest=self.dest, type=self.type,
                                choices=self.choices, default=self.default,
                                required=self.required, help=self.help)


_R = _Arg("--r", type=int, required=True, help="degree of the factor")
_N = _Arg("--n", type=int,
          help="degree of the generic polynomial (omit for the stable case)")
_LAMBDA = _Arg("--lambda", dest="lam",
               help="partition as comma-separated parts, e.g. 2,1")
_OUTPUT = _Arg("--output", choices=("text", "json"), default="text")
_OUT = _Arg("--out", dest="out_path",
            help="write the document to this path instead of stdout")
_I = _Arg("--i", type=int, required=True)
_J = _Arg("--j", type=int, required=True)
_NO_PROJECT = _Arg("--no-project", dest="project", store_false=True)
_COMMON = (_R, _N, _LAMBDA, _OUTPUT, _OUT)

# subcommand -> (help, its arguments in the order of its usage line, its own
# defaults, handler), in the order of --help
_COMMANDS = {
    # no quotient element: any lambda fits
    "giambelli": ("Schur determinant of a partition", _COMMON,
                  {"project": False}, cmd_giambelli),
    "act": ("one star-action image",
            (*_COMMON, _I, _J,
             _Arg("--dual", choices=("none", "s"), default="none"),
             _NO_PROJECT),
            {}, cmd_act),
    "genfun": ("generating function of all images",
               (*_COMMON,
                _Arg("--dual", choices=("none", "s"), default="s"),
                _NO_PROJECT,
                _Arg("--zmax", type=int),
                _Arg("--wmin", type=int),
                _Arg("--wmax", type=int,
                     help="top w-exponent of --dual s (default 0); K > 0 also "
                          "reads w^1..w^K, the images of X^i(c) (x) phi_k, "
                          "where phi_k(X^m) = s_{m+k}(c)")),
               {}, cmd_genfun),
    "matrix": ("representation matrix of one operator",
               (_R, _N, _OUTPUT, _OUT, _I, _J), {}, cmd_matrix),
    "factorize": ("universal factorization", (_R, _N, _OUTPUT, _OUT), {},
                  cmd_factorize),
    # verify writes a text report only, and without --n it runs n=4
    "verify": ("run a verification suite",
               (_R, _Arg("--n", type=int, help="degree of the generic "
                         "polynomial (default 4)"),
                _Arg("--output", choices=("text",), default="text"), _OUT,
                _Arg("--suite", default="all",
                     choices=("golden", "oracle", "bracket", "factorize",
                              "duality", "ideal", "all"))),
               {}, cmd_verify),
}

# what main reads for every subcommand but only some define; a subcommand's
# own default wins over these
_DEFAULTS = {"lam": None, "i": None, "j": None, "project": True}

# subcommand -> ({flag: its _Arg}, the dests it requires, the namespace main
# reads when no flag is given), the table ``_scan`` reads argv against
_FLAGS = {name: ({arg.flag: arg for arg in arguments},
                 [arg.dest for arg in arguments if arg.required],
                 {"command": name, **_DEFAULTS, **defaults,
                  **{arg.dest: arg.default for arg in arguments}})
          for name, (_, arguments, defaults, _) in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree, which parses every argv that ``_scan`` declines and
    words its help and errors."""
    parser = argparse.ArgumentParser(
        prog="uda",
        description="Exact gl-module structure of universal decomposition algebras")
    parser.set_defaults(**_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, defaults, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for arg in arguments:
            arg.add_to(command)
        command.set_defaults(**defaults)
    return parser


def _scan(command: str, argv: list[str]) -> argparse.Namespace | None:
    """The namespace that ``build_parser()`` returns for ``[command,
    *argv]``, read from the subcommand's declarations with no parser built;
    None unless argv has the canonical form: exact flags, each valued flag
    followed by a value that does not start with ``-``, of its type and
    among its choices, and every required flag given (a repeated flag's
    last value wins).  Help, abbreviations, ``--flag=value``, negative
    numbers, ``--``, unknown tokens, bad values and missing flags are
    argparse's."""
    by_flag, required, unset = _FLAGS[command]
    given = {}
    k, end = 0, len(argv)
    while k < end:
        arg = by_flag.get(argv[k])
        if arg is None:
            return None
        if arg.store_false:
            given[arg.dest] = False
            k += 1
            continue
        if k + 1 == end or argv[k + 1].startswith("-"):
            return None
        value = argv[k + 1]
        if arg.type is not None:
            try:
                value = arg.type(value)
            except (TypeError, ValueError):
                return None
        if arg.choices is not None and value not in arg.choices:
            return None
        given[arg.dest] = value
        k += 2
    if any(dest not in given for dest in required):
        return None
    return argparse.Namespace(**{**unset, **given})


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        args = _scan(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        args.lam = parse_partition(args.lam)
        _validate(args)
        doc = _COMMANDS[args.command][3](args)
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
