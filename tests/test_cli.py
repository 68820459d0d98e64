import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import uda
import uda.cli as cli
import uda.verify
from uda.cli import main, parse_partition, UsageError
from uda.exterior import _positive_w_value, x_in_xc
from uda.glaction import (StarOperator, generating_action_finite, rep_matrix,
                          star_oracle_coords)
from uda.module_iso import schur_map_to_poly
from uda.partitions import EMPTY, Partition, partitions_in_rectangle
from uda.poly import FAM_C, FAM_E, FAM_H, MvPolynomial, ONE, ZERO
from uda.symfunc import giambelli, giambelli_term_bound, x_power_term_count
from reference import genfun_json, image_table


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*args, cap_mb=None):
    """Run ``uda`` on ``args`` in a process of its own, its address space
    capped at ``cap_mb`` MB if given; return the completed process and its
    CPU time, start-up included."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def cap():
        limit = cap_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    before = os.times()
    proc = subprocess.run([sys.executable, "-m", "uda.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path},
                          preexec_fn=None if cap_mb is None else cap)
    after = os.times()
    return proc, (after.children_user + after.children_system
                  - before.children_user - before.children_system)


def test_parse_partition():
    assert parse_partition("2,1") == Partition((2, 1))
    assert parse_partition("0") == Partition(())
    assert parse_partition(None) == Partition(())
    with pytest.raises(UsageError):
        parse_partition("a,b")
    with pytest.raises(UsageError):
        parse_partition("1,2")


def test_act_golden_text(capsys):
    code, out, _ = run_cli(capsys, "act", "--r", "2", "--lambda", "2,1",
                           "--i", "3", "--j", "2", "--dual", "none")
    assert code == 0
    assert out == "-c1*h1*h2 + c1^2*h2 + c1*h3\n"


def test_act_quotient_case(capsys):
    code, out, _ = run_cli(capsys, "act", "--r", "2", "--n", "4",
                           "--lambda", "2,1", "--i", "2", "--j", "1",
                           "--dual", "s", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schur"] == [{"partition": [2, 2], "coeff": "1"}]


def test_genfun_golden_json(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--r", "2", "--n", "4",
                           "--lambda", "2,1", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 2 and doc["n"] == 4
    assert len(doc["terms"]) == 6
    zw = [(t["z"], t["w"]) for t in doc["terms"]]
    assert zw == [(0, -1), (1, -1), (2, -1), (0, -3), (2, -3), (3, -3)]
    assert doc["terms"][3]["schur"] == [{"partition": [], "coeff": "-1"}]


def test_genfun_unprojected_windows(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--r", "3", "--lambda", "0",
                           "--dual", "none", "--no-project", "--zmax", "5",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] is None
    zw = {(t["z"], t["w"]) for t in doc["terms"]}
    assert (5, -1) in zw


def test_output_determinism(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "genfun", "--r", "2", "--n", "4",
                               "--lambda", "2,1", "--output", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_json_round_trip_through_document(capsys):
    _, out, _ = run_cli(capsys, "genfun", "--r", "2", "--n", "4",
                        "--lambda", "1,1", "--output", "json")
    doc = json.loads(out)
    res = generating_action_finite(Partition((1, 1)), 2, 4)
    rebuilt = {(t["z"], t["w"]): {tuple(s["partition"]): s["coeff"]
                                  for s in t["schur"]}
               for t in doc["terms"]}
    direct = {key: {mu.parts: str(v) for mu, v in coords.items()}
              for key, coords in res.items()}
    assert rebuilt == direct


def test_genfun_rejects_plain_dual_with_projection(capsys):
    code, _, err = run_cli(capsys, "genfun", "--r", "2", "--n", "4",
                           "--lambda", "1", "--dual", "none")
    assert code == 1
    assert "adapted dual basis" in err


# window flags that a genfun form does not read are refused, not ignored
@pytest.mark.parametrize("args, flag", [
    (("--zmax", "1"), "--zmax"),
    (("--wmin", "-1"), "--wmin"),
    (("--wmax", "3"), "--wmax"),
    (("--no-project", "--dual", "none", "--zmax", "3", "--wmax", "5"), "--wmax"),
], ids=["projected-zmax", "projected-wmin", "projected-wmax", "plain-wmax"])
def test_genfun_refuses_an_unused_window_flag(capsys, args, flag):
    code, out, err = run_cli(capsys, "genfun", "--r", "2", "--n", "4",
                             "--lambda", "2,1", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "act", "--r", "2", "--lambda", "3,1,1",
                           "--i", "0", "--j", "0")
    assert code == 1
    assert "longer than r" in err
    code, _, err = run_cli(capsys, "genfun", "--r", "3", "--n", "2",
                           "--lambda", "0")
    assert code == 1
    assert "1 <= r <= n" in err
    code, _, err = run_cli(capsys, "act", "--r", "2", "--n", "4",
                           "--lambda", "1", "--i", "7", "--j", "0")
    assert code == 1
    assert "[0, 3]" in err
    code, _, _ = run_cli(capsys, "bogus")
    assert code == 1


def test_matrix_document(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--r", "2", "--n", "4",
                           "--i", "2", "--j", "1", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 6
    cells = {(tuple(c["row"]), tuple(c["col"])): c["coeff"]
             for c in doc["entries"]}
    assert cells[((2, 2), (2, 1))] == "1"


def test_matrix_document_at_rank_five_matches_oracle(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--r", "5", "--n", "10",
                           "--i", "7", "--j", "2", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 252
    columns = {tuple(lam): {} for lam in doc["basis"]}
    for cell in doc["entries"]:
        columns[tuple(cell["col"])][tuple(cell["row"])] = cell["coeff"]
    op = StarOperator.adapted(7, 2)
    for lam, col in columns.items():
        want = star_oracle_coords(op, Partition(lam), 5, 10)
        assert col == {mu.parts: str(v) for mu, v in want.items()}, lam


def test_genfun_full_rectangle_at_rank_four_matches_oracle(capsys):
    # the projected document is one signed index substitution per operator,
    # so even the largest lambda of the (4,8) rectangle answers at once
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, "genfun", "--r", "4", "--n", "8",
                           "--lambda", "4,4,4,4", "--output", "json")
    elapsed = time.monotonic() - t0
    assert code == 0
    lam = Partition((4, 4, 4, 4))
    got = {(t["z"], t["w"]): {tuple(s["partition"]): s["coeff"]
                              for s in t["schur"]}
           for t in json.loads(out)["terms"]}
    want = {}
    for i in range(8):
        for j in range(8):
            coords = star_oracle_coords(StarOperator.adapted(i, j), lam, 4, 8)
            if coords:
                want[(i, -j)] = {mu.parts: str(v) for mu, v in coords.items()}
    assert got and got == want
    assert elapsed < 5.0, f"genfun at (4,8) took {elapsed:.2f}s, budget 5s"


def test_unprojected_genfun_builds_no_laurent_series(capsys, monkeypatch):
    # every window is a table of operator images, w^k with k > 0 included
    # (X^i(c) (x) phi_k), so no document multiplies (or even builds) a
    # BiLaurent; a BiLaurent call would raise AssertionError, which the CLI
    # does not catch
    from uda.bilaurent import BiLaurent
    from uda.partitions import partitions_in_rectangle

    def refuse(*args, **kwargs):
        raise AssertionError("BiLaurent used")

    for attr in ("__init__", "__mul__", "__rmul__"):
        monkeypatch.setattr(BiLaurent, attr, refuse)
    rendered = positive = 0
    for r in (1, 2, 3):
        for lam in partitions_in_rectangle(r, 2):
            for n in (None, r, r + 2):
                for zmax in (0, 6):
                    base = ["genfun", "--r", str(r), "--lambda",
                            ",".join(map(str, lam.parts)) or "0",
                            "--no-project", "--zmax", str(zmax)]
                    if n is not None:
                        base += ["--n", str(n)]
                    windows = [["--dual", "none"]]
                    if n is not None:
                        windows += [["--dual", "s"] + wmax for wmax in
                                    ([], ["--wmax", "0"], ["--wmax", "-1"],
                                     ["--wmax", "1"], ["--wmax", "2"])]
                    for window in windows:
                        for wmin in ([], ["--wmin", "-2"], ["--wmin", "1"]):
                            for output in ("text", "json"):
                                code, out, err = run_cli(
                                    capsys, *base, *window, *wmin,
                                    "--output", output)
                                if code:   # an empty window is refused
                                    assert "misses the product's w-range" in err
                                else:
                                    assert out and not err
                                    rendered += 1
                                    positive += "positive powers of w" in out
    # the (4,8) window that the product never finished: 24 adapted and 72
    # plain coefficients, each line after the header
    for dual, lines in (("s", 25), ("none", 73)):
        code, out, err = run_cli(capsys, "genfun", "--r", "4", "--n", "8",
                                 "--lambda", "4,4,4,4", "--no-project",
                                 "--zmax", "8", "--dual", dual)
        assert code == 0 and out.count("\n") == lines and not err
    assert (rendered, positive) == (2264, 420)


@pytest.mark.parametrize("args, bound, w_range", [
    (("--r", "2", "--lambda", "1", "--zmax", "2", "--wmin", "3"), "wmin", "[-2, 0]"),
    (("--r", "1", "--lambda", "0", "--zmax", "0", "--wmax", "-1"), "wmax", "[0, 0]"),
])
def test_missed_window_is_a_usage_error(capsys, args, bound, w_range):
    code, out, err = run_cli(capsys, "genfun", "--n", "4", "--no-project",
                             "--dual", "s", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert bound in err and w_range in err


def test_factorize_document(capsys):
    code, out, _ = run_cli(capsys, "factorize", "--r", "2", "--n", "4",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert len(doc["p"]) == 3 and len(doc["q"]) == 3


def test_verify_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "golden", "--r", "2",
                           "--n", "4")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "ideal", "--r", "2",
                           "--n", "4")
    assert code == 0
    assert out.strip().endswith("checks passed")


def test_failed_check_is_an_invariant_violation(capsys, monkeypatch):
    def broken(r, n):
        yield True, "holds"
        yield False, "broken identity"

    monkeypatch.setitem(uda.verify.SUITES, "golden", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "golden", "--r", "2",
                             "--n", "4")
    assert code == 2 and out == ""
    assert err.startswith("invariant violation:")
    assert "\nFAIL broken identity\n" in err
    assert "FAILED: 1/2 checks passed" in err


def test_verify_refuses_json_output(capsys):
    # verify writes a text report only; --output json is refused, not ignored
    code, out, err = run_cli(capsys, "verify", "--suite", "golden", "--r", "2",
                             "--output", "json")
    assert code == 1 and out == ""
    assert "--output" in err and "json" in err
    code, out, _ = run_cli(capsys, "verify", "--suite", "golden", "--r", "2",
                           "--output", "text")
    assert code == 0 and out.endswith("checks passed\n")
    # without --n verify runs n=4, and its help says so
    assert out == run_cli(capsys, "verify", "--suite", "golden", "--r", "2",
                          "--n", "4")[1]
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0 and "(default 4)" in out and "stable" not in out


def test_giambelli_takes_partitions_outside_the_rectangle(capsys):
    # a Schur determinant is not a quotient element, so --n bounds the c's
    # and does not confine lambda to the r x (n-r) rectangle
    lam = Partition((5,))
    code, out, _ = run_cli(capsys, "giambelli", "--r", "2", "--n", "4",
                           "--lambda", "5")
    assert code == 0
    assert out == f"Delta_{lam} (r=2, n=4) = {giambelli(lam, 2, 4)}\n"
    code, _, err = run_cli(capsys, "giambelli", "--r", "5", "--n", "4",
                           "--lambda", "5")
    assert code == 1
    assert "1 <= r <= n" in err


def test_out_path_writes_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out, _ = run_cli(capsys, "giambelli", "--r", "2", "--n", "4",
                           "--lambda", "2,1", "--output", "json",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["partition"] == [2, 1]


def test_out_path_write_failure_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "giambelli", "--r", "2", "--n", "4",
                             "--lambda", "1", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert "Traceback" not in err


def test_positive_w_note_only_in_windowed_adapted_text(capsys):
    comment = "nonzero coefficients at positive powers of w"
    code, out, _ = run_cli(capsys, "genfun", "--r", "2", "--n", "4",
                           "--lambda", "2,1", "--no-project", "--dual", "s",
                           "--zmax", "3", "--wmax", "2")
    assert code == 0
    assert comment in out.splitlines()[-1]
    code, out, _ = run_cli(capsys, "genfun", "--r", "2", "--n", "4",
                           "--lambda", "2,1")
    assert code == 0
    assert comment not in out


# strings that exercise every escape: quotes, backslashes, control and
# non-ASCII characters (astral ones become surrogate pairs)
_json_str = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\n\t\x7fé€\U0001f600 a')
_json_leaf = (_json_str | st.integers() | st.integers(min_value=-2**200)
              | st.booleans() | st.none())
_json_payload = st.recursive(
    _json_leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_json_str, kids, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_payload)
def test_json_writer_matches_json_dumps(payload):
    assert cli._json_doc(payload) == json.dumps(payload, indent=2) + "\n"


_monomial = st.dictionaries(
    st.tuples(st.sampled_from((FAM_C, FAM_E, FAM_H)), st.integers(1, 12)),
    st.integers(1, 4), max_size=4).map(lambda exps: tuple(sorted(exps.items())))
_coeff = st.integers(-10**30, 10**30) | st.fractions(max_denominator=12)
_poly = st.dictionaries(_monomial, _coeff, max_size=6).map(MvPolynomial)
_poly_payload = st.recursive(
    _poly | _json_leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_json_str, kids, max_size=4),
    max_leaves=12)


def _to_json_payload(obj):
    if isinstance(obj, MvPolynomial):
        return obj.to_json()
    if isinstance(obj, list):
        return [_to_json_payload(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _to_json_payload(val) for key, val in obj.items()}
    return obj


@settings(max_examples=200, deadline=None)
@given(_poly_payload)
@example(ZERO)
@example({"p": [ONE, ZERO, MvPolynomial.const(Fraction(-3, 7))], "verified": True})
@example({"a": {"b": [{"c": MvPolynomial({(((FAM_E, 2), 3),): Fraction(-5, 2)})}]}})
def test_json_writer_renders_polynomials_as_their_to_json(payload):
    expected = json.dumps(_to_json_payload(payload), indent=2) + "\n"
    assert cli._json_doc(payload) == expected


# a term for each pattern of empty and non-empty c-, e- and h-parts, the
# constant among them, with int and Fraction coefficients
_EVERY_PART_PATTERN = MvPolynomial({
    (): Fraction(-3, 7), (((FAM_C, 1), 2),): 2, (((FAM_E, 2), 3),): Fraction(1, 2),
    (((FAM_H, 1), 1),): -1, (((FAM_C, 1), 1), ((FAM_E, 1), 1)): Fraction(-5, 2),
    (((FAM_C, 3), 1), ((FAM_H, 2), 4)): 7, (((FAM_E, 1), 1), ((FAM_H, 1), 2)): 1,
    (((FAM_C, 1), 1), ((FAM_C, 2), 1), ((FAM_E, 2), 1), ((FAM_H, 3), 1)): -4})


@settings(max_examples=200, deadline=None)
@given(_poly)
@example(_EVERY_PART_PATTERN)
@example(_EVERY_PART_PATTERN - MvPolynomial.const(Fraction(-3, 7)))
@example(ZERO)
@example(ONE)
def test_json_writer_renders_a_polynomial_as_a_value_and_in_a_list(p):
    # a value of a top-level key, where the part fragments are written, and
    # one level deeper, in a list, as ``factorize`` writes p and q
    from reference import text_by_powers
    for payload in ({"value": p}, {"p": [p, ONE], "verified": True}, p):
        assert cli._json_doc(payload) == json.dumps(
            _to_json_payload(payload), indent=2) + "\n"
    assert str(p) == text_by_powers(p)


def test_json_writer_hands_other_values_to_json_dumps():
    payload = {"a": [1.5, (1, [2, {}]), {1: None, "k": ()}], "b": [[], {}]}
    assert cli._json_doc(payload) == json.dumps(payload, indent=2) + "\n"
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_doc({"x": [object()]})


def _count_parsers(monkeypatch) -> list:
    """Record every ``argparse.ArgumentParser`` constructed from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


# the parsers of one ``build_parser()``: the tree and one per subcommand
_TREE = ["uda", *(f"uda {name}" for name in cli._COMMANDS)]


def test_declined_calls_match_a_fresh_process(capsys, monkeypatch):
    # argparse wraps usage lines to the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    built = _count_parsers(monkeypatch)
    calls = [  # (argv, read from the argument table)
        (("genfun", "--r", "2", "--n", "4", "--lambda", "2,1"), True),  # --dual s
        (("genfun", "--r", "2", "--bogus"), False),
        (("act", "--r=2", "--lambda", "2,1", "--i", "3", "--j", "2"), False),
        (("verify", "--suite", "duality", "--r", "2", "--n", "4"), True),
        (("genfun", "--r", "2", "--n", "4", "--lam", "1"), False),
        (("act", "--r", "2", "--lambda", "1", "--i", "1", "--j", "1"), True),
        (("act", "--r", "2", "--lambda", "1", "--i", "-1", "--j", "1"), False),
        (("genfun", "--r", "2", "--n", "4", "--lambda", "1", "--"), False),
    ]
    # the child imports uda from this checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    codes = []
    for args, canonical in calls:
        built.clear()
        got = run_cli(capsys, *args)
        codes.append(got[0])
        # a canonical call builds no parser; any other argv, the whole tree
        assert built == ([] if canonical else _TREE), args
        fresh = subprocess.run([sys.executable, "-m", "uda.cli", *args],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": path})
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), args
    assert codes == [0, 1, 0, 0, 0, 0, 1, 1]


def test_a_declined_call_builds_one_tree(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    # a canonical call is read from the argument table, with no parser
    for args in (("genfun", "--r", "2", "--n", "4", "--lambda", "2,1",
                  "--output", "json"),
                 ("giambelli", "--r", "2", "--n", "4", "--lambda", "2,1")):
        assert run_cli(capsys, *args)[0] == 0
    code, out, _ = run_cli(capsys, "matrix", "--r", "2", "--n", "4",
                           "--i", "1", "--j", "0")
    assert code == 0 and out.startswith("operator (i=1, j=0)")
    assert built == []
    # an abbreviation, an unrecognized argument and --help are argparse's:
    # each call builds the tree once, and keeps nothing for the next
    matrix = ("matrix", "--r", "2", "--n", "4", "--i", "1", "--j", "0")
    abbreviated = (*matrix, "--outp", "text")
    for args, code in ((abbreviated, 0), ((*matrix, "--bogus"), 1),
                       (("--help",), 0)):
        built.clear()
        got = run_cli(capsys, *args)
        assert got[0] == code and built == _TREE, args
        if args is abbreviated:   # read as the full flag
            assert got == (0, out, "")


def _argparse_namespace(command, argv):
    """What the argparse tree makes of ``[command, *argv]``: its namespace,
    or None if it exits (help or an error) or leaves arguments over."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args, extra = cli.build_parser().parse_known_args([command, *argv])
    except SystemExit:
        return None
    return None if extra else args


def _canonical_value(arg):
    if arg.choices is not None:
        return st.sampled_from(arg.choices)
    if arg.type is int:
        return st.integers(0, 12).map(str)
    return st.sampled_from(["2,1", "0", "1,1,1", "doc.json"])


def _scan_case(command):
    """``(command, argv, canonical)``: argv joins, in any order, the
    required flags (each may be left out), flags with good values and at
    most two odd chunks; canonical says that nothing was left out and no
    chunk is odd."""
    arguments = cli._COMMANDS[command][1]
    flags = [arg.flag for arg in arguments]
    prefixes = sorted({f[:k] for f in flags for k in range(3, len(f))})
    goods = {arg.flag: st.just([arg.flag]) if arg.store_false else
             _canonical_value(arg).map(lambda v, f=arg.flag: [f, v])
             for arg in arguments}
    good = st.one_of(list(goods.values()))
    value = (st.integers(-3, 12).map(str)
             | st.sampled_from(["", "x", "1.5", " 3", "2,1", "text", "json",
                                "none", "s", "all", "golden"])
             | st.sampled_from(["-", "--", "-x", "-h", *flags]))
    token = st.sampled_from(["-h", "--help", "--", "stray", "--bogus",
                             "--lambda", "--i", "--no-project", *flags,
                             *prefixes])
    odd = (st.tuples(st.sampled_from(flags), value).map(list)
           | st.tuples(token, value).map(list)
           | st.tuples(st.sampled_from(flags), value).map(
               lambda t: ["=".join(t)])
           | token.map(lambda t: [t]))
    required = [goods[arg.flag].map(lambda c: (c, True)) | st.just(([], False))
                for arg in arguments if arg.required]
    return st.tuples(
        *required, st.lists(good.map(lambda c: (c, True)), max_size=4),
        st.lists(odd.map(lambda c: (c, False)), max_size=2)).flatmap(
        lambda t: st.permutations([*t[:-2], *t[-2], *t[-1]])).map(
        lambda chunks: (command, [tok for c, _ in chunks for tok in c],
                        all(ok for _, ok in chunks)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(cli._COMMANDS)).flatmap(_scan_case))
@example(("genfun", ["--r", "2", "--lambda", "--no-project"], False))
@example(("genfun", ["--r", "2", "--lambda", "-x"], False))
@example(("matrix", ["--r", "2", "--i", "0", "--j", "0", "--output", "xml"],
          False))
@example(("act", ["--r", "2", "--i", "-1", "--j", "0"], False))
@example(("act", ["--r", "2", "--i", "1", "--j", "0", "--r", "3",
                  "--no-project", "--no-project"], True))
@example(("verify", ["--r", "2", "--output", "json"], False))
@example(("giambelli", ["--lambda", "2,1"], False))
def test_scan_agrees_with_argparse(case):
    command, argv, canonical = case
    fast = cli._scan(command, argv)
    slow = _argparse_namespace(command, argv)
    if slow is None:   # argparse rejects it: the scan declines it too
        assert fast is None
    elif fast is not None:
        assert vars(fast) == vars(slow)
    if canonical:
        assert fast is not None


def test_importing_the_cli_builds_no_parser():
    script = ("import argparse\n"
              "built = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "def counting(self, *args, **kwargs):\n"
              "    built.append(kwargs.get('prog'))\n"
              "    init(self, *args, **kwargs)\n"
              "argparse.ArgumentParser.__init__ = counting\n"
              "import uda.cli\n"
              "print(len(built), 'uda.cli' in __import__('sys').modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 True\n", "")


@pytest.mark.parametrize("parts, bound", [
    ((1,) * 23, 68150),   # the first column over the limit
    ((1,) * 400, None),   # once a raw RecursionError
    ((6,) * 6, 456484),
], ids=["1^23", "1^400", "6^6"])
def test_giambelli_refuses_a_determinant_over_the_term_limit(capsys, parts, bound):
    lam = ",".join(map(str, parts))
    start = time.process_time()
    code, out, err = run_cli(capsys, "giambelli", "--r", str(len(parts)),
                             "--lambda", lam)
    assert time.process_time() - start < 1.0   # refused before any algebra
    assert code == 1 and out == ""
    assert err.startswith("error: --lambda ")
    assert f"at most {cli.GIAMBELLI_MAX_TERMS}\n" in err
    if bound is not None:
        assert f" up to {bound} terms;" in err
    assert "Traceback" not in err


def test_giambelli_just_under_the_term_limit_finishes(capsys):
    # 1^22 expands to 49,010 terms, just under the limit; 1.1-1.2 s of CPU
    # and 83 MB in a process of its own on a 2-vCPU Xeon VM, and the budget
    # allows about eight times that
    assert cli.GIAMBELLI_MAX_TERMS == 50_000
    uda.clear_caches()
    start = time.process_time()
    code, out, _ = run_cli(capsys, "giambelli", "--r", "22",
                           "--lambda", ",".join(["1"] * 22), "--output", "json")
    assert time.process_time() - start < 10.0
    assert code == 0
    assert len(json.loads(out)["value"]["terms"]) == 49_010


def test_giambelli_one_long_part_finishes_within_a_cpu_budget():
    # one part of N: N + 1 terms over N c- and N h-variables, each of which
    # gets a field on first use, so the budget fails if each new field
    # recomputes the whole layout (N = 1000) or if each new part is decoded
    # across every field (N = 4000).  Each runs in a process of its own, so
    # that this session's layout stays small, and its CPU time is counted
    # whole, start-up included: about 0.15 s and 1.1 s on a 2-vCPU Xeon VM,
    # where decoding every field took 3.9 s at N = 4000
    for n, sha256 in [
        (1000, "e8d25d4e7423cdd4c6c15c2150898602e5dc75079d98a43c1669f0b828d7c07e"),
        (4000, "a24680f452c54dcec993ea9f574920171efa231d31416b28f099a4a88f112de4"),
    ]:
        proc, cpu = run_child("giambelli", "--r", "1", "--lambda", str(n),
                              "--output", "json")
        assert (proc.returncode, proc.stderr) == (0, ""), n
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256, n
        assert cpu < 2.5, n


@pytest.mark.parametrize("lam, top", [
    ("8000", 8000),           # peaks at 558 MB when expanded
    ("5001", 5001),           # the first single part over the limit
    ("4998,1,1,1", 5001),
    ("1000000000", 10 ** 9),  # the term bound alone would list 10^9 counts
])
def test_giambelli_refuses_a_variable_index_over_the_limit(capsys, lam, top):
    start = time.process_time()
    code, out, err = run_cli(capsys, "giambelli", "--r", "4", "--lambda", lam)
    assert time.process_time() - start < 1.0   # refused before any algebra
    assert (code, out) == (1, "")
    assert err == (f"error: --lambda ({lam}) uses the variable index {top}; "
                   f"giambelli takes indices up to {cli.GIAMBELLI_MAX_INDEX}\n")


def test_giambelli_at_the_variable_index_limit_finishes():
    # one part of 5000 reaches index 5000, the limit: 5,001 terms over
    # 10,000 variables, about 1.2 s of CPU and 230 MB in a process of its
    # own on a 2-vCPU Xeon VM; the budget allows four times that
    assert cli.GIAMBELLI_MAX_INDEX == 5_000
    proc, cpu = run_child("giambelli", "--r", "1", "--lambda", "5000",
                          "--output", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(json.loads(proc.stdout)["value"]["terms"]) == 5_001
    assert cpu < 5.0


def test_giambelli_refuses_many_parts_before_the_term_bound(capsys):
    # 150^150 is inside the index limit, and its term bound alone loops
    # len(lam) * |lam| times (1.4 s); past GIAMBELLI_MAX_PARTS parts the
    # length refuses it at once
    lam = ",".join(["150"] * 150)
    start = time.process_time()
    code, out, err = run_cli(capsys, "giambelli", "--r", "150", "--lambda", lam)
    assert time.process_time() - start < 0.1
    assert (code, out) == (1, "")
    assert err == (f"error: --lambda ({lam}) has 150 parts; past 41 parts the "
                   f"term bound exceeds 50000, and giambelli expands at most "
                   f"50000\n")


def test_the_parts_limit_is_the_longest_column_under_the_term_limit():
    # the bound of lam is at least that of the column 1^len(lam), which at
    # n = 0 is p(len(lam)): p(41) = 44,583 fits, p(42) = 53,174 does not
    assert cli.GIAMBELLI_MAX_PARTS == 41
    column = Partition((1,) * cli.GIAMBELLI_MAX_PARTS)
    assert giambelli_term_bound(column, 0) == 44_583 <= cli.GIAMBELLI_MAX_TERMS
    longer = Partition((1,) * (cli.GIAMBELLI_MAX_PARTS + 1))
    assert giambelli_term_bound(longer, 0) == 53_174 > cli.GIAMBELLI_MAX_TERMS


@pytest.mark.parametrize("n", [None, 0, 1, 3])
def test_the_parts_refusal_decides_as_the_term_bound(n):
    # every lam with parts at most 2 and 36 to 46 parts, and every lam in a
    # 6 x 6 box: refused exactly when the term bound is over the limit, and
    # never bounded below the column of its length
    lams = [Partition((2,) * twos + (1,) * (rows - twos))
            for rows in range(36, 47) for twos in range(rows + 1)]
    lams += uda.partitions_in_rectangle(6, 6)
    for lam in lams:
        bound = giambelli_term_bound(lam, n)
        assert bound >= giambelli_term_bound(Partition((1,) * len(lam)), n)
        try:
            cli._check_schur_det(lam, n, "--lambda")
        except UsageError:
            refused = True
        else:
            refused = False
        assert refused == (bound > cli.GIAMBELLI_MAX_TERMS), lam


@pytest.mark.parametrize("argv, message", [
    (("act", "--lambda", "1", "--i", "6000", "--j", "0", "--dual", "s",
      "--output", "json"), "--i must be at most 5000, the giambelli index "
                           "bound, got 6000"),
    (("act", "--lambda", "1", "--i", "20000", "--j", "0", "--dual", "s"),
     "--i must be at most 5000, the giambelli index bound, got 20000"),
    (("act", "--lambda", "1", "--i", "100000000000", "--j", "0"),   # MemoryError once
     "--i must be at most 5000, the giambelli index bound, got 100000000000"),
    (("act", "--i", "0", "--j", "5001"),
     "--j must be at most 5000, the giambelli index bound, got 5001"),
    (("act", "--lambda", "5000,4", "--i", "0", "--j", "0", "--dual", "s"),
     "the variable index of --lambda must be at most 5000, the giambelli "
     "index bound, got 5001"),
    (("act", "--lambda", "1", "--i", "5000", "--j", "0", "--dual", "s"),
     "the image's partition (4999,2) expands to up to 5220842500 terms; "
     "giambelli expands at most 50000"),
    (("genfun", "--lambda", "5001", "--no-project", "--zmax", "0"),
     "the variable index of --lambda must be at most 5000, the giambelli "
     "index bound, got 5001"),
], ids=["i-6000", "i-20000", "i-1e11", "j-5001", "lambda-5001", "image-terms",
        "genfun-lambda-5001"])
def test_act_refuses_what_giambelli_would_refuse(capsys, argv, message):
    # genfun builds the diagram of lam too, and takes the same lam
    start = time.process_time()
    code, out, err = run_cli(capsys, argv[0], "--r", "2", *argv[1:])
    assert time.process_time() - start < 0.5   # refused before any algebra
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_act_refuses_an_image_of_many_parts(capsys):
    # E_00 keeps 1^44, whose determinant giambelli refuses by its length
    lam = ",".join(["1"] * 44)
    start = time.process_time()
    code, out, err = run_cli(capsys, "act", "--r", "45", "--lambda", lam,
                             "--i", "0", "--j", "0", "--dual", "s")
    assert time.process_time() - start < 0.1
    assert (code, out) == (1, "")
    assert err.startswith(f"error: the image's partition ({lam}) has 44 parts")


def test_act_at_the_index_limit_finishes():
    # E_{5000,4999} moves lam = (4999) to (5000), whose determinant, h_5000,
    # is the one of test_giambelli_at_the_variable_index_limit_finishes; the
    # zero image of an empty slot at 5000 needs no algebra at all
    proc, cpu = run_child("act", "--r", "1", "--lambda", "4999", "--i", "5000",
                          "--j", "4999", "--dual", "s", "--output", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["schur"] == [{"partition": [5000], "coeff": "1"}]
    assert len(doc["value"]["terms"]) == 5_001
    assert cpu < 5.0
    assert main(["act", "--r", "2", "--i", "5000", "--j", "5000",
                 "--dual", "s"]) == 0


def test_plain_act_refuses_a_power_of_x_over_the_term_limit(capsys):
    # X^40 = sum_m s_(40-m)(c) X^m(c) has sum_(k<=40) p(k) = 215,308 terms
    # with no bound on the c's; the oracle and the Schur determinants of its
    # image took 9.1 s of CPU and 262 MB in a process of its own
    start = time.process_time()
    code, out, err = run_cli(capsys, "act", "--r", "2", "--lambda", "1",
                             "--i", "40", "--j", "0", "--output", "json")
    assert time.process_time() - start < 0.1   # refused before any algebra
    assert (code, out) == (1, "")
    assert err == ("error: --i 40: X^40 expands to at least 215308 terms over "
                   "the deformed basis; act expands at most 50000\n")


def test_plain_act_just_under_the_term_limit_finishes():
    # X^32 has 43,820 terms: about 1.6-2.3 s of CPU and 92 MB in a process
    # of its own on a 2-vCPU Xeon VM; the budget allows three times that
    assert x_power_term_count(32, None, cli.GIAMBELLI_MAX_TERMS) == 43_820
    proc, cpu = run_child("act", "--r", "2", "--lambda", "1", "--i", "32",
                          "--j", "0", "--output", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert (len(doc["schur"]), len(doc["value"]["terms"])) == (63, 4)
    assert cpu < 7.0


def test_plain_genfun_refuses_a_power_of_x_over_the_term_limit(capsys):
    # the oracle expands X^i for every i <= zmax; X^33 has 53,963 terms
    start = time.process_time()
    code, out, err = run_cli(capsys, "genfun", "--r", "2", "--lambda", "1",
                             "--no-project", "--zmax", "33", "--dual", "none")
    assert time.process_time() - start < 0.1   # refused before any algebra
    assert (code, out) == (1, "")
    assert err == ("error: --zmax 33: X^33 expands to at least 53963 terms "
                   "over the deformed basis; genfun expands at most 50000\n")


def test_plain_genfun_just_under_the_term_limit_finishes():
    # X^0 .. X^32 (43,820 terms at the top): about 2.3-4.7 s of CPU and
    # 168 MB in a process of its own on a 2-vCPU Xeon VM, for a 14.6 MB
    # document; the budget allows three times the top of that
    assert x_power_term_count(32, None, cli.GIAMBELLI_MAX_TERMS) == 43_820
    proc, cpu = run_child("genfun", "--r", "2", "--lambda", "1", "--no-project",
                          "--zmax", "32", "--dual", "none", "--output", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert (len(doc["terms"]), sum(len(t["schur"]) for t in doc["terms"])) == (
        97, 2083)
    assert cpu < 15.0


@pytest.mark.parametrize("n", [None, 0, 1, 2, 3, 6])
def test_the_power_of_x_count_is_the_oracles_term_count(n):
    # exact up to the stop, and past the stop a lower bound past it
    window = 0
    for i in range(17):
        terms = sum(len(s.terms) for s in x_in_xc(i, n))
        assert x_power_term_count(i, n, terms) == terms, i
        for stop in (terms - 1, terms // 3):
            assert stop < x_power_term_count(i, n, stop) <= terms, (i, stop)
        # and the terms of X^0 .. X^i together, as the plain window holds them
        window += terms
        assert x_power_term_count(i, n, window, every_power=True) == window, i
        for stop in (window - 1, window // 3):
            assert stop < x_power_term_count(i, n, stop, every_power=True) <= window


def test_a_matrix_of_a_thousand_rows_finishes():
    # (990,991) has 991 basis elements, columns of up to 990 ones; listing
    # the rectangle with one recursive call per row raised RecursionError.
    # About 0.6-1.1 s of CPU in a process of its own on a 2-vCPU Xeon VM
    proc, cpu = run_child("matrix", "--r", "990", "--n", "991", "--i", "0",
                          "--j", "0")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()[1:]
    assert len(lines) == 991 and lines[0] == "D() -> 1*D()"
    assert sum(line.endswith(" -> 0") for line in lines) == 1
    assert cpu < 6.0


def test_matrix_writer_matches_json_dumps():
    # every operator at (1,1), (1,3), (2,4) and (3,6), and at (2,2), whose
    # E_01 and E_10 are the zero matrix: the document, written from the
    # column map, is the json.dumps of rep_matrix's to_json
    zero = 0
    for r, n in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 6)):
        for i in range(n):
            for j in range(n):
                mat = rep_matrix(i, j, r, n)
                zero += not mat.entries
                assert cli.cmd_matrix(cli._scan("matrix", [
                    "--r", str(r), "--n", str(n), "--i", str(i), "--j", str(j),
                    "--output", "json"])) == json.dumps(
                        mat.to_json(), indent=2) + "\n", (r, n, i, j)
    assert zero == 2


def test_action_writer_matches_json_dumps(capsys):
    # every projected document at (1,1), (1,3), (2,4) and (3,6); adapted
    # windows with wmin and with wmax > 0, and one above w^0, whose terms
    # are empty; plain windows with polynomial coefficients, one with n=None;
    # lambda = (): each CLI document is the reference writer's document of
    # the library's table of images
    cases = [((str(r), str(n), ",".join(map(str, lam)) or "0", ()),
              (lam, r, n, "adapted", generating_action_finite(lam, r, n)))
             for r, n in ((1, 1), (1, 3), (2, 4), (3, 6))
             for lam in partitions_in_rectangle(r, n - r)]
    lam = Partition((2, 1))
    adapted = ("--no-project", "--dual", "s", "--zmax")
    plain = ("--no-project", "--dual", "none", "--zmax")
    windows = [
        (("2", "4", "2,1", (*adapted, "3", "--wmin", "-2")),
         (lam, 2, 4, "adapted", (3, -2, 0))),
        (("2", "4", "2,1", (*adapted, "3", "--wmax", "2")),
         (lam, 2, 4, "adapted", (3, None, 2))),
        (("2", "5", "2,1", (*adapted, "4", "--wmin", "-1", "--wmax", "1")),
         (lam, 2, 5, "adapted", (4, -1, 1))),
        (("2", "4", "2,1", (*adapted, "2", "--wmin", "1", "--wmax", "2")),
         (lam, 2, 4, "adapted", (2, 1, 2))),
        (("2", None, "2,1", (*plain, "3")), (lam, 2, None, "plain", (3, None, 0))),
        (("2", "4", "2,1", (*plain, "3", "--wmin", "-2")),
         (lam, 2, 4, "plain", (3, -2, 0))),
        (("3", "3", "0", (*plain, "2")), (EMPTY, 3, 3, "plain", (2, None, 0))),
        (("1", "2", "0", (*adapted, "2")), (EMPTY, 1, 2, "adapted", (2, None, 0)))]
    cases += [(argv, (*head, image_table(*head, window)))
              for argv, (*head, window) in windows]
    assert all(w > 0 for _, w in image_table(lam, 2, 4, "adapted", (2, 1, 2)))
    assert any(type(c) is MvPolynomial for c in
               image_table(lam, 2, None, "plain", (3, None, 0))[(1, 0)].values())
    for (r, n, lam_arg, extra), ref in cases:
        argv = ["genfun", "--r", r, *(() if n is None else ("--n", n)),
                "--lambda", lam_arg, *extra, "--output", "json"]
        assert run_cli(capsys, *argv) == (
            0, json.dumps(genfun_json(*ref), indent=2) + "\n", ""), argv


_POSITIVE_W = ("--r", "1", "--n", "4", "--no-project", "--dual", "s")
_PLAIN = ("--no-project", "--dual", "none")


@pytest.mark.parametrize("argv, message", [
    (("--r", "1", "--n", "100000"),   # ran past 300 s
     "the top operator index n-1 must be at most 5000, the giambelli index "
     "bound, got 99999"),
    (("--r", "1", "--n", "5002"),
     "the top operator index n-1 must be at most 5000, the giambelli index "
     "bound, got 5001"),
    (("--r", "11", "--n", "5001"),
     "genfun may list up to 603911 partition parts, r=11 for each of up to "
     "54901 images (r(n-r+1)); it lists at most 500000"),
    (("--r", "2500", "--n", "2520"),   # 40 s and 3.2 GB
     "genfun may list up to 131250000 partition parts, r=2500 for each of up "
     "to 52500 images (r(n-r+1)); it lists at most 500000"),
    (("--r", "1", "--n", "4", "--no-project", "--zmax", "10000"),   # 10 s
     "--zmax must be at most 5000, the giambelli index bound, got 10000"),
    (("--r", "10", "--n", "10", "--no-project", "--zmax", "5000"),
     "genfun may list up to 500100 partition parts, r=10 for each of up to "
     "50010 images (r(zmax+1)); it lists at most 500000"),
    # the JSON document leaves the positive-w images out and forms none of
    # them, but it is refused where the text document, which forms them all,
    # is: phi_k on every particle, for every power of X(c)
    (_POSITIVE_W + ("--zmax", "0", "--wmax", "113"),
     "--wmax 113: the window z^0 .. z^0, w^1 .. w^113 on r=1 particles expands "
     "to at least 2051730 terms from s(c) up to s_113; genfun expands at most "
     "2000000"),
    (_POSITIVE_W + ("--zmax", "0", "--wmax", "150"),   # 2.6 s and 361 MB
     "--wmax 150: the window z^0 .. z^0, w^1 .. w^150 on r=1 particles expands "
     "to at least 3207798 terms from s(c) up to s_150; genfun expands at most "
     "2000000"),
    (_POSITIVE_W + ("--zmax", "400", "--wmax", "60"),   # 3.0 s and 983 MB
     "--wmax 60: the window z^0 .. z^400, w^1 .. w^60 on r=1 particles expands "
     "to at least 12927446 terms from s(c) up to s_60; genfun expands at most "
     "2000000"),
    (_POSITIVE_W + ("--zmax", "0", "--wmax", "4999", "--lambda", "2"),
     "the top particle plus --wmax must be at most 5000, the giambelli index "
     "bound, got 5001"),
    (_PLAIN + ("--r", "633", "--zmax", "0"),
     "--r 633: the window z^0 .. z^0, w^0 .. w^-632 on r=633 particles expands "
     "to at least 400689 form values; genfun expands at most 400000"),
    (_PLAIN + ("--r", "2000", "--zmax", "2"),   # 30 s and 3.45 GB
     "--r 2000: the window z^0 .. z^2, w^0 .. w^-1999 on r=2000 particles "
     "expands to at least 12000000 form values; genfun expands at most 400000"),
    (_PLAIN + ("--r", "300", "--lambda", "400", "--zmax", "2"),
     "--r 300: the window z^0 .. z^2, w^0 .. w^-699 on r=300 particles expands "
     "to at least 630000 form values; genfun expands at most 400000"),
    # every image of X^i keeps one coordinate per term of X^i and particle:
    # at n=1, X^i has i+1 terms, so the window holds (zmax+1)(zmax+2)/2 of
    # them for each particle (more than 5 GB, and a MemoryError at n=2)
    (_PLAIN + ("--r", "1", "--n", "1", "--zmax", "5000"),
     "--zmax 5000: X^0 .. X^5000 on r=1 particles expands to at least 632000 "
     "terms over the deformed basis; genfun expands at most 500000"),
    (_PLAIN + ("--r", "2", "--n", "2", "--zmax", "430"),
     "--zmax 430: X^0 .. X^430 on r=2 particles expands to at least 821920 "
     "terms over the deformed basis; genfun expands at most 500000"),
    (_PLAIN + ("--r", "2", "--n", "2", "--zmax", "142"),
     "--zmax 142: X^0 .. X^142 on r=2 particles expands to at least 502824 "
     "terms over the deformed basis; genfun expands at most 500000"),
], ids=["n-100000", "n-5002", "parts-r11", "parts-r2500", "zmax-10000",
        "zmax-parts", "wmax-113", "wmax-150", "wmax-zmax-400", "wmax-index",
        "plain-r-633", "plain-r-2000", "plain-lambda-400", "plain-n1-zmax-5000",
        "plain-n2-zmax-430", "plain-n2-zmax-142"])
def test_genfun_refuses_an_operator_range_over_the_limits(capsys, argv, message):
    start = time.process_time()
    code, out, err = run_cli(capsys, "genfun", *argv, "--output", "json")
    assert time.process_time() - start < 0.1   # refused before any algebra
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_genfun_just_under_the_operator_range_limits_finishes():
    # (10,5001): the top operator index is 5000, and the 49,920 images list
    # at most 499,200 parts; about 1.4-1.6 s of CPU and 107 MB in a process
    # of its own on a 2-vCPU Xeon VM; the budget allows four times the top
    assert cli.GENFUN_MAX_IMAGE_PARTS == 500_000
    proc, cpu = run_child("genfun", "--r", "10", "--n", "5001", "--output", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert (len(doc["terms"]), doc["n"]) == (10 * 4992, 5001)
    assert cpu < 6.5


def test_positive_w_genfun_just_under_the_term_limit_finishes(capsys):
    # w^1 .. w^112 at r=1, n=4: 6 x 330,555 = 1,983,330 terms; about 1.3 s
    # of CPU and 122 MB in a process of its own on a 2-vCPU Xeon VM; the
    # budget allows three times that.  The text document counts the images
    # at positive w, so it forms them all; below them it is the one of w^0
    assert cli.GENFUN_MAX_POSITIVE_W_TERMS == 2_000_000
    argv = ("genfun", *_POSITIVE_W, "--zmax", "0", "--output", "text")
    proc, cpu = run_child(*argv, "--wmax", "112")
    assert (proc.returncode, proc.stderr) == (0, "")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert proc.stdout == out + (
        "# 112 nonzero coefficients at positive powers of w (no operator of "
        "the family); excluded above\n")
    assert cpu < 4.0


@pytest.mark.parametrize("wmax", ["0", "5", "60", "113"])
def test_json_positive_w_genfun_forms_no_positive_w_image(capsys, wmax):
    # the JSON document leaves w^1 .. w^wmax out, so none of their forms
    # phi_k is valued: the memo of those values stays empty, and the
    # document is the one of w^0.  The refusal past the term limit is the
    # one of the text document
    uda.clear_caches()
    argv = ("genfun", *_POSITIVE_W, "--zmax", "0", "--lambda", "0",
            "--output", "json")
    code, out, err = run_cli(capsys, *argv, "--wmax", wmax)
    assert _positive_w_value.cache_info().currsize == 0
    if wmax == "113":
        assert (code, out) == (1, "")
        assert err.startswith("error: --wmax 113: the window")
        return
    assert (code, out, err) == (0, *run_cli(capsys, *argv)[1:])
    assert len(out) == 213
    # a window wholly above w^0 lists no term
    code, out, err = run_cli(capsys, *argv, "--wmin", "1", "--wmax", "2")
    assert (code, err, json.loads(out)["terms"]) == (0, "", [])


@pytest.mark.parametrize("lam, window, doc", [
    ("0", ("--wmin", "1", "--wmax", "100"),
     '{\n  "lambda": [],\n  "r": 1,\n  "n": 4,\n  "dual": "adapted",\n'
     '  "terms": []\n}\n'),
    ("2", ("--wmin", "3", "--wmax", "3"),
     '{\n  "lambda": [\n    2\n  ],\n  "r": 1,\n  "n": 4,\n'
     '  "dual": "adapted",\n  "terms": []\n}\n')])
def test_json_genfun_wholly_above_w0_asks_for_no_image(capsys, lam, window, doc):
    # the document of a valid window above w^0 lists no term and values no
    # phi_k; its bytes are those the window's images, all formed, give
    uda.clear_caches()
    code, out, err = run_cli(capsys, "genfun", *_POSITIVE_W, "--zmax", "0",
                             "--lambda", lam, *window, "--output", "json")
    assert (code, out, err) == (0, doc, "")
    assert _positive_w_value.cache_info().currsize == 0


@pytest.mark.parametrize("args, message", [
    (("--zmax", "0", "--wmin", "3", "--wmax", "2"),
     "wmin/wmax ask for the w-window [3, 2], which misses the product's "
     "w-range [-1, 2]"),
    (("--zmax", "0", "--wmin", "1"),
     "wmin/wmax ask for the w-window [1, 0], which misses the product's "
     "w-range [-1, 0]"),
    (("--zmax", "-1", "--wmin", "1", "--wmax", "2"), "zmax must be nonnegative")])
def test_json_genfun_above_w0_keeps_its_refusals(capsys, args, message):
    code, out, err = run_cli(capsys, "genfun", *_POSITIVE_W, "--lambda", "1",
                             *args, "--output", "json")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_plain_genfun_just_under_the_window_term_limit_finishes():
    # n=2, r=2: X^0 .. X^141 hold 246,228 terms, 492,456 for two particles;
    # about 1.7-1.9 s of CPU and 162 MB in a process of its own on a 2-vCPU
    # Xeon VM; the budget allows three times the top of that
    assert cli.GENFUN_MAX_WINDOW_TERMS == 500_000
    assert 2 * x_power_term_count(141, 2, 10**9, every_power=True) == 492_456
    proc, cpu = run_child("genfun", "--r", "2", "--n", "2", "--no-project",
                          "--dual", "none", "--zmax", "141", "--output", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert (len(doc["terms"]), sum(len(t["schur"]) for t in doc["terms"])) == (
        282, 29892)
    assert cpu < 6.0


def test_plain_genfun_just_under_the_form_value_limit_finishes():
    # r=632 at zmax=0 reads 399,424 form values, each from a particle's
    # X^b(c) over up to 632 c-variables: about 1.5-2.4 s of CPU and 172 MB
    # in a process of its own on a 2-vCPU Xeon VM; the budget allows three
    # times the top of that
    assert cli.GENFUN_MAX_FORM_VALUES == 400_000
    proc, cpu = run_child("genfun", "--r", "632", "--no-project", "--dual",
                          "none", "--zmax", "0", "--output", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)   # X^0 needs bit 0, which only del^0 frees
    assert (doc["r"], [(t["z"], t["w"]) for t in doc["terms"]]) == (632, [(0, 0)])
    assert cpu < 7.5


def test_the_bracket_suite_at_rank_six_finishes():
    # 256 commutators on the 924 columns of (6,12): about 0.2-0.3 s of CPU
    # in a process of its own on a 2-vCPU Xeon VM; the budget allows five
    # times the top of that
    proc, cpu = run_child("verify", "--suite", "bracket", "--r", "6",
                          "--n", "12")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("\nOK: 256/256 checks passed\n")
    assert cpu < 1.5


def _text_matrix_from_json(doc) -> str:
    image = {tuple(c["col"]): f"{c['coeff']}*D{Partition(tuple(c['row']))}"
             for c in doc["entries"]}
    lines = [f"operator (i={doc['i']}, j={doc['j']}) on the {doc['dimension']}"
             f"-dimensional basis of the (r={doc['r']}, n={doc['n']}) quotient"]
    lines += [f"D{Partition(tuple(lam))} -> {image.get(tuple(lam), '0')}"
              for lam in doc["basis"]]
    return "\n".join(lines) + "\n"


def test_text_matrix_agrees_with_its_json_entries(capsys):
    # every operator at (4,8): one line per column, in basis order, holding
    # the column's one JSON entry or 0
    for i in range(8):
        for j in range(8):
            argv = ("matrix", "--r", "4", "--n", "8", "--i", str(i), "--j", str(j))
            code, text, _ = run_cli(capsys, *argv)
            assert code == 0
            code, out, _ = run_cli(capsys, *argv, "--output", "json")
            assert code == 0
            assert text == _text_matrix_from_json(json.loads(out)), (i, j)


def test_text_matrix_is_written_in_one_pass(capsys):
    # (7,15) has 6,435 columns: scanning the basis for each column took
    # 8.6 s in a process of its own on a 2-vCPU Xeon VM, one pass 0.23 s
    start = time.process_time()
    code, out, _ = run_cli(capsys, "matrix", "--r", "7", "--n", "15",
                           "--i", "3", "--j", "2")
    assert time.process_time() - start < 2.0
    assert code == 0 and len(out.splitlines()) == 6_436


@pytest.mark.parametrize("r, n", [(10, 30), (9, 19), (500_000, 1_000_000)])
def test_matrix_refuses_a_quotient_over_the_dimension_limit(capsys, r, n):
    # C(30,10) = 30,045,015 columns ran past 20 s; math.comb alone takes
    # 13 s at C(10^6, 5 * 10^5), so the count stops once past the limit
    start = time.process_time()
    code, out, err = run_cli(capsys, "matrix", "--r", str(r), "--n", str(n),
                             "--i", "0", "--j", "0", "--output", "json")
    assert time.process_time() - start < 0.1
    assert (code, out) == (1, "")
    assert err == (f"error: the (r={r}, n={n}) quotient has more than 50000 "
                   f"basis elements; matrix renders at most 50000\n")


def test_matrix_just_under_the_dimension_limit_finishes():
    # C(18,9) = 48,620 columns: about 0.9-1.2 s of CPU as text in a process
    # of its own on a 2-vCPU Xeon VM; the budget allows about eight times that
    assert cli.MATRIX_MAX_DIMENSION == 50_000
    proc, cpu = run_child("matrix", "--r", "9", "--n", "18", "--i", "0",
                          "--j", "0")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 48_621
    assert cpu < 9.0


@pytest.mark.parametrize("suite, r, n", [
    ("bracket", 9, 19), ("bracket", 30, 60), ("all", 9, 19)])
def test_verify_refuses_the_bracket_suite_over_the_dimension_limit(
        capsys, suite, r, n):
    # C(19,9) = 92,378 basis elements; at (30,60) the suite's basis ran out
    # of a 1 GB address space in a raw MemoryError.  Both are refused before
    # any algebra; --suite all at n = 19 meets the factorize limit first
    start = time.process_time()
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--r", str(r),
                             "--n", str(n))
    assert time.process_time() - start < 0.1
    assert (code, out) == (1, "")
    if suite == "bracket":
        assert err == (f"error: the (r={r}, n={n}) quotient has more than 50000 "
                       f"basis elements; the bracket suite checks at most 50000\n")
    else:
        assert err.startswith(f"error: --n {n}: the factorize suite")


def test_verify_lets_the_bracket_suite_just_under_the_dimension_limit_through(
        capsys, monkeypatch):
    # C(18,9) = 48,620 passes the check; the suite itself (4.6 s of CPU) is
    # stood in for, so only the refusal is tested here
    asked = []
    monkeypatch.setitem(cli.SUITES, "bracket",
                        lambda r, n: asked.append((r, n)) or [(True, "stub")])
    code, out, err = run_cli(capsys, "verify", "--suite", "bracket", "--r", "9",
                             "--n", "18")
    assert (code, out, err) == (0, "PASS stub\nOK: 1/1 checks passed\n", "")
    assert asked == [(9, 18)]


@pytest.mark.parametrize("suite, r, n, steps", [
    ("oracle", 1, 400, 64_000_000), ("oracle", 2, 40, 1_248_000),
    ("oracle", 5, 6, 1_102_788), ("all", 4, 7, 2_657_165),
    ("oracle", 500_000, 1_000_000, 10 ** 18)])
def test_verify_refuses_the_oracle_suite_over_the_step_limit(capsys, suite,
                                                              r, n, steps):
    # (1,400) and (2,40) passed 30 s of CPU and (4,7) took 40 s; (5,6), just
    # past the limit, took 2.2-2.4 s.  Past C(n, r) n^2 the count stops
    # before the closed-form term, so every refusal comes before any algebra
    start = time.process_time()
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--r", str(r),
                             "--n", str(n))
    assert time.process_time() - start < 0.1
    assert (code, out) == (1, "")
    assert err == (f"error: --r {r} --n {n}: the oracle suite of the (r={r}, "
                   f"n={n}) quotient expands to at least {steps} steps, n^2 "
                   f"oracle calls and the closed form's term reads for each "
                   f"basis element; verify expands at most 1000000\n")


def test_verify_oracle_just_under_the_step_limit_finishes():
    # (3,6) counts 20 (36 + 291 * 169) = 984,300 steps: about 1.1 s of CPU
    # in a process of its own on a 2-vCPU Xeon VM; the budget allows about
    # four times that
    assert cli.ORACLE_MAX_STEPS == 1_000_000
    assert cli._oracle_suite_steps(3, 6, 10 ** 9) == 984_300
    assert cli._oracle_suite_steps(8, 8, 10 ** 9) == 744_874
    proc, cpu = run_child("verify", "--suite", "oracle", "--r", "3", "--n", "6")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("OK: 720/720 checks passed\n")
    assert cpu < 5.0


def test_giambelli_refuses_a_long_lambda_by_its_h_monomials(capsys):
    # 4960^41 is inside the index and parts limits; its full term bound
    # took 3.2 s, its 1.1 * 10^35 monomials in h alone are counted at once
    lam = ",".join(["4960"] * 41)
    start = time.process_time()
    code, out, err = run_cli(capsys, "giambelli", "--r", "41", "--lambda", lam)
    assert time.process_time() - start < 0.1
    assert (code, out) == (1, "")
    assert err == (f"error: --lambda ({lam}) may expand to "
                   f"111601014953574961137632131795912798 monomials in h "
                   f"alone; giambelli expands at most 50000\n")


@pytest.mark.parametrize("n", [None, 0, 2])
def test_h_term_count_is_the_h_part_of_the_term_bound(n):
    # the count at |lam| and at its complement in the box agree, and never
    # exceed the bound, so the early refusal never overrules it
    from uda.symfunc import _boxed_partition_counts, giambelli_h_term_count
    lams = list(uda.partitions_in_rectangle(4, 5)) + [
        Partition((4999, 2)), Partition((30,) * 6)]
    for lam in lams:
        rows, weight = len(lam), sum(lam.parts)
        top = lam.part(1) + rows - 1
        count = giambelli_h_term_count(lam)
        if rows:
            assert count == _boxed_partition_counts(rows, top, weight)[weight]
        assert count <= giambelli_term_bound(lam, n)
    assert giambelli_h_term_count(Partition((4999, 2))) == 2_500


def test_text_genfun_refuses_an_image_over_the_term_limit(capsys):
    # the images of 6^6 at (6,12) reach a term bound of 456,484; the text
    # ran past 20 s, and JSON, which renders no determinant, still serves
    lam = ",".join(["6"] * 6)
    start = time.process_time()
    code, out, err = run_cli(capsys, "genfun", "--r", "6", "--n", "12",
                             "--lambda", lam)
    assert time.process_time() - start < 0.5
    assert (code, out) == (1, "")
    assert err == ("error: the image's partition (5,5,5,5,5,1) expands to up "
                   "to 62265 terms; giambelli expands at most 50000\n")
    code, out, _ = run_cli(capsys, "genfun", "--r", "6", "--n", "12",
                           "--lambda", lam, "--output", "json")
    assert code == 0 and json.loads(out)["lambda"] == [6] * 6


@pytest.mark.parametrize("r, n, lam, largest", [
    (5, 10, (5,) * 5, 26_456), (6, 12, (3, 2, 1), 5_940)])
def test_text_genfun_checks_pass_every_image_under_the_limit(r, n, lam, largest):
    # each image's determinant passes the giambelli checks that act makes;
    # the text of 5^5 at (5,10) is 6 MB, so only its checks run here
    res = generating_action_finite(Partition(lam), r, n)
    images = {mu for coords in res.values() for mu in coords}
    assert max(giambelli_term_bound(mu, n) for mu in images) == largest
    for mu in images:
        cli._check_schur_det(mu, n, "the image's partition")


def test_text_genfun_under_the_limit_renders_every_image(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--r", "6", "--n", "12",
                           "--lambda", "3,2,1")
    assert code == 0
    res = generating_action_finite(Partition((3, 2, 1)), 6, 12)
    assert out == "\n".join(
        ["lambda=(3,2,1) r=6 n=12 dual=adapted"]
        + [f"z^{z} w^{w}: {schur_map_to_poly(res[(z, w)], 6, 12)}"
           for z, w in sorted(res, key=lambda k: (-k[1], k[0]))]) + "\n"


def test_text_genfun_expands_each_distinct_image_once(capsys, monkeypatch):
    # the 20 images of 3^4 at (4,8) hold 17 distinct (partition, coefficient)
    # tuples, the diagonal ones repeating lam; each is expanded and rendered
    # once, and the document is the one written when every line expanded
    # its own (sha256 of that document)
    lam = Partition((3, 3, 3, 3))
    images = list(cli._images(lam, 4, 8, "adapted", (7, None, 0)))
    distinct = {tuple(coords) for _, _, coords in images}
    assert (len(images), len(distinct)) == (20, 17)
    calls = []

    def counting(coords, r, n):
        calls.append(tuple(sorted(coords.items())))
        return schur_map_to_poly(coords, r, n)

    monkeypatch.setattr(cli, "schur_map_to_poly", counting)
    code, out, _ = run_cli(capsys, "genfun", "--r", "4", "--n", "8",
                           "--lambda", "3,3,3,3")
    assert code == 0
    assert len(calls) == len(set(calls)) == 17 and set(calls) == distinct
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "df9659f1bea2ac21d7cf011781d7bc743ddf2855873f7af6a200d055f30cae87")


@pytest.mark.parametrize("r, n, reads", [
    (8, 16, 409_536), (10, 20, 2_512_180), (1, 36, 198_266),
    (1, 70, 21_133_018), (500_000, 1_000_000, 500_001_000_000)])
def test_factorize_refuses_over_the_term_read_limit(r, n, reads):
    # both ways the check grows: with r = n/2 ((8,16) took 3.9 s and
    # (10,20) 37 s), and with the s(c) table at small r (r=1 n=70 ran out
    # of a 1 GB address space with a raw MemoryError); each is refused
    # before any algebra, in a child capped at 512 MB
    proc, cpu = run_child("factorize", "--r", str(r), "--n", str(n), cap_mb=512)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: --r {r} --n {n}: the check of r={r} factors over s_0(c) .. "
        f"s_{n + r - 1}(c) expands to at least {reads} term reads, "
        f"r (min(r, n-r) + 1) for each term of those s_k(c); factorize "
        f"expands at most 150000\n")
    assert cpu < 1.0


@pytest.mark.parametrize("suite, n", [
    ("factorize", 10), ("all", 10), ("factorize", 10 ** 6)])
def test_verify_refuses_the_factorize_suite_over_the_term_read_limit(
        capsys, suite, n):
    # the suite checks every r' <= n' <= n: n = 10 reads 256,686 terms and
    # took 1.9 s of CPU, n = 12 passed 60 s.  The sum stops once it passes
    # the limit, so the count is a lower bound and a huge n is refused at once
    start = time.process_time()
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--r", "2",
                             "--n", str(n))
    assert time.process_time() - start < 0.1   # refused before any algebra
    assert (code, out) == (1, "")
    assert err == (f"error: --n {n}: the factorize suite over 1 <= r' <= n' <= "
                   f"{n} expands to at least 159452 term reads, as factorize "
                   f"counts them for each (r', n'); verify expands at most "
                   f"150000\n")


def test_verify_factorize_just_under_the_term_read_limit_finishes():
    # n = 9 reads 112,902 terms over its 45 checks: about 0.75 s of CPU in a
    # process of its own on a 2-vCPU Xeon VM; the budget allows four times
    # that
    assert cli._factorize_suite_reads(9, 10 ** 9) == 112_902
    assert cli._factorize_suite_reads(10, 10 ** 9) == 256_686
    proc, cpu = run_child("verify", "--suite", "factorize", "--r", "2",
                          "--n", "9")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("OK: 45/45 checks passed\n")
    assert cpu < 3.0


def test_factorize_just_under_the_term_read_limit_finishes():
    # (7,14) reads 56 * 2,669 = 149,464 terms: about 1.0-1.3 s of CPU in a
    # process of its own on a 2-vCPU Xeon VM; the budget allows four times
    # the top of that
    assert cli.FACTORIZE_MAX_TERM_READS == 150_000
    assert 56 * x_power_term_count(20, 14, 10**9) == 149_464
    proc, cpu = run_child("factorize", "--r", "7", "--n", "14")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("verified: True\n")
    assert cpu < 5.0
