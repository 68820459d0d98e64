import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import uda.cli as cli
import uda.verify
from uda.cli import main, parse_partition, UsageError
from uda.glaction import (StarOperator, generating_action_finite,
                          star_oracle_coords)
from uda.partitions import Partition
from uda.poly import FAM_C, FAM_E, FAM_H, MvPolynomial, ONE, ZERO
from uda.symfunc import giambelli


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
              for key, coords in res.schur_form.items()}
    assert rebuilt == direct


def test_genfun_rejects_plain_dual_with_projection(capsys):
    code, _, err = run_cli(capsys, "genfun", "--r", "2", "--n", "4",
                           "--lambda", "1", "--dual", "none")
    assert code == 1
    assert "adapted dual basis" in err


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


def test_json_writer_hands_other_values_to_json_dumps():
    payload = {"a": [1.5, (1, [2, {}]), {1: None, "k": ()}], "b": [[], {}]}
    assert cli._json_doc(payload) == json.dumps(payload, indent=2) + "\n"
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_doc({"x": [object()]})


def test_parser_is_reused_across_calls(capsys, monkeypatch):
    # argparse wraps usage lines to the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("genfun", "--r", "2", "--n", "4", "--lambda", "2,1"),  # --dual s
        ("genfun", "--r", "2", "--bogus"),
        ("act", "--r", "2", "--lambda", "2,1", "--i", "3", "--j", "2"),  # --dual none
        ("verify", "--suite", "duality", "--r", "2", "--n", "4"),
    ]
    # the child imports uda from this checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    codes, parsers = [], set()
    for args in calls:
        got = run_cli(capsys, *args)
        codes.append(got[0])
        parsers.add(id(cli._PARSER))
        fresh = subprocess.run([sys.executable, "-m", "uda.cli", *args],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": path})
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), args
    assert codes == [0, 1, 0, 0]
    assert len(parsers) == 1
