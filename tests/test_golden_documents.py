"""Byte-exact golden documents and the real subprocess entry point.

The canonical renderings are deterministic across processes (no iteration
over unsorted sets or hash-ordered dicts reaches any document), so frozen
files must match byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uda.cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_uda(*args, script=None):
    # the child imports uda from this checkout, installed or not; a script
    # given runs in place of ``-m uda.cli`` and sees the same arguments
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    entry = ["-m", "uda.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *entry, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


# golden file -> the command that renders it; the projected genfun and
# act --dual s documents were recorded while the closed form and the oracle
# still served them, the polynomial documents (giambelli, act --dual none,
# factorize) while they were still rendered from MvPolynomial.to_json, and
# the (5,10) genfun document while the finite result still built a
# polynomial series beside its Schur form, and the unprojected genfun
# documents while the wedge, Laurent and Schur-coordinate sums each had
# their own accumulation loop; the unprojected and stable act --dual s
# documents and the unprojected genfun documents below them were recorded
# while the oracle and the closed-form product still served them
DOCUMENTS = {
    "quotient_action_r2_n4_21.json": "genfun --r 2 --n 4 --lambda 2,1 --output json",
    "star_action_r2_21_32.txt": "act --r 2 --lambda 2,1 --i 3 --j 2 --dual none",
    "verify_all_r2_n4.txt": "verify --suite all --r 2 --n 4",
    "genfun_r3_n6_21.txt": "genfun --r 3 --n 6 --lambda 2,1",
    "act_dual_s_r3_n6_21_41.json":
        "act --r 3 --n 6 --lambda 2,1 --i 4 --j 1 --dual s --output json",
    "act_dual_s_r3_n6_21_14.json":
        "act --r 3 --n 6 --lambda 2,1 --i 1 --j 4 --dual s --output json",
    "giambelli_r3_n6_21.json": "giambelli --r 3 --n 6 --lambda 2,1 --output json",
    "act_dual_none_r2_n4_21_32.json":
        "act --r 2 --n 4 --lambda 2,1 --i 3 --j 2 --dual none --output json",
    "factorize_r2_n4.json": "factorize --r 2 --n 4 --output json",
    "genfun_r5_n10_55555.json":
        "genfun --r 5 --n 10 --lambda 5,5,5,5,5 --output json",
    "genfun_unprojected_dual_s_r2_n5_21.json":
        "genfun --r 2 --n 5 --no-project --zmax 4 --lambda 2,1 --dual s "
        "--output json",
    "genfun_unprojected_dual_none_r3_21.txt":
        "genfun --r 3 --lambda 2,1 --no-project --zmax 6 --dual none",
    "act_dual_s_unprojected_r3_n6_21_72.json":
        "act --r 3 --n 6 --lambda 2,1 --i 7 --j 2 --dual s --no-project "
        "--output json",
    "act_dual_s_stable_r2_21_43.txt": "act --r 2 --lambda 2,1 --i 4 --j 3 --dual s",
    "genfun_unprojected_positive_w_r2_n4_21.txt":
        "genfun --r 2 --n 4 --lambda 2,1 --no-project --dual s --zmax 3 --wmax 2",
    "genfun_unprojected_dual_s_r3_n6_333.json":
        "genfun --r 3 --n 6 --lambda 3,3,3 --no-project --zmax 6 --dual s "
        "--wmin -4 --output json",
}


@pytest.mark.parametrize("golden", DOCUMENTS, ids=lambda g: g.split(".")[0])
def test_document_bytes(golden):
    proc = run_uda(*DOCUMENTS[golden].split())
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / golden).read_text()


def test_subprocess_exit_codes():
    assert run_uda("verify", "--suite", "golden", "--r", "2", "--n", "4").returncode == 0
    assert run_uda("act", "--r", "2", "--lambda", "9", "--i", "0", "--j", "0",
                   "--n", "4").returncode == 1


# Packed monomials give each variable a field in the order variables first
# appear; the documents must not depend on that order.
_REVERSED_LAYOUT = """\
import sys
import uda.cli
from uda import poly
poly.h_(12), poly.e_(5), poly.c_(11)   # reverse canonical order
assert poly._VARS[:3] == [(2, 12), (1, 5), (0, 11)], poly._VARS
sys.exit(uda.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("golden", ["giambelli_r3_n6_21.json",
                                    "genfun_r3_n6_21.txt"])
def test_documents_do_not_depend_on_variable_arrival_order(golden):
    proc = run_uda(*DOCUMENTS[golden].split(), script=_REVERSED_LAYOUT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()


# argv -> the exit code, stdout and stderr of ``uda --help``, every
# subcommand's --help and the argparse errors, recorded with COLUMNS=80
# while one argparse tree parsed every command, as the tree still parses
# every argv that ``uda.cli._scan`` declines
USAGE = json.loads((GOLDEN / "usage.json").read_text())


@pytest.mark.parametrize("case", USAGE,
                         ids=lambda c: " ".join(c["argv"]) or "no-arguments")
def test_help_and_error_bytes(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps to the terminal
    want = (case["code"], case["stdout"], case["stderr"])
    for _ in ("first call", "second call: nothing carries over"):
        code = uda.cli.main(list(case["argv"]))
        assert (code, *capsys.readouterr()) == want
