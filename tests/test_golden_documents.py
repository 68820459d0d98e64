"""Byte-exact golden documents and the real subprocess entry point.

The canonical renderings are deterministic across processes (no iteration
over unsorted sets or hash-ordered dicts reaches any document), so frozen
files must match byte for byte.
"""

import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def run_uda(*args):
    return subprocess.run([sys.executable, "-m", "uda.cli", *args],
                          capture_output=True, text=True)


def test_quotient_action_document_bytes():
    proc = run_uda("genfun", "--r", "2", "--n", "4", "--lambda", "2,1",
                   "--output", "json")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "quotient_action_r2_n4_21.json").read_text()


def test_star_action_text_bytes():
    proc = run_uda("act", "--r", "2", "--lambda", "2,1", "--i", "3",
                   "--j", "2", "--dual", "none")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "star_action_r2_21_32.txt").read_text()


def test_verify_all_document_bytes():
    proc = run_uda("verify", "--suite", "all", "--r", "2", "--n", "4")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify_all_r2_n4.txt").read_text()


def test_subprocess_exit_codes():
    assert run_uda("verify", "--suite", "golden", "--r", "2", "--n", "4").returncode == 0
    assert run_uda("act", "--r", "2", "--lambda", "9", "--i", "0", "--j", "0",
                   "--n", "4").returncode == 1
