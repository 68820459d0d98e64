"""The import weight of ``uda``: what ``import uda, uda.cli`` loads, and
what one canonical CLI call adds to it.

Every ``uda`` command starts a fresh interpreter, so each standard-library
module the package pulls in is paid again on every call.  The checks count
modules, not time, so they are deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses and the modules it brings with it; uda needs none of them
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def loaded_modules(setup: str) -> set[str]:
    # no PYTHON* variable of the caller's shell reaches the child
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    code = f"{setup}; import json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    return set(json.loads(out))


def test_importing_uda_loads_no_heavy_module():
    bare = loaded_modules("pass")
    added = loaded_modules("import uda, uda.cli") - bare
    assert "uda.cli" in added
    assert sorted(added.intersection(HEAVY)) == []


def test_a_canonical_call_loads_no_locale():
    # argparse's first message lookup searches gettext catalogues and
    # imports locale; a canonical call is read without argparse, so only an
    # argv that argparse must read (here an abbreviation) pays for it
    def after_call(*argv) -> set[str]:
        args = [*argv, "--output", "json", "--out", os.devnull]
        return loaded_modules(f"import uda.cli; assert uda.cli.main({args!r}) == 0")

    bare = loaded_modules("pass")
    assert "locale" not in bare
    canonical = after_call("genfun", "--r", "2", "--n", "6", "--lambda", "2,1")
    assert "uda.cli" in canonical and "locale" not in canonical
    assert "locale" in after_call("genfun", "--r", "2", "--n", "6", "--lam", "2,1")
