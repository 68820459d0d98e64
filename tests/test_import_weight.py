"""The import weight of ``uda``: what ``import uda, uda.cli`` loads.

Every ``uda`` command starts a fresh interpreter, so each standard-library
module the package pulls in is paid again on every call.  The check counts
modules, not time, so it is deterministic.
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
