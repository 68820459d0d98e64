"""The traced benchmark wraps library functions by name: every one it names
must still exist, or ``perfbench/run.py --trace 1`` breaks.  The list is
read from the tracer's source, which is neither imported nor changed."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _span_functions() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["SPAN_FUNCTIONS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_FUNCTIONS in {TRACER}")


def test_every_traced_function_resolves_in_uda():
    pairs = _span_functions()
    assert pairs
    missing = [f"uda.{mod}.{name}" for mod, name in pairs
               if not callable(getattr(importlib.import_module(f"uda.{mod}"),
                                       name, None))]
    assert not missing, f"traced but gone from the library: {missing}"
