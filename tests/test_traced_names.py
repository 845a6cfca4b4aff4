"""The benchmark's traced functions exist in the package.

``bench/run.py --trace 1`` wraps each function its ``TRACED`` table names
by (module, function), and no test runs it, so a renamed or deleted
function would break the traced benchmark unseen.  This reads the table
from the source, without importing the benchmark, and resolves each pair.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _traced() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(RUN.read_text()).body:
        match node:
            case ast.Assign(targets=[ast.Name(id="TRACED")], value=value):
                return ast.literal_eval(value)
    raise AssertionError(f"{RUN} assigns no TRACED table")


def test_every_traced_function_resolves_to_a_callable():
    traced = _traced()
    assert len(traced) == 27
    for metric, module, function in traced:
        mod = importlib.import_module(f"lambda_expand.{module}")
        assert callable(getattr(mod, function, None)), (metric, module, function)
