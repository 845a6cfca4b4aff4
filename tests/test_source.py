"""Rules the package's source keeps."""

import ast
from pathlib import Path

import lambda_expand

SRC = Path(lambda_expand.__file__).parent


def test_no_module_raises_the_recursion_limit():
    # deep input is handled by walks on explicit stacks, so depth is
    # bounded by memory; raising the limit would only move the crash
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "setrecursionlimit":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
    assert len(list(SRC.rglob("*.py"))) > 5
