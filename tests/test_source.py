"""Rules the package's source keeps."""

import ast
import importlib
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


# every frozen tree node the package builds, by module
NODE_CLASSES = {
    "terms": {"Var", "Abs", "App", "TermClass"},
    "reduction": {"TraceStep"},
    "typelang": {"TVar", "Arrow", "Lolli", "LolliL", "LolliR", "InterArrow", "Basis"},
    "intersection": {"InterDerivation"},
    "systems": {"Derivation"},
}


def _decorator_name(d):
    d = d.func if isinstance(d, ast.Call) else d
    return d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)


def test_every_tree_node_is_built_by_the_one_decorator():
    # a node class that set its fields through object.__setattr__, as a
    # frozen dataclass's own __init__ does, would cost that on every build
    decorated, slotted_elsewhere = {}, []
    for path in sorted(SRC.rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.ClassDef) and any(_decorator_name(d) == "node" for d in n.decorator_list):
                assert len(n.decorator_list) == 1, f"{path.name}: {n.name}"
                decorated.setdefault(path.stem, set()).add(n.name)
            if (
                isinstance(n, ast.Call)
                and _decorator_name(n) == "dataclass"
                and any(k.arg == "slots" for k in n.keywords)
                and path.name != "_node.py"
            ):
                slotted_elsewhere.append(f"{path.name}:{n.lineno}")
    assert decorated == NODE_CLASSES
    assert slotted_elsewhere == []
    for module, names in NODE_CLASSES.items():
        mod = importlib.import_module(f"lambda_expand.{module}")
        for name in names:
            cls = getattr(mod, name)
            assert cls.__init__.__module__ == "lambda_expand._node", name
            assert "__slots__" in vars(cls), name


# The functions under src/ that call themselves, by their own name or as
# self.<name>, qualified by module and enclosing class or function.  Every
# other walk runs in a loop, so its depth is bounded by memory; recursion
# through another function, such as the type parser's descent into
# parentheses, does not show here.
SELF_CALLING = {
    "intersection._match_ty",
    "intersection._place",
    "intersection._sub_ty",
    "serialize.from_jsonable",
    "serialize.to_jsonable",
    "terms._rebind.go",
    "typelang.ctx_match.assign",
    "typelang.normalize",
    "typelang.translate",
    "typelang.type_key",
    "verify.enumerate_terms.gen",
}


def _self_calling(tree, prefix):
    """Qualified names of the functions under tree whose bodies call them
    by name or as self.<name>; a call on any other object does not count."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            for call in ast.walk(node):
                f = getattr(call, "func", None)
                on_self = isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self"
                if (f.attr if on_self else getattr(f, "id", None)) == node.name:
                    found.add(name)
            found |= _self_calling(node, name)
        elif isinstance(node, ast.ClassDef):
            found |= _self_calling(node, f"{prefix}.{node.name}")
        else:
            found |= _self_calling(node, prefix)
    return found


def test_the_functions_that_call_themselves_are_pinned():
    sample = ast.parse(
        "def dumps(x):\n    return json.dumps(x)\n"
        "class C:\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def walk(self, n):\n        return [self.walk(m) for m in n]\n"
        "def f():\n    def go():\n        go()\n    return other.f()\n"
    )
    assert _self_calling(sample, "m") == {"m.C.walk", "m.f.go"}
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        found |= _self_calling(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == SELF_CALLING
