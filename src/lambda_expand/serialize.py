"""Versioned JSON documents and DOT graphs for the workbench values.

JSON documents carry ``{"schema": "lambda-expand/v1", "value": ...}`` and
round-trip exactly: ``loads(dumps(v)) == v`` for terms, types, bases,
expansion contexts, derivations in every system, and expansion results.
DOT export draws a derivation as one box per step, labeled with the rule
tag and the judgment it concludes.
"""

from __future__ import annotations

import json
from typing import Any

from .expansion import ExpansionResult
from .intersection import InterDerivation
from .syntax import render_members, render_term, render_type
from .systems import Derivation, System
from .terms import Abs, App, Term, Var
from .typelang import (
    Arrow,
    Basis,
    InterArrow,
    ListExpCtx,
    Lolli,
    LolliL,
    LolliR,
    SetExpCtx,
    TVar,
    check_distinct,
    preorder,
)

SCHEMA = "lambda-expand/v1"

__all__ = ["SCHEMA", "SerializeError", "to_jsonable", "from_jsonable", "dumps", "loads", "to_dot"]


# The JSON kind of each binary arrow, and back.
_ARROW_KIND = {Arrow: "arrow", Lolli: "lolli", LolliL: "lolli-left", LolliR: "lolli-right"}
_ARROW_CLASS = {kind: cls for cls, kind in _ARROW_KIND.items()}


class SerializeError(ValueError):
    """Value outside the schema, or a document that does not follow it."""


def to_jsonable(value: Any) -> Any:
    """Plain-JSON structure for a workbench value."""
    match value:
        case Var(name):
            return {"kind": "var", "name": name}
        case Abs(binder, body):
            return {"kind": "abs", "binder": binder, "body": to_jsonable(body)}
        case App(fun, arg):
            return {"kind": "app", "fun": to_jsonable(fun), "arg": to_jsonable(arg)}
        case TVar(name):
            return {"kind": "tvar", "name": name}
        case _ if type(value) in _ARROW_KIND:
            return {
                "kind": _ARROW_KIND[type(value)],
                "dom": to_jsonable(value.dom),
                "cod": to_jsonable(value.cod),
            }
        case InterArrow(doms, cod):
            return {
                "kind": "inter-arrow",
                "doms": [to_jsonable(m) for m in doms],
                "cod": to_jsonable(cod),
            }
        case Basis(entries):
            return {
                "kind": "basis",
                "entries": [[x, to_jsonable(ty)] for x, ty in entries],
            }
        case SetExpCtx(groups):
            return {
                "kind": "set-context",
                "groups": [
                    [owner, [[y, to_jsonable(ty)] for y, ty in group.items()]]
                    for owner, group in groups.items()
                ],
            }
        case ListExpCtx(groups):
            return {
                "kind": "list-context",
                "groups": [
                    [owner, [[y, to_jsonable(ty)] for y, ty in group]]
                    for owner, group in groups
                ],
            }
        case Derivation(system, rule, basis, subject, ty, premises):
            return {
                "kind": "derivation",
                "system": system.value,
                "rule": rule,
                "basis": to_jsonable(basis),
                "subject": to_jsonable(subject),
                "type": to_jsonable(ty),
                "premises": [to_jsonable(p) for p in premises],
            }
        case InterDerivation(rule, env, subject, ty, premises):
            return {
                "kind": "inter-derivation",
                "rule": rule,
                "env": [[x, [to_jsonable(m) for m in members]] for x, members in env],
                "subject": to_jsonable(subject),
                "type": to_jsonable(ty),
                "premises": [to_jsonable(p) for p in premises],
            }
        case ExpansionResult(expanded, ty, context, induced):
            return {
                "kind": "expansion",
                "expanded": to_jsonable(expanded),
                "type": to_jsonable(ty),
                "context": to_jsonable(context),
                "derivation": to_jsonable(induced),
                "strict": None if value.strict is None else to_jsonable(value.strict),
            }
    raise SerializeError(f"cannot serialize {type(value).__name__}")


def from_jsonable(data: Any) -> Any:
    """Inverse of ``to_jsonable``."""
    if not isinstance(data, dict) or "kind" not in data:
        raise SerializeError("expected an object with a 'kind' field")
    kind = data["kind"]
    try:
        match kind:
            case "var":
                return Var(data["name"])
            case "abs":
                return Abs(data["binder"], from_jsonable(data["body"]))
            case "app":
                return App(from_jsonable(data["fun"]), from_jsonable(data["arg"]))
            case "tvar":
                return TVar(data["name"])
            case str() if kind in _ARROW_CLASS:
                return _ARROW_CLASS[kind](from_jsonable(data["dom"]), from_jsonable(data["cod"]))
            case "inter-arrow":
                return InterArrow(
                    tuple(from_jsonable(m) for m in data["doms"]),
                    from_jsonable(data["cod"]),
                )
            case "basis":
                basis = Basis(tuple((x, from_jsonable(ty)) for x, ty in data["entries"]))
                check_distinct(basis)
                return basis
            case "set-context":
                return SetExpCtx(
                    {
                        owner: {y: from_jsonable(ty) for y, ty in group}
                        for owner, group in data["groups"]
                    }
                )
            case "list-context":
                return ListExpCtx(
                    [
                        (owner, [(y, from_jsonable(ty)) for y, ty in group])
                        for owner, group in data["groups"]
                    ]
                )
            case "derivation":
                return Derivation(
                    System(data["system"]),
                    data["rule"],
                    from_jsonable(data["basis"]),
                    from_jsonable(data["subject"]),
                    from_jsonable(data["type"]),
                    tuple(from_jsonable(p) for p in data["premises"]),
                )
            case "inter-derivation":
                return InterDerivation(
                    data["rule"],
                    tuple(
                        (x, tuple(from_jsonable(m) for m in members))
                        for x, members in data["env"]
                    ),
                    from_jsonable(data["subject"]),
                    from_jsonable(data["type"]),
                    tuple(from_jsonable(p) for p in data["premises"]),
                )
            case "expansion":
                strict = None if data["strict"] is None else from_jsonable(data["strict"])
                r = ExpansionResult(
                    from_jsonable(data["expanded"]),
                    from_jsonable(data["type"]),
                    from_jsonable(data["context"]),
                    from_jsonable(data["derivation"]),
                    None if strict is None else strict.system,
                )
                # a document carries its strict derivation, so that one is
                # kept as the first read of r.strict rather than rebuilt
                vars(r)["strict"] = strict
                return r
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializeError(f"malformed {kind} object: {exc}") from exc
    raise SerializeError(f"unknown kind {kind!r}")


def dumps(value: Any) -> str:
    """Schema-stamped JSON document for a workbench value, on one line."""
    return json.dumps({"schema": SCHEMA, "value": to_jsonable(value)})


def loads(text: str) -> Any:
    """Parse a document produced by ``dumps``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializeError(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SerializeError(f"expected a document with schema {SCHEMA!r}")
    return from_jsonable(doc["value"])


# --------------------------------------------------------------------------
# DOT export

def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _judgment(d: Derivation | InterDerivation) -> str:
    if isinstance(d, Derivation):
        left = ", ".join(f"{x}: {render_type(ty)}" for x, ty in d.basis.entries)
    else:
        left = ", ".join(f"{x}: {render_members(members)}" for x, members in d.env)
    turnstile = f"{left} |- " if left else "|- "
    return f"{turnstile}{render_term(d.subject)} : {render_type(d.ty)}"


def to_dot(d: Derivation | InterDerivation) -> str:
    """Graphviz digraph with one node per derivation step.

    Each node is labeled with the rule tag and the judgment it concludes;
    edges point from premises to conclusions.
    """
    if isinstance(d, ExpansionResult):
        d = d.induced
    if not isinstance(d, (Derivation, InterDerivation)):
        raise SerializeError("DOT export draws derivations only")
    lines = [
        "digraph derivation {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    # nodes are numbered in the order a recursive walk enters them; a
    # node's edge to its conclusion follows the lines of its premises
    drawing: list[list[int]] = []  # [number, premises still to draw]
    for ident, node in enumerate(preorder(d, right_first=False)):
        label = _dot_escape(f"{node.rule}\n{_judgment(node)}")
        lines.append(f'  n{ident} [label="{label}"];')
        drawing.append([ident, len(node.premises)])
        while len(drawing) > 1 and not drawing[-1][1]:
            child, _ = drawing.pop()
            lines.append(f"  n{child} -> n{drawing[-1][0]};")
            drawing[-1][1] -= 1
    lines.append("}")
    return "\n".join(lines)
