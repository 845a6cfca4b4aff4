"""Untyped lambda terms: construction, occurrence counting, substitution.

Terms are plain trees of Var/Abs/App. Operations that produce terms keep the
convention that no name is bound twice and no name occurs both free and bound;
`canonicalize` establishes it, renaming binders only where needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Abs:
    binder: str
    body: "Term"


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


Term = Var | Abs | App


class DuplicateBinderError(ValueError):
    """A simultaneous substitution listed the same identifier twice."""


def size(t: Term) -> int:
    """Number of constructors in t."""
    match t:
        case Var():
            return 1
        case Abs(_, body):
            return 1 + size(body)
        case App(fun, arg):
            return 1 + size(fun) + size(arg)
    raise TypeError(t)


def free_vars(t: Term) -> list[str]:
    """Free variables in first-occurrence order, no duplicates."""
    out: list[str] = []
    seen: set[str] = set()
    # how many enclosing binders bind each name; a str on the stack marks
    # the end of that binder's scope.  This runs on every beta step, so it
    # dispatches with isinstance, which is cheaper than class patterns.
    bound: dict[str, int] = {}
    stack: list[Term | str] = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            v = t.name
            if not bound.get(v) and v not in seen:
                seen.add(v)
                out.append(v)
        elif isinstance(t, App):
            stack.append(t.arg)
            stack.append(t.fun)
        elif isinstance(t, Abs):
            bound[t.binder] = bound.get(t.binder, 0) + 1
            stack.append(t.binder)
            stack.append(t.body)
        else:
            bound[t] -= 1
    return out


def count_free_occurrences(t: Term, x: str) -> int:
    match t:
        case Var(v):
            return 1 if v == x else 0
        case Abs(b, body):
            return 0 if b == x else count_free_occurrences(body, x)
        case App(fun, arg):
            return count_free_occurrences(fun, x) + count_free_occurrences(arg, x)
    raise TypeError(t)


def all_names(t: Term) -> set[str]:
    """Every identifier occurring in t, free or bound."""
    names: set[str] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            names.add(t.name)
        elif isinstance(t, Abs):
            names.add(t.binder)
            stack.append(t.body)
        elif isinstance(t, App):
            stack.append(t.fun)
            stack.append(t.arg)
        else:
            raise TypeError(t)
    return names


@dataclass(frozen=True)
class TermClass:
    is_lambda_i: bool
    is_affine: bool
    is_linear: bool


def occurrence_counts(t: Term) -> tuple[dict[int, int], dict[str, int]]:
    """One walk over t: for each abstraction, keyed by node identity, how
    often its binder occurs free in its body; and how often each free
    variable of t occurs.  A subterm object shared between positions gets
    one entry, which is right because the count depends on the subterm
    alone."""
    binders: dict[int, int] = {}
    frees: dict[str, int] = {}
    # each name's enclosing binders, innermost last, as [count] cells; a
    # (node, cell) pair on the stack marks the end of that binder's scope
    scopes: dict[str, list[list[int]]] = {}
    stack: list = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            cells = scopes.get(t.name)
            if cells:
                cells[-1][0] += 1
            else:
                frees[t.name] = frees.get(t.name, 0) + 1
        elif isinstance(t, App):
            stack.append(t.arg)
            stack.append(t.fun)
        elif isinstance(t, Abs):
            cell = [0]
            scopes.setdefault(t.binder, []).append(cell)
            stack.append((t, cell))
            stack.append(t.body)
        else:
            node, cell = t
            scopes[node.binder].pop()
            binders[id(node)] = cell[0]
    return binders, frees


def classify(t: Term) -> TermClass:
    """Occurrence discipline of t.

    lambda-I: every binder occurs free in its body at least once.
    affine: every binder occurs at most once, every free variable exactly once.
    linear: every binder occurs exactly once, every free variable exactly once.
    """
    binders, frees = occurrence_counts(t)
    at_least = all(n >= 1 for n in binders.values())
    at_most = all(n <= 1 for n in binders.values())
    frees_once = all(n == 1 for n in frees.values())
    return TermClass(
        is_lambda_i=at_least,
        is_affine=at_most and frees_once,
        is_linear=at_least and at_most and frees_once,
    )


_TRAILING_DIGITS = re.compile(r"[0-9]+$")


class FreshSupply:
    """Draws identifiers that avoid every reserved name.

    fresh("x") yields x1, x2, ...; a base that already carries a trailing
    index restarts from its stem, so fresh("x1") also continues the x row.
    """

    def __init__(self, reserved: set[str] | None = None):
        self._used: set[str] = set(reserved) if reserved else set()
        self._next: dict[str, int] = {}

    def reserve(self, names) -> None:
        self._used.update(names)

    def fresh(self, base: str) -> str:
        stem = _TRAILING_DIGITS.sub("", base) or base
        k = self._next.get(stem, 1)
        while f"{stem}{k}" in self._used:
            k += 1
        name = f"{stem}{k}"
        self._next[stem] = k + 1
        self._used.add(name)
        return name


def canonicalize(t: Term, supply: FreshSupply | None = None) -> Term:
    """Rename binders so each name is bound once and never also occurs free."""
    if supply is None:
        supply = FreshSupply()
    fv = free_vars(t)
    supply.reserve(fv)
    used = set(fv)

    # runs twice per beta step: isinstance dispatch, as in free_vars
    def go(t: Term, ren: dict[str, str]) -> Term:
        if isinstance(t, Var):
            return Var(ren.get(t.name, t.name))
        if isinstance(t, App):
            return App(go(t.fun, ren), go(t.arg, ren))
        if isinstance(t, Abs):
            b = t.binder
            if b in used:
                b2 = supply.fresh(b)
            else:
                b2 = b
                supply.reserve([b])
            used.add(b2)
            return Abs(b2, go(t.body, {**ren, b: b2}))
        raise TypeError(t)

    return go(t, {})


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding t[x := s]; result is canonicalized."""
    return simultaneous_substitute(t, [(x, s)])


def rename_free(t: Term, ren: dict[str, str]) -> Term:
    if not ren:
        return t
    match t:
        case Var(v):
            return Var(ren.get(v, v))
        case Abs(b, body):
            return Abs(b, rename_free(body, {k: v for k, v in ren.items() if k != b}))
        case App(fun, arg):
            return App(rename_free(fun, ren), rename_free(arg, ren))
    raise TypeError(t)


def simultaneous_substitute(t: Term, bindings: list[tuple[str, Term]]) -> Term:
    """Replace each xi by si at once; the xi must be pairwise distinct."""
    table = dict(bindings)
    if len(table) != len(bindings):
        raise DuplicateBinderError(
            f"repeated identifiers: {sorted(x for x, _ in bindings)}"
        )
    fv_all: set[str] = set()
    names = all_names(t)
    for s in table.values():
        fv_all.update(free_vars(s))
        names |= all_names(s)
    supply = FreshSupply(names)

    # runs once per beta step (through substitute): isinstance dispatch,
    # as in canonicalize
    def go(t: Term, ren: dict[str, str]) -> Term:
        if isinstance(t, Var):
            v = ren.get(t.name, t.name)
            s = table.get(v)
            return Var(v) if s is None else s
        if isinstance(t, App):
            return App(go(t.fun, ren), go(t.arg, ren))
        if isinstance(t, Abs):
            b = t.binder
            if b in table:
                return Abs(b, rename_free(t.body, ren))
            if b in fv_all:
                b2 = supply.fresh(b)
                return Abs(b2, go(t.body, {**ren, b: b2}))
            return Abs(b, go(t.body, ren))
        raise TypeError(t)

    return canonicalize(go(t, {}), supply)


def de_bruijn(t: Term):
    """Nameless key: alpha-equivalent terms get equal keys."""

    def go(t: Term, depth: dict[str, int], level: int):
        match t:
            case Var(v):
                if v in depth:
                    return ("b", level - depth[v])
                return ("f", v)
            case Abs(b, body):
                return ("l", go(body, {**depth, b: level + 1}, level + 1))
            case App(fun, arg):
                return ("a", go(fun, depth, level), go(arg, depth, level))
        raise TypeError(t)

    return go(t, {}, 0)


def alpha_eq(a: Term, b: Term) -> bool:
    return de_bruijn(a) == de_bruijn(b)


def alpha_eq_renamed(t: Term, ren: dict[str, str], u: Term) -> bool:
    """Is t, with its free names renamed by ren, alpha-equal to u?  t's
    binders are refreshed apart from ren's targets first, so no renamed
    name is captured."""
    safe = canonicalize(t, FreshSupply(all_names(t) | set(ren.values())))
    return alpha_eq(rename_free(safe, ren), u)
