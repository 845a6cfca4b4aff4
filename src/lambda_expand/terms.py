"""Untyped lambda terms: construction, occurrence counting, substitution.

Terms are plain trees of Var/Abs/App, frozen and slotted, and built by
`_node.node`, which stores each field through its slot. Operations that
produce terms keep the convention that no name is bound twice and no name
occurs both free and bound; `canonicalize` establishes it, renaming binders
only where needed. Those operations return every subterm they leave unchanged
as the same object, so a result shares it with its source, and a term that
already keeps the convention comes back from `canonicalize` as itself.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._node import node


@node
class Var:
    name: str


@node
class Abs:
    binder: str
    body: "Term"


@node
class App:
    fun: "Term"
    arg: "Term"


Term = Var | Abs | App


class DuplicateBinderError(ValueError):
    """A simultaneous substitution listed the same identifier twice."""


def size(t: Term) -> int:
    """Number of constructors in t."""
    n = 0
    stack = [t]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, App):
            stack.append(t.fun)
            stack.append(t.arg)
        elif isinstance(t, Abs):
            stack.append(t.body)
        elif not isinstance(t, Var):
            raise TypeError(t)
    return n


def free_vars(t: Term) -> list[str]:
    """Free variables in first-occurrence order, no duplicates."""
    return list(_scan(t)[0])


def _scan(t: Term) -> tuple[dict[str, None], set[str], bool]:
    """One walk over t: its free variables, as the keys of a dict in
    first-occurrence order; the set of names it binds; and whether t keeps
    the convention, which holds when no name is bound twice (as many
    abstractions as distinct binders) and no binder also occurs free."""
    free: dict[str, None] = {}
    binders: set[str] = set()
    abstractions = 0
    # how many enclosing binders bind each name; a str on the stack marks
    # the end of that binder's scope.  This runs on every beta step, so it
    # dispatches with isinstance, which is cheaper than class patterns.
    bound: dict[str, int] = {}
    stack: list[Term | str] = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            v = t.name
            if not bound.get(v) and v not in free:
                free[v] = None
        elif isinstance(t, App):
            stack.append(t.arg)
            stack.append(t.fun)
        elif isinstance(t, Abs):
            abstractions += 1
            binders.add(t.binder)
            bound[t.binder] = bound.get(t.binder, 0) + 1
            stack.append(t.binder)
            stack.append(t.body)
        else:
            bound[t] -= 1
    conventional = abstractions == len(binders) and binders.isdisjoint(free)
    return free, binders, conventional


def count_free_occurrences(t: Term, x: str) -> int:
    n = 0
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            if t.name == x:
                n += 1
        elif isinstance(t, App):
            stack.append(t.fun)
            stack.append(t.arg)
        elif isinstance(t, Abs):
            if t.binder != x:
                stack.append(t.body)
        else:
            raise TypeError(t)
    return n


def all_names(t: Term) -> set[str]:
    """Every identifier occurring in t, free or bound."""
    free, binders, _ = _scan(t)
    binders.update(free)
    return binders


@node
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
    at_least = min(binders.values(), default=1) >= 1
    at_most = max(binders.values(), default=0) <= 1
    frees_once = set(frees.values()) <= {1}
    return TermClass(
        is_lambda_i=at_least,
        is_affine=at_most and frees_once,
        is_linear=at_least and at_most and frees_once,
    )


class FreshSupply:
    """Draws identifiers that avoid every reserved name.

    fresh("x") yields x1, x2, ...; a base that already carries a trailing
    index restarts from its stem, so fresh("x1") also continues the x row.
    `drawn` counts the names fresh() has handed out.
    """

    def __init__(self, reserved: set[str] | None = None):
        self._used: set[str] = set(reserved) if reserved else set()
        self._next: dict[str, int] = {}
        self.drawn = 0

    def reserve(self, names) -> None:
        self._used.update(names)

    def fresh(self, base: str) -> str:
        stem = base.rstrip("0123456789") or base
        k = self._next.get(stem, 1)
        name = f"{stem}{k}"
        while name in self._used:
            k += 1
            name = f"{stem}{k}"
        self._next[stem] = k + 1
        self._used.add(name)
        self.drawn += 1
        return name


def canonicalize(
    t: Term, supply: FreshSupply | None = None, avoid: Iterable[str] = ()
) -> Term:
    """Rename binders so each name is bound once and never also occurs free,
    nor is one of `avoid`.  A term that already follows that convention and
    binds none of `avoid` comes back as itself, after one scan."""
    free, binders, conventional = _scan(t)
    used = set(free)
    used.update(avoid)
    if conventional and binders.isdisjoint(used):
        return t
    if supply is None:
        supply = FreshSupply()
    supply.reserve(used)
    return _rebind(t, {}, used, supply, set(), iter(()))


def _rebind(
    t: Term,
    table: dict[str, Term],
    used: set[str],
    supply: FreshSupply,
    fv_all: set[str],
    captures,
) -> Term:
    """The one allocating walk behind canonicalize and substitution.

    Replaces each free occurrence of a key of ``table`` by its term, walked
    on in the same pass, and renames binders as canonicalize does: a binder
    whose name is in ``used`` (the result's free names and the binders met
    so far) gets the supply's next fresh name.  A binder of t that is free
    in a replacement (``fv_all``) while a replacement is still live below
    it takes the next name from ``captures`` instead, drawn beforehand in
    this walk's order.  A subterm that comes out unchanged is returned as
    the same object, so only the nodes on a path to a change are built.
    """
    # go never mutates a map, so every walk of a replacement shares this one
    empty: dict = {}

    # runs on every beta step: isinstance dispatch, as in _scan
    def go(t: Term, ren: dict[str, str], live: dict[str, Term]) -> Term:
        if isinstance(t, Var):
            name = t.name
            s = live.get(name)
            if s is not None:
                return go(s, empty, empty)
            v = ren.get(name)
            return t if v is None or v == name else Var(v)
        if isinstance(t, App):
            fun = go(t.fun, ren, live)
            arg = go(t.arg, ren, live)
            return t if fun is t.fun and arg is t.arg else App(fun, arg)
        if isinstance(t, Abs):
            b = t.binder
            capture = False
            if b in live:
                live = {x: s for x, s in live.items() if x != b}
            else:
                capture = bool(live) and b in fv_all
            if capture:
                b2 = next(captures)
            elif b in used:
                b2 = supply.fresh(b)
            else:
                b2 = b
                supply.reserve((b,))
            used.add(b2)
            # an unrenamed binder needs an entry only to shadow an outer one
            if b2 != b or b in ren:
                ren = {**ren, b: b2}
            body = go(t.body, ren, live)
            return t if b2 == b and body is t.body else Abs(b2, body)
        raise TypeError(t)

    try:
        return go(t, empty, table)
    finally:
        go = None  # the closure refers to itself; break the cycle


def _capture_names(
    t: Term, table: dict[str, Term], fv_all: set[str], supply: FreshSupply
) -> list[str]:
    """Fresh names for the binders of t that would capture a free name of
    a replacement, drawn in the order _rebind meets them."""
    out: list[str] = []
    stack: list[tuple[Term, dict[str, Term]]] = [(t, table)]
    while stack:
        t, live = stack.pop()
        if isinstance(t, App):
            stack.append((t.arg, live))
            stack.append((t.fun, live))
        elif isinstance(t, Abs):
            b = t.binder
            if b in live:
                live = {x: s for x, s in live.items() if x != b}
                if not live:
                    continue
            elif b in fv_all:
                out.append(supply.fresh(b))
            stack.append((t.body, live))
    return out


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding t[x := s]; result is canonicalized."""
    return simultaneous_substitute(t, [(x, s)])


def rename_free(t: Term, ren: dict[str, str]) -> Term:
    """t with its free names renamed by ren, binders untouched (nothing
    avoids capture).  Unchanged subterms come back as the same objects.

    Runs on an explicit stack, so a term's depth is bounded by memory: a
    (node, None) pair on the stack rebuilds that node from the results of
    its children, and only when one of them changed."""
    out: list[Term] = []
    stack: list[tuple[Term, dict[str, str] | None]] = [(t, ren)]
    while stack:
        t, ren = stack.pop()
        if ren is None:
            if isinstance(t, App):
                arg = out.pop()
                fun = out.pop()
                out.append(t if fun is t.fun and arg is t.arg else App(fun, arg))
            else:
                body = out.pop()
                out.append(t if body is t.body else Abs(t.binder, body))
        elif not ren:
            out.append(t)
        elif isinstance(t, Var):
            v = ren.get(t.name)
            out.append(t if v is None or v == t.name else Var(v))
        elif isinstance(t, Abs):
            if t.binder in ren:
                ren = {k: v for k, v in ren.items() if k != t.binder}
            stack.append((t, None))
            stack.append((t.body, ren))
        elif isinstance(t, App):
            stack.append((t, None))
            stack.append((t.arg, ren))
            stack.append((t.fun, ren))
        else:
            raise TypeError(t)
    return out[0]


def simultaneous_substitute(t: Term, bindings: list[tuple[str, Term]]) -> Term:
    """Replace each free xi by si at once; the xi must be pairwise distinct.
    The result is canonicalized, in the same walk.

    Binder spellings are those of substituting first, renaming the binders
    of t that are free in some si, and canonicalizing the result with the
    same supply: the capture renames are drawn first, then the
    canonicalizing ones.
    """
    table = dict(bindings)
    if len(table) != len(bindings):
        raise DuplicateBinderError(
            f"repeated identifiers: {sorted(x for x, _ in bindings)}"
        )
    free, bound, _ = _scan(t)
    # the result's free names, read off the parts rather than the result
    used = free.keys() - table.keys()
    supply = FreshSupply(bound)
    supply.reserve(free)
    fv_all: set[str] = set()
    for x, s in table.items():
        s_free, s_bound, _ = _scan(s)
        supply.reserve(s_bound)
        supply.reserve(s_free)
        fv_all.update(s_free)
        if x in free:
            used.update(s_free)
    captures = (
        _capture_names(t, table, fv_all, supply)
        if not fv_all.isdisjoint(bound)
        else []
    )
    return _rebind(t, table, used, supply, fv_all, iter(captures))


def de_bruijn(t: Term, ren: dict[str, str] | None = None):
    """Nameless key: alpha-equivalent terms get equal keys.  Free names are
    first renamed by ``ren`` when given.

    Built on an explicit stack, so a term's depth is bounded by memory: a
    str on the stack ends that binder's scope and wraps the body's key, and
    None pairs the last two keys into an application's.
    """
    ren = ren or {}
    # each name's enclosing binders' levels, innermost last
    levels: dict[str, list[int]] = {}
    level = 0
    keys: list = []
    stack: list[Term | str | None] = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            v = t.name
            at = levels.get(v)
            keys.append(("b", level - at[-1]) if at else ("f", ren.get(v, v)))
        elif isinstance(t, App):
            stack.append(None)
            stack.append(t.arg)
            stack.append(t.fun)
        elif isinstance(t, Abs):
            level += 1
            levels.setdefault(t.binder, []).append(level)
            stack.append(t.binder)
            stack.append(t.body)
        elif isinstance(t, str):
            levels[t].pop()
            level -= 1
            keys.append(("l", keys.pop()))
        elif t is None:
            arg = keys.pop()
            keys.append(("a", keys.pop(), arg))
        else:
            raise TypeError(t)
    return keys[0]


def alpha_eq(a: Term, b: Term) -> bool:
    return a is b or alpha_eq_renamed(a, {}, b)


def alpha_eq_renamed(t: Term, ren: dict[str, str], u: Term) -> bool:
    """Is t, with its free names renamed by ren, alpha-equal to u?

    One walk over both terms in step, on an explicit stack, that returns at
    the first difference.  A bound name compares by the level of its
    binder, so a renamed free name can never be captured.  This runs on
    every step of inference: it dispatches with isinstance, as _scan does.
    """
    # each name's enclosing binders' levels, innermost last, on either
    # side; a pair of strs on the stack ends those two binders' scopes
    left: dict[str, list[int]] = {}
    right: dict[str, list[int]] = {}
    level = 0
    stack: list[tuple] = [(t, u)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Var):
            if not isinstance(b, Var):
                return False
            at = left.get(a.name)
            bt = right.get(b.name)
            if at:
                if not bt or at[-1] != bt[-1]:
                    return False
            elif bt or ren.get(a.name, a.name) != b.name:
                return False
        elif isinstance(a, App):
            if not isinstance(b, App):
                return False
            stack.append((a.arg, b.arg))
            stack.append((a.fun, b.fun))
        elif isinstance(a, Abs):
            if not isinstance(b, Abs):
                return False
            level += 1
            left.setdefault(a.binder, []).append(level)
            right.setdefault(b.binder, []).append(level)
            stack.append((a.binder, b.binder))
            stack.append((a.body, b.body))
        elif isinstance(a, str):
            left[a].pop()
            right[b].pop()
            level -= 1
        else:
            raise TypeError(a)
    return True
