"""Reference computations the benchmark checks the program against.

Nothing here imports lambda_expand: terms are parsed from text (or read off
the program's term objects by attribute) into a nameless form of plain
tuples, and every answer is computed on that form.

Nameless terms:
    ("b", i)       bound variable, de Bruijn index i (1 = innermost binder)
    ("f", name)    free variable
    ("l", body)    abstraction
    ("a", f, x)    application
Two terms are alpha-equal exactly when their nameless forms are equal.

Types (for comparing printed types up to renaming):
    ("v", name)                     type variable
    ("->", kind, (dom, ...), cod)   arrow; kind is "->", "-o", "-o_l" or
                                    "-o_r"; an intersection domain has
                                    several members
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

# --------------------------------------------------------------------------
# terms

_TERM_TOKEN = re.compile(r"\s*(?:(\\|λ)|(\.)|(\()|(\))|([A-Za-z_][A-Za-z0-9_']*))")


def _tokens(src: str, pattern: re.Pattern) -> list[str]:
    out, pos, src = [], 0, src.strip()
    while pos < len(src):
        m = pattern.match(src, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot read {src[pos:]!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def parse_term(src: str):
    """Nameless form of a term written as the README writes terms:
    ``\\x y. body`` (or ``λ``), application by juxtaposition, parentheses."""
    toks = _tokens(src, _TERM_TOKEN)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(want=None):
        nonlocal pos
        tok = peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want or 'a token'} at {pos} in {src!r}")
        pos += 1
        return tok

    def term(scope):
        if peek() in ("\\", "λ"):
            take()
            binders = []
            while peek() not in (".", None):
                binders.append(take())
            take(".")
            body = term(scope + binders)
            for _ in binders:
                body = ("l", body)
            return body
        fun = atom(scope)
        while peek() not in (")", None):
            arg = term(scope) if peek() in ("\\", "λ") else atom(scope)
            fun = ("a", fun, arg)
        return fun

    def atom(scope):
        tok = take()
        if tok == "(":
            t = term(scope)
            take(")")
            return t
        if tok in (".", ")", "\\", "λ"):
            raise ValueError(f"unexpected {tok!r} in {src!r}")
        for depth, name in enumerate(reversed(scope), start=1):
            if name == tok:
                return ("b", depth)
        return ("f", tok)

    t = term([])
    if pos != len(toks):
        raise ValueError(f"trailing input in {src!r}")
    return t


def from_program(t):
    """Nameless form of a lambda_expand term (Var / Abs / App), read by
    attribute only."""
    def go(t, scope):
        if hasattr(t, "name"):
            for depth, name in enumerate(reversed(scope), start=1):
                if name == t.name:
                    return ("b", depth)
            return ("f", t.name)
        if hasattr(t, "binder"):
            return ("l", go(t.body, scope + [t.binder]))
        return ("a", go(t.fun, scope), go(t.arg, scope))

    return go(t, [])


def from_json(doc):
    """Nameless form of a term in the ``lambda-expand/v1`` JSON encoding."""
    def go(j, scope):
        kind = j["kind"]
        if kind == "var":
            for depth, name in enumerate(reversed(scope), start=1):
                if name == j["name"]:
                    return ("b", depth)
            return ("f", j["name"])
        if kind == "abs":
            return ("l", go(j["body"], scope + [j["binder"]]))
        if kind == "app":
            return ("a", go(j["fun"], scope), go(j["arg"], scope))
        raise ValueError(f"not a term node: {kind!r}")

    return go(doc, [])


def show(t) -> str:
    """Text of a nameless term; binders are named x1, x2, ... by depth,
    as the program's enumerator names them."""
    def go(t, depth, spine=False):
        if t[0] == "b":
            return f"x{depth - t[1] + 1}"
        if t[0] == "f":
            return t[1]
        if t[0] == "l":
            text = f"\\x{depth + 1}. {go(t[1], depth + 1)}"
            return f"({text})" if spine else text
        fun = go(t[1], depth, spine=True)
        arg = go(t[2], depth, spine=True)
        if t[2][0] == "a":
            arg = f"({arg})"
        return f"{fun} {arg}"

    return go(t, 0)


def size(t) -> int:
    if t[0] == "l":
        return 1 + size(t[1])
    if t[0] == "a":
        return 1 + size(t[1]) + size(t[2])
    return 1


def _shift(t, by: int, cutoff: int = 1):
    tag = t[0]
    if tag == "b":
        return ("b", t[1] + by) if t[1] >= cutoff else t
    if tag == "l":
        return ("l", _shift(t[1], by, cutoff + 1))
    if tag == "a":
        return ("a", _shift(t[1], by, cutoff), _shift(t[2], by, cutoff))
    return t


def _subst(t, j: int, s):
    """t[j := s], where s is already shifted for the depth it lands at."""
    tag = t[0]
    if tag == "b":
        if t[1] == j:
            return _shift(s, j - 1)
        return ("b", t[1] - 1) if t[1] > j else t
    if tag == "l":
        return ("l", _subst(t[1], j + 1, s))
    if tag == "a":
        return ("a", _subst(t[1], j, s), _subst(t[2], j, s))
    return t


def leftmost_step(t):
    """One leftmost-outermost beta step, or None on a normal form."""
    tag = t[0]
    if tag == "a":
        fun, arg = t[1], t[2]
        if fun[0] == "l":
            return _subst(fun[1], 1, arg)
        r = leftmost_step(fun)
        if r is not None:
            return ("a", r, arg)
        r = leftmost_step(arg)
        return None if r is None else ("a", fun, r)
    if tag == "l":
        r = leftmost_step(t[1])
        return None if r is None else ("l", r)
    return None


def reduce_leftmost(t, fuel: int = 10_000):
    """(normal form, steps) by leftmost-outermost reduction, or (None, fuel)
    when no normal form is reached within ``fuel`` steps."""
    for steps in range(fuel + 1):
        nxt = leftmost_step(t)
        if nxt is None:
            return t, steps
        t = nxt
    return None, fuel


normalize = lru_cache(maxsize=None)(reduce_leftmost)


def numeral(n: int):
    """Church numeral n: \\f x. f (f ... (f x))."""
    body = ("b", 1)
    for _ in range(n):
        body = ("a", ("b", 2), body)
    return ("l", ("l", body))


def free_occurrences(t, name: str) -> int:
    if t[0] == "f":
        return int(t[1] == name)
    if t[0] == "l":
        return free_occurrences(t[1], name)
    if t[0] == "a":
        return free_occurrences(t[1], name) + free_occurrences(t[2], name)
    return 0


def is_affine(t) -> bool:
    """Every binder and every free name is used at most once."""
    def uses(t, depth):
        # counts of the bound variable at index `depth` inside t
        if t[0] == "b":
            return int(t[1] == depth)
        if t[0] == "l":
            return uses(t[1], depth + 1)
        if t[0] == "a":
            return uses(t[1], depth) + uses(t[2], depth)
        return 0

    def binders_ok(t):
        if t[0] == "l":
            return uses(t[1], 1) <= 1 and binders_ok(t[1])
        if t[0] == "a":
            return binders_ok(t[1]) and binders_ok(t[2])
        return True

    names = _free_names(t)
    return binders_ok(t) and all(free_occurrences(t, x) <= 1 for x in names)


def _free_names(t) -> set:
    if t[0] == "f":
        return {t[1]}
    if t[0] == "l":
        return _free_names(t[1])
    if t[0] == "a":
        return _free_names(t[1]) | _free_names(t[2])
    return set()


# --------------------------------------------------------------------------
# types, compared up to renaming of type variables and order of members

_TYPE_TOKEN = re.compile(r"\s*((?:->)|(?:-o_l)|(?:-o_r)|(?:-o)|&|\(|\)|[A-Za-z_][A-Za-z0-9_']*)")


def parse_type(src: str):
    """A type as the CLI prints it: ``&`` binds tighter than the arrows,
    which associate to the right."""
    toks = _tokens(src, _TYPE_TOKEN)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def arrow():
        members = [atom()]
        while peek() == "&":
            take()
            members.append(atom())
        if peek() in ("->", "-o", "-o_l", "-o_r"):
            kind = take()
            return ("->", kind, tuple(members), arrow())
        if len(members) != 1:
            raise ValueError(f"intersection outside an arrow domain in {src!r}")
        return members[0]

    def atom():
        tok = take()
        if tok == "(":
            t = arrow()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {src!r}")
            return t
        return ("v", tok)

    t = arrow()
    if pos != len(toks):
        raise ValueError(f"trailing input in {src!r}")
    return t


def type_from_json(doc):
    """A type in the ``lambda-expand/v1`` JSON encoding (intersection
    arrows and type variables)."""
    if doc["kind"] == "tvar":
        return ("v", doc["name"])
    if doc["kind"] == "inter-arrow":
        return ("->", "->", tuple(type_from_json(d) for d in doc["doms"]),
                type_from_json(doc["cod"]))
    raise ValueError(f"not a type node: {doc['kind']!r}")


def _type_vars(t, out: list) -> list:
    if t[0] == "v":
        if t[1] not in out:
            out.append(t[1])
    else:
        for m in t[2]:
            _type_vars(m, out)
        _type_vars(t[3], out)
    return out


def _canon_type(t, ren: dict):
    """Rename variables and sort intersection members."""
    if t[0] == "v":
        return ("v", ren[t[1]])
    doms = tuple(sorted((_canon_type(m, ren) for m in t[2]), key=repr))
    return ("->", t[1], doms, _canon_type(t[3], ren))


def types_match(a, b) -> bool:
    """Equal up to a bijective renaming of type variables and the order of
    intersection members."""
    va, vb = _type_vars(a, []), _type_vars(b, [])
    if len(va) != len(vb):
        return False
    target = _canon_type(b, {v: v for v in vb})
    return any(
        _canon_type(a, dict(zip(va, perm))) == target
        for perm in itertools.permutations(vb)
    )


# --------------------------------------------------------------------------
# counting


def count_terms(n: int, closed_only: bool = False) -> int:
    """Number of alpha classes of terms of exactly size n (constructor
    count), free variables told apart by order of first occurrence."""

    @lru_cache(maxsize=None)
    def ways(n: int, depth: int, frees: int) -> tuple:
        # ways(...)[k] = terms of size n under `depth` binders, entered
        # with `frees` free names seen so far, that leave `frees + k` seen
        if n == 1:
            here = depth + (0 if closed_only else frees)
            return (here, 0) if closed_only else (here, 1)
        total = list(ways(n - 1, depth + 1, frees))
        for i in range(1, n - 1):
            for k1, c1 in enumerate(ways(i, depth, frees)):
                if not c1:
                    continue
                for k2, c2 in enumerate(ways(n - 1 - i, depth, frees + k1)):
                    while len(total) <= k1 + k2:
                        total.append(0)
                    total[k1 + k2] += c1 * c2
        return tuple(total)

    return sum(ways(n, 0, 0))


def count_types(depth: int, arity: int, atoms: int = 2) -> int:
    """Types of depth at most ``depth`` over ``atoms`` atoms whose arrows
    carry one to ``arity`` domain members."""
    n = atoms
    for _ in range(depth - 1):
        n = atoms + sum(n ** k for k in range(1, arity + 1)) * n
    return n


def count_environments(variables: int, pool: int, arity: int) -> int:
    """Environments over ``variables`` names, each absent or bound to a
    list of one to ``arity`` members drawn from ``pool`` types."""
    return (1 + sum(pool ** k for k in range(1, arity + 1))) ** variables
