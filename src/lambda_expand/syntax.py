"""Concrete syntax: parsing and rendering of terms and types.

Terms: identifiers match [a-z][a-zA-Z0-9_']*, abstraction is `\\x. M` (λ also
accepted, binders may be listed: `\\x y. M`), application is juxtaposition and
associates left. Types: each language admits its own arrows, all
right-associative: `->` for simple and intersection types, `-o` for linear
types, `-o_l` and `-o_r` for ordered types. Intersection types also admit
`&` (n-ary, binds tighter than arrows), but only as a whole arrow domain. Any
other connective is a ParseError. `→`, `⊸`, `⊸_l`, `⊸_r` and `∩` are read as
the Unicode spellings. Output is ASCII by default; unicode=True emits λ, ∩
and the `⊸` arrows, while `->` stays ASCII.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .terms import Abs, App, Term, Var
from .typelang import (
    Arrow,
    InterArrow,
    InterType,
    LinearType,
    Lolli,
    LolliL,
    LolliR,
    OrderedType,
    SimpleType,
    TVar,
    Type,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Connective(NamedTuple):
    cls: type
    kind: str
    ascii: str
    unicode: str
    shows_unicode: bool = True


# Each arrow once: its type class, its token kind, and its ASCII and Unicode
# spellings. The lexer reads either spelling; render_type prints the Unicode
# one under unicode=True, except that `->` stays ASCII.
_ARROWS = (
    _Connective(Arrow, "ARROW", "->", "→", shows_unicode=False),
    _Connective(Lolli, "LOLLI", "-o", "⊸"),
    _Connective(LolliL, "LOLLI_L", "-o_l", "⊸_l"),
    _Connective(LolliR, "LOLLI_R", "-o_r", "⊸_r"),
)
_ARROW_KINDS = frozenset(conn.kind for conn in _ARROWS)
_CONNECTIVE = {conn.cls: conn for conn in _ARROWS}
_CONNECTIVE[InterArrow] = _CONNECTIVE[Arrow]  # a strict intersection arrow is spelled `->`
_AMP = ("&", "∩")  # ASCII and Unicode spelling of intersection

_TOKEN_SPEC = [
    ("IDENT", r"[a-z][a-zA-Z0-9_']*"),
    ("LAMBDA", r"\\|λ"),
    # longest spelling first, so that `-o_l` is not read as `-o`
    *(
        (conn.kind, f"{re.escape(conn.ascii)}|{re.escape(conn.unicode)}")
        for conn in sorted(_ARROWS, key=lambda conn: -len(conn.ascii))
    ),
    ("AMP", "|".join(_AMP)),
    ("DOT", r"\."),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COLON", r":"),
    ("COMMA", r","),
    ("WS", r"[ \t\r\n]+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_SPEC))


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _lex(src: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "WS":
            toks.append(_Tok(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Cursor:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()


# ---- terms ----


def parse_term(src: str) -> Term:
    """Recursive descent over

        term ::= abs | app
        abs  ::= '\\' ident+ '.' term
        app  ::= atom atom* [abs]
        atom ::= ident | '(' term ')'

    run on an explicit stack of pending constructs, so nesting depth is
    bounded by memory rather than by the recursion limit."""
    cur = _Cursor(_lex(src))
    # innermost last: ("abs", binders) waits for its body, ("(", None) for a
    # term and then its closing parenthesis, and ("app", f) for f's next
    # argument (an abstraction argument is the last, as it extends right)
    stack: list[tuple[str, object]] = []
    while True:
        # start a term: binder prefixes and open parentheses, up to a variable
        tok = cur.next()
        if tok.kind == "LAMBDA":
            binders = [cur.expect("IDENT").text]
            while cur.peek().kind == "IDENT":
                binders.append(cur.next().text)
            cur.expect("DOT")
            stack.append(("abs", binders))
            continue
        if tok.kind == "LPAREN":
            stack.append(("(", None))
            continue
        if tok.kind != "IDENT":
            raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        t: Term = Var(tok.text)
        while True:
            # t is an atom: the head of an application, or its next argument
            if stack and stack[-1][0] == "app":
                t = App(stack.pop()[1], t)
            if cur.peek().kind in ("IDENT", "LPAREN", "LAMBDA"):
                stack.append(("app", t))
                break
            # t is a whole term: close the constructs it completes
            while stack and stack[-1][0] != "(":
                tag, x = stack.pop()
                if tag == "app":
                    t = App(x, t)
                else:
                    for b in reversed(x):
                        t = Abs(b, t)
            if not stack:
                tok = cur.peek()
                if tok.kind != "EOF":
                    raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
                return t
            stack.pop()
            cur.expect("RPAREN")


def render_term(t: Term, unicode: bool = False) -> str:
    """t as parse_term reads it back, printed from an explicit stack."""
    lam = "λ" if unicode else "\\"
    out: list[str] = []
    # (term, position) pairs still to print, and text (a str) to emit after
    # them, innermost last; the position is "top", "fun" or "arg"
    stack: list = [(t, "top")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, pos = item
        if isinstance(t, Var):
            out.append(t.name)
        elif isinstance(t, Abs):
            binders = []
            while isinstance(t, Abs):
                binders.append(t.binder)
                t = t.body
            opened = pos != "top"
            out.append(f"{'(' if opened else ''}{lam}{' '.join(binders)}. ")
            if opened:
                stack.append(")")
            stack.append((t, "top"))
        elif isinstance(t, App):
            if pos == "arg":
                out.append("(")
                stack.append(")")
            stack.append((t.arg, "arg"))
            stack.append(" ")
            stack.append((t.fun, "fun"))
        else:
            raise TypeError(t)
    return "".join(out)


# ---- types ----

# A parsed group: one type, or the members of an intersection with its first
# `&`, the position a misplaced intersection is reported at.
_Group = tuple[tuple[Type, ...], _Tok | None]


def _parse_type(src: str, language: str, *classes: type) -> Type:
    """Recursive descent over the type language whose arrows are `classes`.

    `&` is admitted only with InterArrow, and only to form a whole arrow
    domain: `a & b -> c`, or `(a & b) -> c`, which parses the same.
    """
    parser = _TypeParser(_Cursor(_lex(src)), language, classes)
    ty = _single(parser.arrow_type())
    tok = parser.cur.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
    return ty


def _single(group: _Group) -> Type:
    members, amp = group
    if amp is not None:
        raise ParseError("an intersection may only appear in an arrow domain", amp.line, amp.col)
    return members[0]


class _TypeParser:
    """The descent's state, held by an object rather than closed over by
    nested functions that refer to themselves, so a parse leaves no
    reference cycle behind."""

    def __init__(self, cur: _Cursor, language: str, classes: tuple[type, ...]):
        self.cur = cur
        self.language = language
        self.classes = classes
        self.arrows = {_CONNECTIVE[cls].kind: cls for cls in classes}

    def arrow_type(self) -> _Group:
        dom = self.domain()
        tok = self.cur.peek()
        if tok.kind not in _ARROW_KINDS:
            return dom
        cls = self.arrows.get(tok.kind)
        if cls is None:
            raise ParseError(f"{tok.text!r} is not a connective of {self.language} types", tok.line, tok.col)
        self.cur.next()
        cod = _single(self.arrow_type())
        ty = InterArrow(dom[0], cod) if cls is InterArrow else cls(_single(dom), cod)
        return (ty,), None

    def domain(self) -> _Group:
        group = self.atom()
        first = self.cur.peek()
        if first.kind != "AMP":
            return group
        members = [_single(group)]
        while (tok := self.cur.peek()).kind == "AMP":
            if InterArrow not in self.classes:
                raise ParseError(f"{tok.text!r} is not a connective of {self.language} types", tok.line, tok.col)
            self.cur.next()
            members.append(_single(self.atom()))
        return tuple(members), first

    def atom(self) -> _Group:
        tok = self.cur.next()
        if tok.kind == "IDENT":
            return (TVar(tok.text),), None
        if tok.kind == "LPAREN":
            group = self.arrow_type()
            self.cur.expect("RPAREN")
            return group
        raise ParseError(f"expected a type, found {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse_simple_type(src: str) -> SimpleType:
    return _parse_type(src, "simple", Arrow)


def parse_linear_type(src: str) -> LinearType:
    return _parse_type(src, "linear", Lolli)


def parse_ordered_type(src: str) -> OrderedType:
    return _parse_type(src, "ordered", LolliL, LolliR)


def parse_inter_type(src: str) -> InterType:
    return _parse_type(src, "intersection", InterArrow)


def render_type(t: Type, unicode: bool = False) -> str:
    return _type_text(t, unicode)


def render_members(members: Iterable[Type], unicode: bool = False) -> str:
    """The members of an intersection as an arrow domain prints them: joined
    by `&`, every member but a variable in parentheses."""
    return f" {_AMP[unicode]} ".join(
        m.name if isinstance(m, TVar) else f"({_type_text(m, unicode)})" for m in members
    )


def _type_text(t: Type, unicode: bool) -> str:
    # arrows associate to the right, so the codomain chain is one loop
    parts = []
    while not isinstance(t, TVar):
        conn = _CONNECTIVE.get(type(t))
        if conn is None:
            raise TypeError(t)
        doms = t.doms if isinstance(t, InterArrow) else (t.dom,)
        spelling = conn.unicode if unicode and conn.shows_unicode else conn.ascii
        parts.append(f"{render_members(doms, unicode)} {spelling} ")
        t = t.cod
    parts.append(t.name)
    return "".join(parts)
