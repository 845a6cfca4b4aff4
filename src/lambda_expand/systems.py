"""Typing judgements for the structural-rule family of simple type systems.

Five systems share one derivation shape. They differ in which structural
rules are admitted and in which arrow connective they use:

    curry     weak, ex, ctr    ->
    relevant  ex, ctr          ->
    affine    weak, ex         -o
    linear    ex               -o
    ordered   (none)           -o_l and -o_r

Bases are ordered association lists (typelang.Basis), so exchange is a
real rule here rather than a metatheorem. A derivation is an explicit
tree; `check_derivation` replays every node against the rule table for
its system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress, count
from operator import ne
from typing import Iterable, Iterator

from .terms import (
    Abs,
    App,
    FreshSupply,
    Term,
    Var,
    canonicalize,
    classify,
    free_vars,
    rename_free,
)
from .typelang import (
    Arrow,
    Basis,
    CheckResult,
    Flavor,
    InterArrow,
    InterType,
    Lolli,
    LolliL,
    LolliR,
    OrderedType,
    SimpleType,
    TVar,
    Type,
    check_distinct,
    check_tree,
    fold,
    has_passed,
    letter_names,
    record_pass,
)


class System(Enum):
    CURRY = "curry"
    RELEVANT = "relevant"
    AFFINE = "affine"
    LINEAR = "linear"
    ORDERED = "ordered"

    __hash__ = object.__hash__  # as typelang.Flavor's


# Structural rules each system admits.  Ordered admits none.
STRUCTURAL: dict[System, frozenset[str]] = {
    System.CURRY: frozenset({"weak", "ex", "ctr"}),
    System.RELEVANT: frozenset({"ex", "ctr"}),
    System.AFFINE: frozenset({"weak", "ex"}),
    System.LINEAR: frozenset({"ex"}),
    System.ORDERED: frozenset(),
}

# Each system's arrow rules and their connective.  The set-like systems
# have one introduction and one elimination; ordered has a left and a
# right one of each.  arrow_i_l discharges the first basis entry and
# arrow_e_l puts the argument's basis first; the other rules discharge the
# last entry and put the function's basis first.
CONNECTIVE: dict[System, dict[str, type]] = {
    System.CURRY: {"arrow_i": Arrow, "arrow_e": Arrow},
    System.RELEVANT: {"arrow_i": Arrow, "arrow_e": Arrow},
    System.AFFINE: {"arrow_i": Lolli, "arrow_e": Lolli},
    System.LINEAR: {"arrow_i": Lolli, "arrow_e": Lolli},
    System.ORDERED: {
        "arrow_i_l": LolliL,
        "arrow_i_r": LolliR,
        "arrow_e_l": LolliL,
        "arrow_e_r": LolliR,
    },
}


@dataclass(frozen=True)
class Derivation:
    """One node of a typing derivation.

    premises are ordered; for the elimination rules the function premise
    comes first and the argument premise second, regardless of how the
    rule arranges their bases in the conclusion.
    """

    system: System
    rule: str
    basis: Basis
    subject: Term
    ty: Type
    premises: tuple["Derivation", ...] = ()


_FOREIGN = "premise belongs to a different system"
# check_derivation's key in a tree's pass record: the root fixes the
# system, so one key serves every derivation
_CHECKED = "check_derivation"


def check_derivation(d: Derivation) -> CheckResult:
    """Replay one derivation tree against the rule table of d.system.  A
    pass is recorded on d (typelang.check_tree), so d is walked once."""
    sys = d.system
    structural = STRUCTURAL[sys]
    arrows = CONNECTIVE[sys]

    def check(n: Derivation) -> str | None:
        if n.system is not sys:
            return _FOREIGN
        rule = n.rule
        if rule == "ax":
            return _check_ax(n)
        if rule in structural:
            return _check_structural(n)
        conn = arrows.get(rule)
        if conn is None:
            return f"rule {rule!r} not available in {sys.value}"
        if rule.startswith("arrow_i"):
            return _check_intro(n, conn)
        return _check_elim(n, conn)

    res = check_tree(d, check, _CHECKED)
    # a recursive check rejects a premise of another system before it
    # enters that premise, so a failure beneath one is reported there
    node = d
    for depth, i in enumerate(res.path):
        node = node.premises[i]
        if node.system is not sys:
            return CheckResult(False, res.path[: depth + 1], _FOREIGN)
    return res


def _check_ax(d: Derivation) -> str | None:
    if d.premises:
        return "ax takes no premises"
    if len(d.basis.entries) != 1:
        return "ax needs a singleton basis"
    x, ty = d.basis.entries[0]
    if not isinstance(d.subject, Var) or d.subject.name != x:
        return "ax subject must be the basis variable"
    if d.ty != ty:
        return "ax type must match the basis entry"
    return None


def _check_structural(d: Derivation) -> str | None:
    if len(d.premises) != 1:
        return f"{d.rule} takes one premise"
    (p,) = d.premises
    if d.rule != "ctr" and d.subject != p.subject:
        return f"{d.rule} must not change the subject"
    if d.ty != p.ty:
        return f"{d.rule} must not change the type"

    pe = p.basis.entries
    ce = d.basis.entries
    if d.rule == "weak":
        # conclusion appends one fresh entry at the end
        if len(ce) != len(pe) + 1 or ce[:-1] != pe:
            return "weak appends exactly one entry"
        x, _ = ce[-1]
        if x in p.basis.vars():
            return "weakened variable already in basis"
        return None
    if d.rule == "ex":
        # conclusion swaps one adjacent pair
        if len(ce) != len(pe):
            return "ex preserves basis length"
        diffs = list(compress(count(), map(ne, ce, pe)))
        if len(diffs) != 2 or diffs[1] != diffs[0] + 1:
            return "ex swaps one adjacent pair"
        i = diffs[0]
        if ce[i] != pe[i + 1] or ce[i + 1] != pe[i]:
            return "ex swaps one adjacent pair"
        return None
    if d.rule == "ctr":
        # premise ends with x:t, y:t; conclusion keeps x and renames y to
        # x in the subject
        if len(pe) < 2 or len(ce) != len(pe) - 1:
            return "ctr drops exactly one entry"
        (x, tx), (y, ty) = pe[-2], pe[-1]
        if tx != ty:
            return "ctr needs equal types on the merged pair"
        if ce != pe[:-1]:
            return "ctr keeps the basis prefix"
        if not _renames_to(p.subject, y, x, d.subject):
            return "ctr must rename the dropped variable"
        return None
    raise AssertionError(d.rule)


def _renames_to(t: Term, y: str, x: str, u: Term) -> bool:
    """Whether u == rename_free(t, {y: x}), walked without building it."""
    stack = [(t, u, True)]  # live: y is free here, so renamed
    while stack:
        a, b, live = stack.pop()
        if type(a) is not type(b) or isinstance(a, Abs) and a.binder != b.binder:
            return False
        if isinstance(a, Var):
            if b.name != (x if live and a.name == y else a.name):
                return False
        elif isinstance(a, Abs):
            stack.append((a.body, b.body, live and a.binder != y))
        else:
            stack += [(a.fun, b.fun, live), (a.arg, b.arg, live)]
    return True


def _check_intro(d: Derivation, conn: type) -> str | None:
    if len(d.premises) != 1:
        return f"{d.rule} takes one premise"
    (p,) = d.premises
    if not isinstance(d.subject, Abs):
        return f"{d.rule} concludes an abstraction"
    pe = p.basis.entries
    if not pe:
        return f"{d.rule} discharges a basis entry"
    if d.rule == "arrow_i_l":
        (x, tx), rest = pe[0], pe[1:]
    else:
        (x, tx), rest = pe[-1], pe[:-1]
    if d.basis.entries != rest:
        return f"{d.rule} keeps the remaining basis in order"
    if d.subject.binder != x or d.subject.body != p.subject:
        return f"{d.rule} subject must bind the discharged variable"
    if not isinstance(d.ty, conn) or d.ty.dom != tx or d.ty.cod != p.ty:
        return f"{d.rule} type must match the discharged entry"
    return None


def _check_elim(d: Derivation, conn: type) -> str | None:
    if len(d.premises) != 2:
        return f"{d.rule} takes two premises"
    pf, pa = d.premises
    if not isinstance(pf.ty, conn):
        return f"{d.rule} function premise needs {conn.__name__}"
    if pf.ty.dom != pa.ty:
        return f"{d.rule} argument type must match the domain"
    if d.ty != pf.ty.cod:
        return f"{d.rule} concludes the codomain"
    s = d.subject
    if not isinstance(s, App) or s.fun != pf.subject or s.arg != pa.subject:
        return f"{d.rule} subject must apply fun to arg"
    first, second = (pa, pf) if d.rule == "arrow_e_l" else (pf, pa)
    if d.basis.entries != first.basis.entries + second.basis.entries:
        return f"{d.rule} arranges the premise bases the other way"
    names = set(pf.basis.vars())
    if not names.isdisjoint(pa.basis.vars()):
        return f"premise bases share {sorted(names.intersection(pa.basis.vars()))}"
    return None


def relabel(d: Derivation, system: System) -> Derivation:
    """d's tree with every node in `system`.

    Where `system` has d.system's arrow rules (curry and relevant, affine
    and linear), the copy passes check_derivation exactly when d passes
    and `system` admits every rule d uses, since no node check but the
    rule table reads the system.  So when d's pass is recorded and its
    rules are admitted, the copy is recorded as passed without a walk;
    otherwise check_derivation walks it and names the rule it lacks."""
    rules: set[str] = set()

    def build(n: Derivation, ps: tuple[Derivation, ...]) -> Derivation:
        rules.add(n.rule)
        return Derivation(system, n.rule, n.basis, n.subject, n.ty, ps)

    out = fold(d, build)
    if (
        CONNECTIVE[system] == CONNECTIVE[d.system]
        and has_passed(d, _CHECKED)
        and rules <= {"ax", *STRUCTURAL[system], *CONNECTIVE[system]}
    ):
        record_pass(out, _CHECKED)
    return out


# ---------------------------------------------------------------------------
# derivation surgery: exchange chains, contraction, weakening


def _swap(d: Derivation, i: int) -> Derivation:
    """One ex step swapping basis positions i and i+1."""
    e = list(d.basis.entries)
    e[i], e[i + 1] = e[i + 1], e[i]
    return Derivation(d.system, "ex", Basis(tuple(e)), d.subject, d.ty, (d,))


def permute_basis(d: Derivation, order: tuple[str, ...]) -> Derivation:
    """Stack ex nodes until the basis lists variables in `order`.

    Insertion-sort style: bubble each variable into place left to right.
    Requires the system to admit ex unless the order already matches.
    """
    if d.basis.vars() == order:
        return d
    if "ex" not in STRUCTURAL[d.system]:
        raise ValueError("system admits no exchange")
    if sorted(d.basis.vars()) != sorted(order):
        raise ValueError("order must be a permutation of the basis")
    cur = d
    for target_pos, x in enumerate(order):
        pos = cur.basis.vars().index(x)
        while pos > target_pos:
            cur = _swap(cur, pos - 1)
            pos -= 1
    return cur


def move_to_end(d: Derivation, x: str) -> Derivation:
    """Bubble variable x to the last basis position with ex nodes."""
    pos = d.basis.vars().index(x)
    cur = d
    while pos < len(cur.basis.entries) - 1:
        cur = _swap(cur, pos)
        pos += 1
    return cur


def contract(d: Derivation, x: str, ys: list[str]) -> Derivation:
    """Merge each of ys into x, the last first: move x, then y, to the
    end, then one ctr node.  x stays at the end, so merging k names that
    stand together at the end costs 2k-2 ex nodes, not k(k+1)/2."""
    for y in reversed(ys):
        d = move_to_end(move_to_end(d, x), y)
        subject = rename_free(d.subject, {y: x})
        d = Derivation(d.system, "ctr", Basis(d.basis.entries[:-1]), subject, d.ty, (d,))
    return d


def weaken(d: Derivation, x: str, ty: Type) -> Derivation:
    entries = d.basis.entries + ((x, ty),)
    return Derivation(d.system, "weak", Basis(entries), d.subject, d.ty, (d,))


def intro(p: Derivation, rule: str) -> Derivation:
    """The introduction `rule` over p: arrow_i_l discharges p's first
    basis entry, the other introductions its last."""
    pe = p.basis.entries
    (x, tx), rest = (pe[0], pe[1:]) if rule == "arrow_i_l" else (pe[-1], pe[:-1])
    ty = CONNECTIVE[p.system][rule](tx, p.ty)
    return Derivation(p.system, rule, Basis(rest), Abs(x, p.subject), ty, (p,))


def elim(pf: Derivation, pa: Derivation, rule: str) -> Derivation:
    """The elimination `rule` applying pf to pa; raises ValueError when
    pf's type is not an arrow of the rule's connective from pa's type."""
    conn = CONNECTIVE[pf.system][rule]
    if not isinstance(pf.ty, conn) or pf.ty.dom != pa.ty:
        raise ValueError(f"function part needs {conn.__name__} from the argument type")
    first, second = (pa, pf) if rule == "arrow_e_l" else (pf, pa)
    basis = Basis(first.basis.entries + second.basis.entries)
    subject = App(pf.subject, pa.subject)
    return Derivation(pf.system, rule, basis, subject, pf.ty.cod, (pf, pa))


# ---------------------------------------------------------------------------
# unification: one trail-based unifier serves Curry inference and the
# ordered search.  Metavariables stand for unknown types inside Arrow,
# Lolli, LolliL and LolliR nodes; arrows unify only with the same
# connective.  Type variables are rigid: each unifies only with itself.


class _MVar:
    """Metavariable for an unknown type."""

    __slots__ = ("link",)

    def __init__(self) -> None:
        self.link: object | None = None


_ARROWS = (Arrow, Lolli, LolliL, LolliR)


def _mwalk(t: object) -> object:
    while isinstance(t, _MVar) and t.link is not None:
        t = t.link
    return t


def _moccurs(v: _MVar, t: object) -> bool:
    t = _mwalk(t)
    if t is v:
        return True
    if isinstance(t, _ARROWS):
        return _moccurs(v, t.dom) or _moccurs(v, t.cod)
    return False


class _Trail:
    """Undo log for metavariable bindings."""

    def __init__(self) -> None:
        self._log: list[_MVar] = []

    def mark(self) -> int:
        return len(self._log)

    def bind(self, v: _MVar, t: object) -> None:
        v.link = t
        self._log.append(v)

    def undo(self, mark: int) -> None:
        while len(self._log) > mark:
            self._log.pop().link = None


def _munify(a: object, b: object, trail: _Trail) -> bool:
    a, b = _mwalk(a), _mwalk(b)
    if a is b:
        return True
    if isinstance(a, _MVar):
        if _moccurs(a, b):
            return False
        trail.bind(a, b)
        return True
    if isinstance(b, _MVar):
        return _munify(b, a, trail)
    if type(a) is type(b) and isinstance(a, _ARROWS):
        return _munify(a.dom, b.dom, trail) and _munify(a.cod, b.cod, trail)
    return a == b


def _freezer(rigid: Iterable[Type] = (), arrow=None):
    """Read solved types back: each unbound metavariable becomes a type
    variable named a, b, c, ... in first-occurrence order, skipping every
    type variable of the `rigid` types, nested ones included.  `arrow`,
    when given, builds every arrow in place of its own connective."""
    taken: set[Type] = set()
    pending = list(rigid)
    while pending:
        ty = pending.pop()
        if isinstance(ty, _ARROWS):
            pending += (ty.dom, ty.cod)
        else:
            taken.add(ty)
    names = (v for v in map(TVar, letter_names()) if v not in taken)
    seen: dict[int, TVar] = {}

    def freeze(t: object) -> Type:
        # an explicit stack, so a type's depth is bounded by memory: an
        # arrow's builder comes back to build it over its frozen parts
        out: list = []
        stack: list = [t]
        while stack:
            t = _mwalk(stack.pop())
            if callable(t):
                cod = out.pop()
                out.append(t(out.pop(), cod))
            elif isinstance(t, _MVar):
                if id(t) not in seen:
                    seen[id(t)] = next(names)
                out.append(seen[id(t)])
            elif isinstance(t, _ARROWS):
                stack += (arrow or type(t), t.cod, t.dom)
            else:
                out.append(t)
        return out[0]

    return freeze


# ---------------------------------------------------------------------------
# Curry-style inference (principal simple types via unification)


def _curry_solve(term: Term, conn: type, fixed: dict[str, Type], goal: Type | None):
    """Unification pass shared by the inference entry points.

    Arrows are built with `conn`.  The names in `fixed` take those types,
    and the subject type is unified with `goal` when given; the type
    variables of both are rigid.  Returns None when untypable, else (raw
    subject type, raw types of the free variables and the fixed names,
    raw types of the binders seen along the way).  Binder records are
    keyed by (binder name, body) so shadowed names stay apart even on
    non-canonical input.
    """
    trail = _Trail()
    env: dict[str, object] = {x: _MVar() for x in free_vars(term)}
    env.update(fixed)
    binders: list[tuple[Abs, object]] = []

    # an explicit stack, so a term's depth is bounded by memory: a (term,
    # scope) pair types the term under scope; once its parts are typed, an
    # abstraction comes back paired with its binder's metavariable, to finish
    # over the last type produced, and an application paired with None, to
    # finish over the last two; one untypable part makes the whole untypable
    out: list[object] = []
    stack: list = [(term, env)]
    while stack:
        t, scope = stack.pop()
        match t:
            case Var(x):
                out.append(scope[x])
            case Abs(b, body) if isinstance(scope, dict):
                v = _MVar()
                binders.append((t, v))
                stack.append((t, v))
                stack.append((body, {**scope, b: v}))
            case Abs():
                out.append(conn(scope, out.pop()))
            case App(f, a) if scope is not None:
                stack.append((t, None))
                stack.append((a, scope))
                stack.append((f, scope))
            case App():
                ta = out.pop()
                res = _MVar()
                if not _munify(out.pop(), conn(ta, res), trail):
                    return None
                out.append(res)
            case _:
                raise AssertionError
    (raw,) = out
    if goal is not None and not _munify(raw, goal, trail):
        return None
    return raw, env, binders


def infer_curry(term: Term) -> SimpleType | None:
    """Principal simple type of a term, or None when untypable.

    Open terms are accepted; free variables get their own inferred
    types but only the subject's type is returned.  Type variables in
    the result are named a, b, c, ... in first-occurrence order.
    """
    solved = _curry_solve(term, Arrow, {}, None)
    if solved is None:
        return None
    raw, _, _ = solved
    return _freezer()(raw)


def decide(
    system: System,
    term: Term,
    basis: Basis | None = None,
    ty: Type | None = None,
) -> Derivation | None:
    """Decision procedure with a checkable witness derivation.

    Characterisations: curry is plain simple typability; relevant adds
    that every binder is used; affine requires every variable to occur
    at most once; linear exactly once.  The witness types the
    canonicalized term at its principal type, with -o arrows for affine
    and linear.  It is the expansion of the term's Curry typing, lifted
    (_lift): under ACI for curry and relevant, so its ctr nodes are the
    repeated occurrences (idempotence), under AC for affine and linear,
    and strict for relevant and linear.

    With a basis it judges `basis |- term : ty`: the basis types every
    free variable (ValueError when one has no entry, or when a name
    repeats) and lists the witness's root basis, `ty` is unified with the subject's type, and
    the type variables of both are rigid.  Binders are renamed apart from
    the basis names; entries the term does not use need weakening.
    Without a basis, the root basis lists the free variables in order.
    """
    cls = classify(term)
    gate = {
        System.CURRY: True,
        System.RELEVANT: cls.is_lambda_i,
        System.AFFINE: cls.is_affine,
        System.LINEAR: cls.is_linear,
    }
    if system not in gate:
        raise ValueError("decide covers the set-like systems only")
    if basis is not None:
        check_distinct(basis)
    if not gate[system]:
        return None
    fixed = dict(basis.entries) if basis is not None else {}
    subject = canonicalize(term, FreshSupply(), avoid=fixed)
    free = free_vars(subject)
    if basis is not None:
        missing = [x for x in free if x not in fixed]
        if missing:
            raise ValueError(f"free variable {missing[0]!r} has no basis entry")
        if len(free) < len(fixed) and "weak" not in STRUCTURAL[system]:
            return None  # an entry the term does not use needs weakening
    conn = CONNECTIVE[system]["arrow_i"]
    solved = _curry_solve(subject, conn, fixed, ty)
    if solved is None:
        return None
    raw, env, binders = solved
    # the types lifted: each arrow an intersection arrow of one member
    rigid = [*fixed.values()] + ([] if ty is None else [ty])
    lift = _freezer(rigid, lambda dom, cod: InterArrow((dom,), cod))
    lift(raw)  # subject-type variables get the infer_curry names
    var_types = {x: lift(t) for x, t in env.items()}
    for node, v in binders:
        var_types[node.binder] = lift(v)

    from . import expansion  # which imports this module

    flavor = Flavor.ACI if "ctr" in STRUCTURAL[system] else Flavor.AC
    r = expansion.expand(_lift(subject, var_types), flavor, FreshSupply(var_types))
    d = r.induced if r.induced.system is system else r.strict
    if flavor is Flavor.ACI:
        for head, *rest in r.context.groups.values():
            d = contract(d, head, rest)
    d = _named_back(d, subject)
    order = tuple(free) if basis is None else basis.vars()
    for x in order:
        if x not in free:
            d = weaken(d, x, fixed[x])
    return permute_basis(d, order)


def _lift(subject: Term, var_types: dict[str, InterType]):
    """subject's intersection derivation at var_types, on an explicit stack.
    A binder discharges its one member however often it occurs: ACI reads
    the copies as one, and an affine term has no binder that occurs twice."""
    from .intersection import _abs_node, _app_node, _ax

    out: list = []
    stack: list[tuple[Term, bool]] = [(subject, True)]
    while stack:
        t, enter = stack.pop()
        if isinstance(t, Var):
            out.append(_ax(t, var_types[t.name]))
        elif enter:
            stack.append((t, False))
            stack += [(t.body, True)] if isinstance(t, Abs) else [(t.arg, True), (t.fun, True)]
        elif isinstance(t, Abs):
            dom = (var_types[t.binder],)
            d = _abs_node(t, out.pop(), dom)
            out.append(replace(d, ty=InterArrow(dom, d.ty.cod)) if len(d.ty.doms) > 1 else d)
        else:
            pa = out.pop()
            out.append(_app_node(out.pop(), [pa], t))
    return out[0]


def _named_back(d: Derivation, subject: Term) -> Derivation:
    """d, an expansion of subject's lift, with each name left in its subject
    renamed to the one of subject it stands for; the names a ctr drops stay
    apart.  One post-order pass builds each subject from the premises'."""
    ren: dict[str, str] = {}
    stack = [(d.subject, subject)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, App):
            stack += [(a.fun, b.fun), (a.arg, b.arg)]
        elif isinstance(a, Abs):
            ren[a.binder] = b.binder
            stack.append((a.body, b.body))
        else:
            ren[a.name] = b.name

    def build(n: Derivation, ps: tuple[Derivation, ...]) -> Derivation:
        entries = tuple((ren.get(y, y), t) for y, t in n.basis.entries)
        if n.rule == "ax":
            s = Var(entries[0][0])
        elif n.rule == "arrow_i":
            s = Abs(ren[n.subject.binder], ps[0].subject)
        elif n.rule == "arrow_e":
            s = App(ps[0].subject, ps[1].subject)
        elif n.rule == "ctr":  # the premise's last name into the kept one
            s = rename_free(ps[0].subject, {ps[0].basis.entries[-1][0]: entries[-1][0]})
        else:
            s = ps[0].subject
        return Derivation(n.system, n.rule, Basis(entries), s, n.ty, ps)

    return fold(d, build)


# ---------------------------------------------------------------------------
# ordered typability: backtracking proof search


class SizeBoundExceeded(Exception):
    """Raised when the ordered search exceeds its node budget."""


def _mground(t: object) -> bool:
    t = _mwalk(t)
    if isinstance(t, _MVar):
        return False
    if isinstance(t, _ARROWS):
        return _mground(t.dom) and _mground(t.cod)
    return True


def _mkey(t: object) -> object:
    t = _mwalk(t)
    if isinstance(t, LolliL):
        return ("l", _mkey(t.dom), _mkey(t.cod))
    if isinstance(t, LolliR):
        return ("r", _mkey(t.dom), _mkey(t.cod))
    return t


class _OrderedSearch:
    """Backtracking proof search for the ordered system.

    solutions() is a generator: each yield leaves the trail holding the
    bindings of one proof, and resuming undoes them before the next
    alternative is tried.  Ground goals are memoised both ways since no
    bindings can escape them.  Every recursive call shrinks the subject,
    so the search always terminates; the node budget only guards against
    combinatorial blowup on wide applications.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nodes = 0
        self.trail = _Trail()
        self.failed: set[object] = set()
        self.proved: set[object] = set()

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SizeBoundExceeded(f"ordered search exceeded {self.budget} nodes")

    def solutions(
        self, entries: tuple[tuple[str, object], ...], t: Term, goal: object
    ) -> Iterator[None]:
        self.tick()
        key = None
        if _mground(goal) and all(_mground(ty) for _, ty in entries):
            key = (tuple((x, _mkey(ty)) for x, ty in entries), t, _mkey(goal))
            if key in self.failed:
                return
            if key in self.proved:
                yield None
                return
        produced = False
        for s in self._solutions(entries, t, goal):
            produced = True
            yield s
            if key is not None:
                # ground goals have at most one distinguishable solution
                self.proved.add(key)
                return
        if key is not None and not produced:
            self.failed.add(key)

    def _solutions(
        self, entries: tuple[tuple[str, object], ...], t: Term, goal: object
    ) -> Iterator[None]:
        trail = self.trail
        match t:
            case Var(x):
                if len(entries) == 1 and entries[0][0] == x:
                    mark = trail.mark()
                    if _munify(entries[0][1], goal, trail):
                        yield None
                    trail.undo(mark)
            case Abs(b, body):
                # binder joins the basis at the end (right abstraction)
                mark = trail.mark()
                dom, cod = _MVar(), _MVar()
                if _munify(goal, LolliR(dom, cod), trail):
                    yield from self.solutions(entries + ((b, dom),), body, cod)
                trail.undo(mark)
                # binder joins the basis at the front (left abstraction)
                mark = trail.mark()
                dom, cod = _MVar(), _MVar()
                if _munify(goal, LolliL(dom, cod), trail):
                    yield from self.solutions(((b, dom),) + entries, body, cod)
                trail.undo(mark)
            case App(f, a):
                # right elimination: fun takes the prefix, arg the suffix
                for i in range(len(entries) + 1):
                    mark = trail.mark()
                    dom = _MVar()
                    for _ in self.solutions(entries[:i], f, LolliR(dom, goal)):
                        yield from self.solutions(entries[i:], a, dom)
                    trail.undo(mark)
                # left elimination: arg takes the prefix, fun the suffix
                for i in range(len(entries) + 1):
                    mark = trail.mark()
                    dom = _MVar()
                    for _ in self.solutions(entries[i:], f, LolliL(dom, goal)):
                        yield from self.solutions(entries[:i], a, dom)
                    trail.undo(mark)
            case _:
                raise AssertionError


def check_ordered(
    basis: Basis, term: Term, ty: OrderedType, budget: int = 100_000
) -> bool:
    """Does basis |- term : ty hold in the ordered system?

    Backtracking search over the six rules; type variables in the basis
    and the goal are rigid.  Raises SizeBoundExceeded past the budget, and
    ValueError when a basis name repeats.
    """
    check_distinct(basis)
    search = _OrderedSearch(budget)
    for _ in search.solutions(tuple(basis.entries), term, ty):
        return True
    return False


def infer_ordered(
    basis: Basis, term: Term, budget: int = 100_000
) -> OrderedType | None:
    """Search for any ordered type of term under the given basis.

    The goal starts as a metavariable; the first solution is frozen and
    returned, with leftover metavariables instantiated by fresh type
    variables.  None when the search space is exhausted; ValueError when
    a basis name repeats.
    """
    check_distinct(basis)
    search = _OrderedSearch(budget)
    goal = _MVar()
    for _ in search.solutions(tuple(basis.entries), term, goal):
        return _freezer(ty for _, ty in basis.entries)(goal)
    return None
