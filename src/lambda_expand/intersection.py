"""Intersection typing: checking, inference by reduce-and-replay, and the
derivation surgery both directions of beta need.

Types are strict intersections (typelang.InterArrow): an arrow whose
domain is a nonempty ordered list of member types.  Environments map
each free variable to the ordered list of types of its occurrences,
left to right.  Four rules:

    ax        x : s from {x: [s]}
    arrow_i   \\x.M : (E(x)) -> s when x is free in M; the whole list
              E(x) is discharged at once
    arrow_i'  \\x.M : (t) -> s when x is not free in M; t is any single
              type (domains of vacuous abstractions are singletons)
    arrow_e   M : (s1 ... sn) -> t plus one derivation of N per member
              gives M N : t; the environments meet pointwise

Inference normalizes first (leftmost), types the normal form, then
replays the reduction backwards one step at a time.  Each backward step
is pure derivation surgery; no search is involved, which is what keeps
the procedure a function of the trace rather than of the type language.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Iterator

from ._node import node
from .reduction import FuelExhausted, RedexPosition, Strategy, beta_step, steps
from .terms import (
    Abs,
    App,
    Term,
    Var,
    alpha_eq,
    canonicalize,
    free_vars,
    FreshSupply,
)
from .typelang import (
    CheckResult,
    Flavor,
    InterArrow,
    InterType,
    PassSlot,
    TVar,
    TypeEnv,
    check_tree,
    env_eq,
    fold,
    has_passed,
    inter_eq,
    inter_list_eq,
    letter_names,
    normalize,
    preorder,
    record_pass,
)


@node
class InterDerivation(PassSlot):
    rule: str  # ax | arrow_i | arrow_i_prime | arrow_e
    env: "tuple[tuple[str, tuple[InterType, ...]], ...]"
    subject: Term
    ty: InterType
    premises: tuple["InterDerivation", ...] = ()

    def environment(self) -> TypeEnv:
        return dict(self.env)


def _ax(v: Var, ty: InterType) -> InterDerivation:
    """The axiom deriving v at ty from the single assumption v : [ty]."""
    return InterDerivation("ax", ((v.name, (ty,)),), v, ty)


def _abs_node(
    subject: Abs, p: InterDerivation, vacuous_doms: tuple[InterType, ...]
) -> InterDerivation:
    """The abstraction `subject` over p, which derives its body: arrow_i
    discharging the binder's whole list when it occurs in p, else
    arrow_i_prime with domain `vacuous_doms`."""
    x = subject.binder
    for i, (y, members) in enumerate(p.env):
        if y == x:
            env = p.env[:i] + p.env[i + 1 :]
            return InterDerivation("arrow_i", env, subject, InterArrow(members, p.ty), (p,))
    return InterDerivation("arrow_i_prime", p.env, subject, InterArrow(vacuous_doms, p.ty), (p,))


def _met_env(
    fun_env: tuple[tuple[str, tuple[InterType, ...]], ...], arg_envs: list
) -> tuple[tuple[str, tuple[InterType, ...]], ...]:
    """The pointwise meet of the premises' environments (typelang.env_meet):
    a copy of the function premise's env tuple, with the (name, members)
    pairs of each argument premise's merged in and member tuples
    concatenated."""
    env = dict(fun_env)
    for pairs in arg_envs:
        for x, members in pairs:
            had = env.get(x)
            env[x] = members if had is None else had + members
    return tuple(env.items())


def _app_node(pf: InterDerivation, pas: list[InterDerivation], subject: App) -> InterDerivation:
    """arrow_e applying pf to the argument premises pas at `subject`; the
    environments meet pointwise.  The names of an env tuple this module
    builds are distinct, so each argument's pairs are read as they stand."""
    assert isinstance(pf.ty, InterArrow)
    met = _met_env(pf.env, [a.env for a in pas])
    return InterDerivation("arrow_e", met, subject, pf.ty.cod, (pf, *pas))


def check_inter(d: InterDerivation, flavor: Flavor = Flavor.A) -> CheckResult:
    """Replay a derivation against the four rules.

    The flavor controls how intersection lists are compared, each by its
    normal form (typelang.normalize): A demands the exact sequences, AC
    equal multisets, ACI equal sets.  Argument premises pair one to one
    with domain members under every flavor.

    Every AC and ACI comparison first tries equality as given, so a pass
    under A is a pass under every flavor.  Derivations produced by this
    module are A-strict, so d is first replayed under A, and a pass is
    recorded on d under all three flavors (typelang.check_tree): d is
    walked once whatever flavors are asked for.  Only a d that fails under
    A is walked again under the requested flavor, which names the path
    and reason; a pass under ACI says nothing about A.
    """
    if has_passed(d, flavor):
        return CheckResult(True)
    res = check_tree(d, _icheck_exact, Flavor.A)
    if res:
        record_pass(d, Flavor.AC)
        record_pass(d, Flavor.ACI)
    elif flavor is not Flavor.A:
        res = check_tree(d, partial(_icheck_node, flavor), flavor)
    return res


def _icheck_node(flavor: Flavor, d: InterDerivation) -> str | None:
    """The reason one node breaks its rule, or None.  A node's env tuple is
    first compared with the one its rule expects, as given; dicts are built
    for the flavored comparison only when the two differ."""
    if d.rule == "ax":
        if d.premises:
            return "ax takes no premises"
        if not isinstance(d.subject, Var):
            return "ax subject must be a variable"
        want = ((d.subject.name, (d.ty,)),)
        if d.env != want and dict(d.env) != dict(want):
            return "ax environment must be the single assumption"
        return None

    if d.rule in ("arrow_i", "arrow_i_prime"):
        if len(d.premises) != 1:
            return f"{d.rule} takes one premise"
        (p,) = d.premises
        if not isinstance(d.subject, Abs):
            return f"{d.rule} concludes an abstraction"
        x = d.subject.binder
        if d.subject.body != p.subject:
            return f"{d.rule} premise subject must be the body"
        if not isinstance(d.ty, InterArrow):
            return f"{d.rule} concludes an arrow"
        if not inter_eq(d.ty.cod, p.ty, flavor):
            return f"{d.rule} codomain must be the premise type"
        rest = tuple(e for e in p.env if e[0] != x)
        if d.rule == "arrow_i":
            if len(rest) == len(p.env):
                return "arrow_i needs the binder in the environment"
            # the binder's last entry, as a dict of p.env keeps it
            members = next(ms for y, ms in reversed(p.env) if y == x)
            if not inter_list_eq(d.ty.doms, members, flavor):
                return "arrow_i discharges the binder's full list"
        else:
            if len(rest) != len(p.env):
                return "arrow_i_prime needs the binder unused"
            if len(d.ty.doms) != 1:
                return "arrow_i_prime domains are singletons"
        if d.env != rest and not env_eq(dict(d.env), dict(rest), flavor):
            return f"{d.rule} environment must drop the binder"
        return None

    if d.rule == "arrow_e":
        if len(d.premises) < 2:
            return "arrow_e takes a function and argument premises"
        pf, *pas = d.premises
        if not isinstance(pf.ty, InterArrow):
            return "arrow_e function premise needs an arrow type"
        if len(pas) != len(pf.ty.doms):
            return "arrow_e needs one argument premise per member"
        if not _doms_matched(pf.ty.doms, [a.ty for a in pas], flavor):
            return "argument types must match the domain members"
        if not isinstance(d.subject, App):
            return "arrow_e concludes an application"
        if d.subject.fun != pf.subject:
            return "arrow_e function premise subject mismatch"
        if any(a.subject != d.subject.arg for a in pas):
            return "argument premises must all derive the argument"
        if not inter_eq(d.ty, pf.ty.cod, flavor):
            return "arrow_e concludes the codomain"
        # an env tuple from outside may repeat a name: as a dict, its last
        # entry counts
        met = _met_env(pf.env, [dict(a.env).items() for a in pas])
        if d.env != met and not env_eq(dict(d.env), dict(met), flavor):
            return "arrow_e environment must be the pointwise meet"
        return None

    return f"unknown rule {d.rule!r}"


_icheck_exact = partial(_icheck_node, Flavor.A)


def _doms_matched(
    doms: tuple[InterType, ...], args: list[InterType], flavor: Flavor
) -> bool:
    """Argument premises against domain members: positional under A; under
    AC and ACI the multisets of flavor-normal members must agree.  ACI too
    pairs members one to one, since each member has its own premise."""
    if tuple(doms) == tuple(args):
        return True
    if flavor is Flavor.A:
        return False
    members = [normalize(m, flavor) for m in doms]
    given = [normalize(a, flavor) for a in args]
    return Counter(members) == Counter(given)


# ---------------------------------------------------------------------------
# type-variable plumbing


def _deriv_ty_vars(root: InterDerivation | InterType, drawn: int = -1) -> list[TVar]:
    """The type variable objects under root, a derivation or a type, in
    first-occurrence order: nodes in left-first preorder, a node's type
    before its environment's members, domains before the codomain.  The
    walk runs on explicit stacks and enters each type object once, so a
    shared type costs one visit.

    A caller that knows root holds at most `drawn` variable objects passes
    that bound, and the walk stops at the variable that reaches it: the
    list is the same, and on a normal form from infer the walk ends inside
    the root's type and env."""
    out: list[TVar] = []
    seen: set[int] = set()
    nodes, types = ([root], []) if isinstance(root, InterDerivation) else ([], [root])
    while True:
        while types:
            x = types.pop()
            if id(x) not in seen:
                seen.add(id(x))
                if type(x) is TVar:
                    out.append(x)
                    if len(out) == drawn:
                        return out
                else:
                    types.append(x.cod)
                    types += x.doms[::-1]
        if not nodes:
            return out
        n = nodes.pop()
        nodes += n.premises[::-1]
        types = [n.ty]
        for _, members in n.env:
            types += members
        types.reverse()


def ty_vars(root: InterDerivation | InterType) -> list[str]:
    """Type variable names in first-occurrence order (_deriv_ty_vars)."""
    return list(dict.fromkeys(v.name for v in _deriv_ty_vars(root)))


def _sub_ty(t: InterType, name: Callable[[TVar], InterType], done: dict) -> InterType:
    """t with name(v) for each type variable v, domains first; `done` memoizes by id."""
    out = done.get(id(t))
    if out is None:
        if isinstance(t, TVar):
            out = name(t)
        else:
            doms = tuple(_sub_ty(m, name, done) for m in t.doms)
            out = InterArrow(doms, _sub_ty(t.cod, name, done))
        done[id(t)] = out
    return out


def _retype(d: InterDerivation, name: Callable[[TVar], InterType]) -> InterDerivation:
    """d with name(v) for each type variable v, met in _deriv_ty_vars' order."""
    done: dict[int, InterType] = {}
    # name in the left-first preorder, then rebuild
    typed = {id(n): (_sub_ty(n.ty, name, done),
                     tuple((x, tuple([_sub_ty(m, name, done) for m in ms])) for x, ms in n.env))
             for n in preorder(d, right_first=False)}
    return fold(d, lambda n, prems: InterDerivation(n.rule, typed[id(n)][1], n.subject,
                                                    typed[id(n)][0], prems))


def rename_tyvars(d: InterDerivation, s: dict[str, InterType]) -> InterDerivation:
    """Substitute s into every type of d, in a copy: d belongs to the
    caller and stays as it is."""
    return _retype(d, lambda v: s.get(v.name, v))


# ---------------------------------------------------------------------------
# typing normal forms


class NotNormalError(ValueError):
    pass


def infer_nf(t: Term, fresh: FreshSupply | None = None) -> InterDerivation:
    """Derivation for a beta-normal form.

    Every invented intersection is a singleton: spine arguments are each
    typed once, vacuous abstractions get a fresh variable domain.  Only
    abstraction over a repeatedly used variable produces a wider list,
    collecting the occurrence types left to right.  Type variables are
    drawn from `fresh` as t1, t2, ..., in the order a recursive walk would
    draw them.  This is where every variable of infer's result is drawn,
    during that call and from the call's own supply, so each stays private
    to the call until it returns: infer then renames each one in place,
    once.

    The walk runs on an explicit stack, so a normal form's depth is bounded
    by memory: an (abstraction, None) pair on the stack finishes that
    abstraction over the last derivation built, and a (head, applications)
    pair the spine applying the head variable to the last
    len(applications) derivations built.  Every node's subject is the
    subterm of t it derives.
    """
    if fresh is None:
        fresh = FreshSupply()
    out: list[InterDerivation] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.append(_ax(t, TVar(fresh.fresh("t"))))
        elif isinstance(t, Abs):
            stack.append((t, None))
            stack.append(t.body)
        elif isinstance(t, App):
            head, apps = _spine(t)
            if not isinstance(head, Var):
                raise NotNormalError(f"redex in head position: {t}")
            stack.append((head, apps))
            stack += [app.arg for app in reversed(apps)]
        elif isinstance(t, tuple):
            t, apps = t
            if apps is None:
                p = out.pop()
                used = any(y == t.binder for y, _ in p.env)
                out.append(_abs_node(t, p, () if used else (TVar(fresh.fresh("t")),)))
            else:
                arg_ds = out[-len(apps) :]
                del out[-len(apps) :]
                head_ty: InterType = TVar(fresh.fresh("t"))
                for a in reversed(arg_ds):
                    head_ty = InterArrow((a.ty,), head_ty)
                d = _ax(t, head_ty)
                for app, a in zip(apps, arg_ds):
                    d = _app_node(d, [a], app)
                out.append(d)
        else:
            raise TypeError(t)
    return out[0]


def _spine(t: Term) -> tuple[Term, list[App]]:
    """t's head and the applications along its spine, innermost first."""
    apps: list[App] = []
    while isinstance(t, App):
        apps.append(t)
        t = t.fun
    return t, apps[::-1]


# ---------------------------------------------------------------------------
# subject expansion: one backward beta step on a derivation


class ReplayError(RuntimeError):
    """The derivation surgery hit a shape the replay cannot rebuild."""


def retarget(d: InterDerivation, term: Term) -> InterDerivation:
    """Rename the derivation's subject spelling onto an alpha-equal term.

    The walk is scoped, so duplicate binder names (as grafting produces)
    rename independently per occurrence.
    """
    if d.subject == term:
        return d
    if not alpha_eq(d.subject, term):
        raise ReplayError("retarget needs an alpha-equal spelling")
    return _retarget(d, term, {})


def _retarget(
    d: InterDerivation, term: Term, ren: dict[str, str]
) -> InterDerivation:
    env = tuple((ren.get(x, x), members) for x, members in d.env)
    if d.rule == "ax":
        return InterDerivation("ax", env, term, d.ty, ())
    if d.rule in ("arrow_i", "arrow_i_prime"):
        if not isinstance(term, Abs) or not isinstance(d.subject, Abs):
            raise ReplayError("retarget shapes diverged at an abstraction")
        inner = dict(ren)
        inner[d.subject.binder] = term.binder
        p = _retarget(d.premises[0], term.body, inner)
        return InterDerivation(d.rule, env, term, d.ty, (p,))
    if d.rule == "arrow_e":
        if not isinstance(term, App):
            raise ReplayError("retarget shapes diverged at an application")
        pf, *pas = d.premises
        nf = _retarget(pf, term.fun, ren)
        nas = tuple(_retarget(a, term.arg, ren) for a in pas)
        return InterDerivation("arrow_e", env, term, d.ty, (nf, *nas))
    raise ReplayError(f"unknown rule {d.rule!r}")


def subject_expand(
    d: InterDerivation,
    before: Term,
    position: tuple[str, ...],
    fuel: int = 10_000,
    fresh: FreshSupply | None = None,
) -> InterDerivation:
    """Lift a derivation over one beta step.

    d derives the term obtained from `before` by contracting the redex
    at `position`; the result derives `before` itself with the same
    type.  When the contraction erased its argument, the argument is
    typed from scratch (recursively), which raises FuelExhausted when
    it does not normalize within the fuel.
    """
    if fresh is None:
        fresh = FreshSupply(ty_vars(d))
    return _at(d, before, position, partial(_expand_site, fuel=fuel, fresh=fresh))


def _at(
    d: InterDerivation,
    term: Term,
    path: tuple[str, ...],
    site: Callable[[InterDerivation, Term], InterDerivation],
) -> InterDerivation:
    """Carry d across one beta step to a derivation of `term`: the step's
    source when expanding, its reduct when reducing.  `site` does the
    surgery at the redex; the nodes above it are rebuilt over `term`."""
    if not path:
        return site(d, term)

    step, rest = path[0], path[1:]
    if step == "under":
        if not isinstance(term, Abs) or d.rule not in ("arrow_i", "arrow_i_prime"):
            raise ReplayError("path walks under a non-abstraction")
        if d.subject.binder != term.binder:  # type: ignore[union-attr]
            raise ReplayError("binder spelling changed above the redex")
        p = _at(d.premises[0], term.body, rest, site)
        # the premise may have gained occurrences of the binder (an erased
        # argument mentioned it) or lost them all (the step erased them)
        n = _abs_node(term, p, d.ty.doms)  # type: ignore[union-attr]
        if d.rule == "arrow_i" and n.rule != "arrow_i" and len(n.ty.doms) != 1:
            raise ReductionTypeError(
                "binder lost all occurrences but its domain is not a singleton"
            )
        return n

    if not isinstance(term, App) or d.rule != "arrow_e":
        raise ReplayError("path walks into a non-application")
    # the step's result was canonicalized as a whole, so the side the step
    # did not touch may be spelled apart from `term`; retarget it
    pf, *pas = d.premises
    if step == "left":
        pf = _at(pf, term.fun, rest, site)
        pas = [retarget(a, term.arg) for a in pas]
    elif step == "right":
        pf = retarget(pf, term.fun)
        pas = [_at(a, term.arg, rest, site) for a in pas]
    else:
        raise ReplayError(f"bad path component {step!r}")
    return _rebuild_app(pf, pas, term)


def _rebuild_app(
    pf: InterDerivation, pas: list[InterDerivation], subject: App
) -> InterDerivation:
    """Application node over rebuilt premises, repairing the function's
    domain when argument types shifted underneath it."""
    assert isinstance(pf.ty, InterArrow)
    arg_tys = tuple(a.ty for a in pas)
    if pf.ty.doms != arg_tys:
        pf = _respine(pf, InterArrow(arg_tys, pf.ty.cod))
    return _app_node(pf, pas, subject)


def _respine(d: InterDerivation, ty: InterType) -> InterDerivation:
    """Rewrite the type of a variable-headed spine.

    Sound because an axiom derives its variable at any type; anything
    other than a spine here would be an enclosing redex, which leftmost
    order rules out.
    """
    if d.rule == "ax":
        assert isinstance(d.subject, Var)
        return _ax(d.subject, ty)
    if d.rule == "arrow_e":
        pf, *pas = d.premises
        assert isinstance(pf.ty, InterArrow)
        pf = _respine(pf, InterArrow(pf.ty.doms, ty))
        return _app_node(pf, pas, d.subject)
    raise ReplayError("cannot rewrite the type of a non-spine function")


def _expand_site(
    d: InterDerivation, redex: Term, fuel: int, fresh: FreshSupply
) -> InterDerivation:
    if not isinstance(redex, App) or not isinstance(redex.fun, Abs):
        raise ReplayError("expansion site is not a redex")
    x, m, n = redex.fun.binder, redex.fun.body, redex.arg

    if x not in free_vars(m):
        # erasing step: the contractum is m itself
        body_d = retarget(d, m)
        arg_d = _infer(n, fuel, fresh)
        lam = _abs_node(redex.fun, body_d, (arg_d.ty,))
        return _app_node(lam, [arg_d], redex)

    detached: list[InterDerivation] = []
    p = _extract(m, d, {}, x, detached)
    doms = tuple(a.ty for a in detached)
    lam = _abs_node(redex.fun, p, doms)
    if lam.rule != "arrow_i" or lam.ty.doms != doms:  # type: ignore[union-attr]
        raise ReplayError("detached occurrence types disagree with the environment")
    return _app_node(lam, [retarget(a, n) for a in detached], redex)


def _extract(
    m: Term,
    d: InterDerivation,
    ren: dict[str, str],
    x: str,
    detached: list[InterDerivation],
) -> InterDerivation:
    """Walk the redex body m against the derivation of m[x := n].

    At each occurrence of x the derivation fragment covering the
    substituted copy of n is detached and replaced by an axiom for x at
    the same type; environments are remet on the way out.  ren tracks
    binder renamings the substitution performed on m.
    """
    match m:
        case Var(v) if v == x:
            detached.append(d)
            return _ax(m, d.ty)
        case Var(v):
            if d.rule != "ax" or d.subject != Var(ren.get(v, v)):
                raise ReplayError("variable occurrence does not line up")
            return _ax(m, d.ty)
        case Abs(b, body):
            if d.rule not in ("arrow_i", "arrow_i_prime") or not isinstance(
                d.subject, Abs
            ):
                raise ReplayError("abstraction does not line up")
            inner = dict(ren)
            if d.subject.binder != b:
                inner[b] = d.subject.binder
            p = _extract(body, d.premises[0], inner, x, detached)
            n = _abs_node(m, p, d.ty.doms)  # type: ignore[union-attr]
            if n.rule != d.rule:
                raise ReplayError(
                    "binder gained occurrences during extraction"
                    if n.rule == "arrow_i"
                    else "binder lost its occurrences during extraction"
                )
            return n
        case App(f, a):
            if d.rule != "arrow_e":
                raise ReplayError("application does not line up")
            pf, *pas = d.premises
            nf = _extract(f, pf, ren, x, detached)
            nas = [_extract(a, pa, ren, x, detached) for pa in pas]
            assert isinstance(nf.ty, InterArrow)
            if tuple(p.ty for p in nas) != nf.ty.doms:
                raise ReplayError("extraction changed an argument type")
            return _app_node(nf, nas, m)
    raise TypeError(m)


# ---------------------------------------------------------------------------
# full inference


def infer(t: Term, fuel: int = 10_000) -> InterDerivation | None:
    """Intersection derivation for t, or None when normalization does not
    land within the fuel budget (erased arguments included).

    The subject of the result is the canonicalized spelling of t; type
    variables are canonical letters, a, b, c, ... in _deriv_ty_vars order.
    Each variable of the result was drawn during this call, from the call's
    own supply (infer_nf), so nothing outside the call can reach it before the
    call returns.  That lets infer give each one its letter in place, once,
    without rebuilding the derivation; no type is hashed into a container
    that outlives the renaming.  The naming walk stops once it has met as
    many variables as the supply drew: on a normal form, inside the root's
    type and env.  It runs to the end only where the replay dropped a
    variable, as when an erased argument retypes a vacuous binder.

    A leftmost step is a function of the term's alpha class, so a run that
    meets a term it has already met never lands.  The run compares each
    term with one checkpoint, moved to the current term after steps 1, 2,
    4, 8, ... (Brent's cycle detection), and gives up at the first repeat
    it meets: Omega after one step, and a run whose terms repeat with period
    p from step m on within 2 max(m, p) + p steps.  Only a run that neither
    lands nor repeats spends the whole fuel.  `reduction.reduce` keeps no
    checkpoint and still runs to its fuel.

    The replay needs the term before each step, but only of a run that
    normalizes.  So the run holds the terms of its first `_HELD_STATES`
    (128) steps and the positions of the rest; a run that normalizes after
    more steps rebuilds the missing terms from the last held one by
    contracting at the recorded positions, and a run that spends its fuel
    holds no more terms than that.
    """
    t = canonicalize(t, FreshSupply())
    fresh = FreshSupply()
    try:
        d = _infer(t, fuel, fresh)
    except FuelExhausted:
        return None
    # infer_nf draws each name once, into one object
    for v, letter in zip(_deriv_ty_vars(d, fresh.drawn), letter_names()):
        object.__setattr__(v, "name", letter)
    return d


# How many of a run's terms inference holds while it reduces.  Every
# normalizing run the benchmark and the property matrix make fits (3^4
# takes 80 steps, open terms up to size 8 at most 2), while a run that spends
# its fuel without repeating a term, such as (\x. x x y) (\x. x x y), whose
# terms grow by one argument a step, would otherwise hold one term per step
# that no replay reads.  Rebuilding past it spells each term as the run did,
# because beta_step is a function of (term, position) alone.
_HELD_STATES = 128


def _infer(t: Term, fuel: int, fresh: FreshSupply) -> InterDerivation:
    positions: list[RedexPosition] = []
    states, nf = [t], t
    checkpoint, moves_at = t, 1
    for pos, nf in steps(t, Strategy.LEFTMOST, fuel):
        positions.append(pos)
        if alpha_eq(nf, checkpoint):
            raise FuelExhausted
        if len(positions) == moves_at:
            checkpoint, moves_at = nf, 2 * moves_at
        if len(states) < _HELD_STATES:
            states.append(nf)
    for pos in positions[len(states) - 1 : -1]:
        states.append(beta_step(states[-1], pos))
    d = infer_nf(nf, fresh)
    for i in range(len(positions) - 1, -1, -1):
        d = subject_expand(d, states[i], positions[i], fuel, fresh)
        if d.subject != states[i]:
            raise ReplayError("replay lost the subject spelling")
    return d


# ---------------------------------------------------------------------------
# subject reduction: one forward beta step on a derivation


class ReductionTypeError(RuntimeError):
    """The step does not preserve the derived type (vacuous binder with a
    non-singleton domain lost its argument)."""


def subject_reduce(
    d: InterDerivation, reduct: Term, position: tuple[str, ...]
) -> InterDerivation:
    """Push a derivation forward over one beta step.

    d derives some term with a redex at `position`; `reduct` is that
    term after contracting it (canonical spelling).  The result derives
    `reduct` at the same type: argument derivations are grafted onto the
    axiom leaves of the bound variable.
    """
    return _at(d, reduct, position, _reduce_site)


def _reduce_site(d: InterDerivation, contractum: Term) -> InterDerivation:
    if d.rule != "arrow_e":
        raise ReplayError("reduction site is not an application")
    lam, *args = d.premises
    if lam.rule == "arrow_i_prime":
        body_d = lam.premises[0]
        return retarget(body_d, contractum)
    if lam.rule != "arrow_i":
        raise ReplayError("reduction site function is not an abstraction")
    assert isinstance(lam.subject, Abs)
    x = lam.subject.binder
    body_d = lam.premises[0]
    grafted = _graft(body_d, x, args)
    if args:
        raise ReplayError("more argument derivations than occurrences")
    return retarget(grafted, contractum)


def _graft(
    d: InterDerivation, x: str, queue: list[InterDerivation]
) -> InterDerivation:
    """Replace each axiom leaf for x (left to right) with the next
    argument derivation, remeeting environments on the way out."""

    def build(n: InterDerivation, premises: tuple) -> InterDerivation:
        if n.rule == "ax":
            assert isinstance(n.subject, Var)
            if n.subject.name != x:
                return n
            if not queue:
                raise ReplayError("fewer argument derivations than occurrences")
            a = queue.pop(0)
            if a.ty != n.ty:
                raise ReplayError("argument type does not match the occurrence")
            return a
        if n.rule in ("arrow_i", "arrow_i_prime"):
            assert isinstance(n.subject, Abs) and isinstance(n.ty, InterArrow)
            subject = Abs(n.subject.binder, premises[0].subject)
            out = _abs_node(subject, premises[0], n.ty.doms)
            if out.rule != n.rule or out.ty != n.ty:
                raise ReplayError("grafting changed the discharged list")
            return out
        if n.rule == "arrow_e":
            nf, *nas = premises
            return _app_node(nf, nas, App(nf.subject, nas[0].subject))
        raise ReplayError(f"unknown rule {n.rule!r}")

    return fold(d, build)


# ---------------------------------------------------------------------------
# realizing a requested type


def match_requested(
    d: InterDerivation, requested: InterType, flavor: Flavor
) -> InterDerivation | None:
    """Instantiate a derivation so its type becomes `requested`.

    One-way matching: type variables of the derivation are solved
    against the requested type, whose own variables stay rigid.  Member
    lists are matched positionally under A, bijectively under AC, and by
    covering both ways under ACI.  Returns the substituted derivation,
    or None when no consistent assignment exists.
    """
    own = ty_vars(d)
    rigid = set(ty_vars(requested))
    for s in _match_ty(d.ty, requested, {}, flavor):
        # the variables the match leaves free take letters the request
        # does not use, so they stay apart from its rigid ones
        names = (n for n in letter_names() if n not in rigid)
        out = rename_tyvars(d, {**s, **{v: TVar(next(names)) for v in own if v not in s}})
        if check_inter(out, flavor):
            return out
    return None


def _match_ty(
    pat: InterType, tgt: InterType, s: dict[str, InterType], flavor: Flavor
) -> Iterator[dict[str, InterType]]:
    """Extensions of s that map pat onto tgt.  Every variable of pat is
    the derivation's own: unbound, it binds; bound, its binding must equal
    tgt under the flavor."""
    if isinstance(pat, TVar):
        bound = s.get(pat.name)
        if bound is None:
            yield {**s, pat.name: tgt}
        elif inter_eq(bound, tgt, flavor):
            yield s
    elif isinstance(tgt, InterArrow):
        for s2 in _match_members(pat.doms, tgt.doms, s, flavor):
            yield from _match_ty(pat.cod, tgt.cod, s2, flavor)


def _match_members(
    pats: tuple[InterType, ...],
    tgts: tuple[InterType, ...],
    s: dict[str, InterType],
    flavor: Flavor,
) -> Iterator[dict[str, InterType]]:
    """Backtracking over pattern members in order: under A each takes the
    target member at its own position, under AC an unused one, under ACI
    any one, its own position first so that an exact spelling wins, and in
    the end every target member must be covered.  Under ACI a pattern
    member covers its target's whole class of ACI-equal members, so
    (a & a) -> a takes a one-member pattern."""
    if flavor is not Flavor.ACI and len(pats) != len(tgts):
        return
    if flavor is Flavor.ACI:
        classes: dict[InterType, int] = {}
        cover = [classes.setdefault(normalize(t, flavor), len(classes)) for t in tgts]
    else:
        cover = list(range(len(tgts)))
    yield from _place(pats, tgts, cover, len(set(cover)), 0, s, frozenset(), flavor)


def _place(
    pats: tuple[InterType, ...],
    tgts: tuple[InterType, ...],
    cover: list[int],
    n_cover: int,
    i: int,
    s: dict[str, InterType],
    used: frozenset[int],
    flavor: Flavor,
) -> Iterator[dict[str, InterType]]:
    """_match_members from pattern member i on, with the cover classes in
    `used` taken; a module-level generator, so a match leaves no
    reference cycle behind."""
    if len(pats) - i < n_cover - len(used):
        return  # too few pattern members left to cover the targets
    if i == len(pats):
        yield s
        return
    order = (i,) if flavor is Flavor.A else range(len(tgts))
    if flavor is Flavor.ACI:
        order = sorted(order, key=lambda j: j != i)
    for j in order:
        if flavor is Flavor.AC and j in used:
            continue  # the cover check would reject it one member later
        for s2 in _match_ty(pats[i], tgts[j], s, flavor):
            yield from _place(pats, tgts, cover, n_cover, i + 1, s2, used | {cover[j]}, flavor)
