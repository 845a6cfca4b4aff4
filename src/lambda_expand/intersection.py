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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

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
    TVar,
    TypeEnv,
    check_tree,
    env_eq,
    env_meet,
    fold,
    inter_eq,
    inter_list_eq,
    letter_names,
    normalize,
    preorder,
)


@dataclass(frozen=True)
class InterDerivation:
    rule: str  # ax | arrow_i | arrow_i_prime | arrow_e
    env: "tuple[tuple[str, tuple[InterType, ...]], ...]"
    subject: Term
    ty: InterType
    premises: tuple["InterDerivation", ...] = ()

    def environment(self) -> TypeEnv:
        return dict(self.env)


def _freeze_env(env: TypeEnv) -> tuple[tuple[str, tuple[InterType, ...]], ...]:
    return tuple((x, tuple(members)) for x, members in env.items())


def _node(
    rule: str,
    env: TypeEnv,
    subject: Term,
    ty: InterType,
    premises: tuple[InterDerivation, ...] = (),
) -> InterDerivation:
    return InterDerivation(rule, _freeze_env(env), subject, ty, premises)


def _env_without(env: TypeEnv, x: str) -> TypeEnv:
    return {k: v for k, v in env.items() if k != x}


def _abs_node(
    x: str, p: InterDerivation, vacuous_doms: tuple[InterType, ...]
) -> InterDerivation:
    """Abstraction of x over p: arrow_i discharging x's whole list when x
    occurs in p, else arrow_i_prime with domain `vacuous_doms`."""
    penv = p.environment()
    subject = Abs(x, p.subject)
    if x in penv:
        ty = InterArrow(penv[x], p.ty)
        return _node("arrow_i", _env_without(penv, x), subject, ty, (p,))
    return _node("arrow_i_prime", penv, subject, InterArrow(vacuous_doms, p.ty), (p,))


def _app_node(
    pf: InterDerivation, pas: list[InterDerivation], subject: Term
) -> InterDerivation:
    """arrow_e applying pf to the argument premises pas; the environments
    meet pointwise."""
    assert isinstance(pf.ty, InterArrow)
    env = env_meet(pf.environment(), *[a.environment() for a in pas])
    return _node("arrow_e", env, subject, pf.ty.cod, (pf, *pas))


def check_inter(d: InterDerivation, flavor: Flavor = Flavor.A) -> CheckResult:
    """Replay a derivation against the four rules.

    The flavor controls how intersection lists are compared, each by its
    normal form (typelang.normalize): A demands the exact sequences, AC
    equal multisets, ACI equal sets.  Argument premises pair one to one
    with domain members under every flavor.  Derivations produced by this
    module are A-strict and therefore pass under every flavor.
    """
    return check_tree(d, partial(_icheck_node, flavor))


def _icheck_node(flavor: Flavor, d: InterDerivation) -> str | None:
    """The reason one node breaks its rule, or None."""
    env = d.environment()
    if d.rule == "ax":
        if d.premises:
            return "ax takes no premises"
        if not isinstance(d.subject, Var):
            return "ax subject must be a variable"
        want = {d.subject.name: (d.ty,)}
        if env != want:
            return "ax environment must be the single assumption"
        return None

    if d.rule in ("arrow_i", "arrow_i_prime"):
        if len(d.premises) != 1:
            return f"{d.rule} takes one premise"
        (p,) = d.premises
        penv = p.environment()
        if not isinstance(d.subject, Abs):
            return f"{d.rule} concludes an abstraction"
        x = d.subject.binder
        if d.subject.body != p.subject:
            return f"{d.rule} premise subject must be the body"
        if not isinstance(d.ty, InterArrow):
            return f"{d.rule} concludes an arrow"
        if not inter_eq(d.ty.cod, p.ty, flavor):
            return f"{d.rule} codomain must be the premise type"
        if d.rule == "arrow_i":
            if x not in penv:
                return "arrow_i needs the binder in the environment"
            if not inter_list_eq(d.ty.doms, penv[x], flavor):
                return "arrow_i discharges the binder's full list"
        else:
            if x in penv:
                return "arrow_i_prime needs the binder unused"
            if len(d.ty.doms) != 1:
                return "arrow_i_prime domains are singletons"
        if not env_eq(env, _env_without(penv, x), flavor):
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
        met = env_meet(pf.environment(), *[a.environment() for a in pas])
        if not env_eq(env, met, flavor):
            return "arrow_e environment must be the pointwise meet"
        return None

    return f"unknown rule {d.rule!r}"


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


def _add_ty_vars(t: InterType, seen: dict[str, None]) -> None:
    """Add t's type variables to `seen` in first-occurrence order."""
    if isinstance(t, TVar):
        seen.setdefault(t.name)
    else:
        for m in t.doms:
            _add_ty_vars(m, seen)
        _add_ty_vars(t.cod, seen)


def ty_vars(t: InterType) -> list[str]:
    """Type variables in first-occurrence order."""
    seen: dict[str, None] = {}
    _add_ty_vars(t, seen)
    return list(seen)


def rename_tyvars(d: InterDerivation, s: dict[str, InterType]) -> InterDerivation:
    """Substitute s into every type of d.  Each distinct type node (by
    identity; d keeps them all alive) is rewritten once."""
    done: dict[int, InterType] = {}

    def sub(t: InterType) -> InterType:
        out = done.get(id(t))
        if out is None:
            if isinstance(t, TVar):
                out = s.get(t.name, t)
            else:
                out = InterArrow(tuple(sub(m) for m in t.doms), sub(t.cod))
            done[id(t)] = out
        return out

    def build(n: InterDerivation, prems: tuple[InterDerivation, ...]) -> InterDerivation:
        env = tuple((x, tuple(sub(m) for m in members)) for x, members in n.env)
        return InterDerivation(n.rule, env, n.subject, sub(n.ty), prems)

    return fold(d, build)


def _deriv_ty_vars(d: InterDerivation) -> list[str]:
    """First-occurrence order: root type, then environment, then premises."""
    seen: dict[str, None] = {}
    for n in preorder(d, right_first=False):
        _add_ty_vars(n.ty, seen)
        for _, members in n.env:
            for m in members:
                _add_ty_vars(m, seen)
    return list(seen)


def canonical_tyvars(d: InterDerivation) -> InterDerivation:
    """Rename type variables to a, b, c, ... in first-occurrence order of
    the root type, then the root environment, then the premises."""
    names = letter_names()
    return rename_tyvars(d, {v: TVar(next(names)) for v in _deriv_ty_vars(d)})


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
    drawn from `fresh` as t1, t2, ...
    """
    if fresh is None:
        fresh = FreshSupply()
    match t:
        case Var(x):
            a = TVar(fresh.fresh("t"))
            return _node("ax", {x: (a,)}, t, a)
        case Abs(x, body):
            p = infer_nf(body, fresh)
            used = x in p.environment()
            return _abs_node(x, p, () if used else (TVar(fresh.fresh("t")),))
        case App(_, _):
            spine, args = _spine(t)
            if not isinstance(spine, Var):
                raise NotNormalError(f"redex in head position: {t}")
            arg_ds = [infer_nf(a, fresh) for a in args]
            result = TVar(fresh.fresh("t"))
            head_ty: InterType = result
            for a in reversed(arg_ds):
                head_ty = InterArrow((a.ty,), head_ty)
            d: InterDerivation = _node(
                "ax", {spine.name: (head_ty,)}, spine, head_ty
            )
            for a in arg_ds:
                d = _app_node(d, [a], App(d.subject, a.subject))
            return d
    raise TypeError(t)


def _spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    return t, args[::-1]


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
        fresh = FreshSupply(_deriv_ty_vars(d))
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
        n = _abs_node(term.binder, p, d.ty.doms)  # type: ignore[union-attr]
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
        return _node("ax", {d.subject.name: (ty,)}, d.subject, ty)
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
        lam = _abs_node(x, body_d, (arg_d.ty,))
        return _app_node(lam, [arg_d], redex)

    detached: list[InterDerivation] = []
    p = _extract(m, d, {}, x, detached)
    penv = p.environment()
    doms = tuple(a.ty for a in detached)
    if penv.get(x) != doms:
        raise ReplayError("detached occurrence types disagree with the environment")
    lam = _abs_node(x, p, ())
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
            return _node("ax", {x: (d.ty,)}, m, d.ty)
        case Var(v):
            if d.rule != "ax" or d.subject != Var(ren.get(v, v)):
                raise ReplayError("variable occurrence does not line up")
            return _node("ax", {v: (d.ty,)}, m, d.ty)
        case Abs(b, body):
            if d.rule not in ("arrow_i", "arrow_i_prime") or not isinstance(
                d.subject, Abs
            ):
                raise ReplayError("abstraction does not line up")
            inner = dict(ren)
            if d.subject.binder != b:
                inner[b] = d.subject.binder
            p = _extract(body, d.premises[0], inner, x, detached)
            n = _abs_node(b, p, d.ty.doms)  # type: ignore[union-attr]
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
            return _app_node(nf, nas, App(f, a))
    raise TypeError(m)


# ---------------------------------------------------------------------------
# full inference


def infer(t: Term, fuel: int = 10_000) -> InterDerivation | None:
    """Intersection derivation for t, or None when normalization does not
    land within the fuel budget (erased arguments included).

    The subject of the result is the canonicalized spelling of t; type
    variables are canonical letters.

    The replay needs the term before each step, but only of a run that
    normalizes.  So the run holds the terms of its first `_HELD_STATES`
    (128) steps and the positions of the rest; a run that normalizes after
    more steps rebuilds the missing terms from the last held one by
    contracting at the recorded positions, and a run that spends its fuel
    holds no more terms than that.
    """
    t = canonicalize(t, FreshSupply())
    try:
        d = _infer(t, fuel, FreshSupply())
    except FuelExhausted:
        return None
    return canonical_tyvars(d)


# How many of a run's terms inference holds while it reduces.  Every
# normalizing run the benchmark and the property matrix make fits (3^4
# takes 80 steps, open terms up to size 8 at most 2), while a run that spends
# its fuel, such as Omega's 10,000 steps, would otherwise hold one term per
# step that no replay reads.  Rebuilding past it spells each term as the
# run did, because beta_step is a function of (term, position) alone.
_HELD_STATES = 128


def _infer(t: Term, fuel: int, fresh: FreshSupply) -> InterDerivation:
    positions: list[RedexPosition] = []
    states, nf = [t], t
    for pos, nf in steps(t, Strategy.LEFTMOST, fuel):
        positions.append(pos)
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
            out = _abs_node(n.subject.binder, premises[0], n.ty.doms)
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
    # keep the derivation's variables apart from the requested type's
    pre = {v: TVar(f"_m{i}") for i, v in enumerate(_deriv_ty_vars(d))}
    d = rename_tyvars(d, pre)
    for s in _match_ty(d.ty, requested, {}, flavor):
        out = rename_tyvars(d, s)
        leftovers = [v for v in _deriv_ty_vars(out) if v.startswith("_m")]
        if leftovers:
            taken = set(_deriv_ty_vars(out)) | set(ty_vars(requested))
            names = (n for n in letter_names() if n not in taken)
            out = rename_tyvars(out, {v: TVar(next(names)) for v in leftovers})
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
    any one, and in the end every target member must be covered.  Under
    ACI a pattern member covers its target's whole class of ACI-equal
    members, so (a & a) -> a takes a one-member pattern."""
    if flavor is not Flavor.ACI and len(pats) != len(tgts):
        return
    if flavor is Flavor.ACI:
        classes: dict[InterType, int] = {}
        cover = [classes.setdefault(normalize(t, flavor), len(classes)) for t in tgts]
    else:
        cover = list(range(len(tgts)))
    n_cover = len(set(cover))

    def place(i: int, s: dict[str, InterType], used: frozenset[int]):
        if len(pats) - i < n_cover - len(used):
            return  # too few pattern members left to cover the targets
        if i == len(pats):
            yield s
            return
        for j in (i,) if flavor is Flavor.A else range(len(tgts)):
            if flavor is Flavor.AC and j in used:
                continue  # the cover check would reject it one member later
            for s2 in _match_ty(pats[i], tgts[j], s, flavor):
                yield from place(i + 1, s2, used | {cover[j]})

    yield from place(0, s, frozenset())
