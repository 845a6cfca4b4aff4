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
# replay: carrying a derivation across one beta step
#
# Both directions of a step carry a derivation onto a term with one walk,
# _carry: onto the step's source when expanding (subject_expand), onto its
# reduct when reducing (subject_reduce).  _at walks the path to the redex,
# where the site carries the redex body across; the two directions differ
# only at an occurrence of the redex's binder.  Above the redex, _at
# rebuilds the nodes on the path and carries the side each step leaves
# untouched, which beta_step may spell apart, since it canonicalizes the
# reduct as a whole.  Every walk here runs in loops, so a derivation's depth
# is bounded by memory.


class ReplayError(RuntimeError):
    """The derivation surgery hit a shape the replay cannot rebuild."""


def _carry(
    d: InterDerivation,
    term: Term,
    x: str | None = None,
    args: Iterator[InterDerivation] | None = None,
) -> tuple[InterDerivation, list[InterDerivation]]:
    """d carried onto `term`, which spells d's subject, and the derivations
    it detached (below).  d's nodes are rebuilt over term's own subterm
    objects, with _ax, _abs_node and _app_node.  The walk checks that each
    node lines up with the term: its rule with the term's constructor, and
    a variable with the term's by the abstraction of d that binds it, or
    by name when it is free, as alpha_eq_renamed compares the two sides.  A
    subtree whose subject is the term node itself comes back as it is, so
    a part a step left untouched costs one visit.

    Given x, the walk crosses a redex whose binder is x, and the two
    directions of the step differ there alone:
    - expanding (no args), term is the redex body and d derives the
      contractum: at each occurrence of x in term, d's copy of the argument
      is detached, left to right, and an axiom for x at its type takes its
      place;
    - reducing, d derives the redex body and term is the contractum: each
      axiom for x in d takes the next derivation of `args`, the redex's
      argument premises, and carries it onto the copy of the argument at
      that position.

    The walk runs on an explicit stack: a (node, term, True) triple
    finishes that node over the results of its premises.
    """
    detached: list[InterDerivation] = []
    out: list[InterDerivation] = []
    # each name's enclosing binders on either side, innermost last, as the
    # ids of the abstractions of d they belong to
    left: dict[str, list[int]] = {}
    right: dict[str, list[int]] = {}
    stack: list = [(d, term, False)]
    while stack:
        d, term, finish = stack.pop()
        if finish:
            if d.rule == "arrow_e":
                k = len(out) - len(d.premises)
                out[k:] = [_app_node(out[k], out[k + 1 :], term)]
                continue
            left[d.subject.binder].pop()  # type: ignore[union-attr]
            right[term.binder].pop()
            n = _abs_node(term, out.pop(), d.ty.doms)  # type: ignore[union-attr]
            if n.rule != d.rule:
                raise ReplayError("binder occurrences do not line up")
            out.append(n)
        elif d.subject is term:
            out.append(d)
        elif args is not None and d.rule == "ax" and d.subject.name == x:  # type: ignore[union-attr]
            a = next(args, None)
            if a is None:
                raise ReplayError("fewer argument derivations than occurrences")
            if a.ty != d.ty:
                raise ReplayError("argument type does not match the occurrence")
            stack.append((a, term, False))
        elif args is None and isinstance(term, Var) and term.name == x:
            detached.append(d)
            out.append(_ax(term, d.ty))
        elif d.rule == "ax" and isinstance(term, Var):
            v, w = d.subject.name, term.name  # type: ignore[union-attr]
            at, bt = left.get(v), right.get(w)
            if (at[-1] if at else v) != (bt[-1] if bt else w):
                raise ReplayError("variable occurrence does not line up")
            out.append(_ax(term, d.ty))
        elif d.rule == "arrow_e" and isinstance(term, App):
            stack.append((d, term, True))
            stack += [(a, term.arg, False) for a in reversed(d.premises[1:])]
            stack.append((d.premises[0], term.fun, False))
        elif d.rule in ("arrow_i", "arrow_i_prime") and isinstance(term, Abs):
            left.setdefault(d.subject.binder, []).append(id(d))  # type: ignore[union-attr]
            right.setdefault(term.binder, []).append(id(d))
            stack.append((d, term, True))
            stack.append((d.premises[0], term.body, False))
        else:
            raise ReplayError(f"{d.rule} does not line up with the term")
    return out[0], detached


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
    surgery at the redex; the nodes above it are rebuilt over `term`.

    A step into an application's argument fans out over its argument
    premises, so the walk down keeps the nodes at each depth of the path,
    left to right, and the walk up rebuilds them from the results below."""
    levels = []
    nodes = [d]
    for step in path:
        levels.append((step, term, nodes))
        if step == "under":
            if not isinstance(term, Abs) or any(
                n.rule not in ("arrow_i", "arrow_i_prime") for n in nodes
            ):
                raise ReplayError("path walks under a non-abstraction")
            if any(n.subject.binder != term.binder for n in nodes):  # type: ignore[union-attr]
                raise ReplayError("binder spelling changed above the redex")
            term, nodes = term.body, [n.premises[0] for n in nodes]
        elif not isinstance(term, App) or any(n.rule != "arrow_e" for n in nodes):
            raise ReplayError("path walks into a non-application")
        elif step == "left":
            term, nodes = term.fun, [n.premises[0] for n in nodes]
        elif step == "right":
            term, nodes = term.arg, [a for n in nodes for a in n.premises[1:]]
        else:
            raise ReplayError(f"bad path component {step!r}")

    done = [site(n, term) for n in nodes]
    for step, term, nodes in reversed(levels):
        below = iter(done)
        done = []
        for n in nodes:
            if step == "under":
                # the premise may have gained occurrences of the binder (an
                # erased argument mentioned it) or lost them all (the step
                # erased them)
                lam = _abs_node(term, next(below), n.ty.doms)  # type: ignore[union-attr]
                if n.rule == "arrow_i" and lam.rule != "arrow_i" and len(lam.ty.doms) != 1:
                    raise ReductionTypeError(
                        "binder lost all occurrences but its domain is not a singleton"
                    )
                done.append(lam)
                continue
            pf, *pas = n.premises
            if step == "left":
                pf = next(below)
                pas = [_carry(a, term.arg)[0] for a in pas]
            else:
                pf = _carry(pf, term.fun)[0]
                pas = [next(below) for _ in pas]
            # repair the function's domain when argument types shifted
            tys = tuple(a.ty for a in pas)
            if pf.ty.doms != tys:  # type: ignore[union-attr]
                pf = _respine(pf, InterArrow(tys, pf.ty.cod))  # type: ignore[union-attr]
            done.append(_app_node(pf, pas, term))
    return done[0]


def _respine(d: InterDerivation, ty: InterType) -> InterDerivation:
    """Rewrite the type of a variable-headed spine.

    Sound because an axiom derives its variable at any type; anything
    other than a spine here would be an enclosing redex, which leftmost
    order rules out.
    """
    spine = []
    while d.rule == "arrow_e":
        spine.append(d)
        d = d.premises[0]
        ty = InterArrow(d.ty.doms, ty)  # type: ignore[union-attr]
    if d.rule != "ax":
        raise ReplayError("cannot rewrite the type of a non-spine function")
    d = _ax(d.subject, ty)  # type: ignore[arg-type]
    for n in reversed(spine):
        d = _app_node(d, n.premises[1:], n.subject)  # type: ignore[arg-type]
    return d


def _expand_site(
    d: InterDerivation, redex: Term, fuel: int, fresh: FreshSupply
) -> InterDerivation:
    """d derives the contractum of `redex`: carry it onto the redex body,
    detaching the argument's copies, each then carried onto the argument.
    An erasing step detaches none, and the argument is typed from scratch."""
    if not isinstance(redex, App) or not isinstance(redex.fun, Abs):
        raise ReplayError("expansion site is not a redex")
    p, detached = _carry(d, redex.fun.body, redex.fun.binder)
    args = [_carry(a, redex.arg)[0] for a in detached] or [_infer(redex.arg, fuel, fresh)]
    lam = _abs_node(redex.fun, p, (args[0].ty,))
    if lam.ty.doms != tuple(a.ty for a in args):  # type: ignore[union-attr]
        raise ReplayError("detached occurrence types disagree with the environment")
    return _app_node(lam, args, redex)


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
    """Carry the redex body's derivation onto the contractum, grafting the
    argument premises in at the binder's axioms, left to right."""
    if d.rule != "arrow_e":
        raise ReplayError("reduction site is not an application")
    lam, *args = d.premises
    if lam.rule not in ("arrow_i", "arrow_i_prime"):
        raise ReplayError("reduction site function is not an abstraction")
    queue = iter(args if lam.rule == "arrow_i" else ())
    out, _ = _carry(lam.premises[0], contractum, lam.subject.binder, queue)  # type: ignore[union-attr]
    if next(queue, None) is not None:
        raise ReplayError("more argument derivations than occurrences")
    return out


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
