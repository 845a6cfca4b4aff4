"""Sharing elimination: rebuild a term so each variable use has one type.

An intersection derivation lets one variable carry several types, one per
use.  Expansion undoes that sharing: every use is replaced by a fresh
variable with a single type, and every argument of an application is
copied once per type the function demands.  The rebuilt term is typable
in a simpler discipline, and which one depends on the flavor of the
input derivation:

    input flavor          rebuilt term is typable in            arrow
    ACI (set-like)        simple types; relevant on lI subjects  ->
    AC  (multiset-like)   affine types; linear on lI subjects    -o
    A   (sequence-like)   ordered types; lI subjects only        -o_r, -o_l

The expansion context records, per original variable (the "owner"), the
fresh variables it turned into and their types.  Translating the context
gives exactly the basis of the induced derivation, which every expansion
returns alongside the rebuilt term.

The diagram verifiers at the bottom check that expansion commutes with
reduction: reducing the rebuilt term can catch up with the expansion of
the reduct, with a context that only ever shrinks (weak head) or stays
identical (full beta on lI subjects).  They start from a derivation, so
whether a subject is typable at all is the caller's question.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intersection import (
    InterDerivation,
    ReductionTypeError,
    check_inter,
    infer,
    subject_reduce,
)
from .reduction import beta_step, redex_positions, weak_head_step
from .systems import (
    Derivation,
    System,
    build_derivation,
    check_derivation,
    elim,
    intro,
)
from .terms import (
    Abs,
    App,
    FreshSupply,
    Term,
    Var,
    all_names,
    alpha_eq_renamed,
    classify,
    de_bruijn,
    free_vars,
    rename_free,
)
from .typelang import (
    Basis,
    Flavor,
    InterType,
    ListExpCtx,
    LolliL,
    LolliR,
    SetExpCtx,
    Target,
    Type,
    ctx_append,
    ctx_leq,
    ctx_match,
    ctx_to_basis,
    ctx_union,
    dedup_members,
    fold,
    set_ctx_eq,
    translate,
)


class ExpansionError(ValueError):
    """The derivation cannot be expanded as requested."""


class OrderViolation(ExpansionError):
    """No arrangement of the ordered clauses fits this derivation."""


@dataclass(frozen=True)
class ExpansionResult:
    """A rebuilt term with its context and the derivations it induces.

    `induced` types `expanded` in the target system of the flavor that
    produced it (simple/curry for ACI, affine for AC, ordered for A);
    `strict` is the contraction-free counterpart (relevant or linear)
    available when the original subject was a lI term, else None.
    """

    expanded: Term
    ty: Type
    context: SetExpCtx | ListExpCtx
    induced: Derivation
    strict: Derivation | None = None


# ---------------------------------------------------------------------------
# shared helpers


def _take_by_type(pool: list, ty: InterType, key) -> object:
    for i, item in enumerate(pool):
        if key(item) == ty:
            return pool.pop(i)
    raise ExpansionError(
        "domain member has no matching counterpart; the derivation equates "
        "types only up to its flavor, but expansion needs them spelled alike"
    )


def _supply_for(subject: Term, supply: FreshSupply | None) -> FreshSupply:
    if supply is None:
        return FreshSupply(all_names(subject))
    supply.reserve(all_names(subject))
    return supply


# ---------------------------------------------------------------------------
# set-shaped expansion (ACI and AC)


def _exp_set(
    d: InterDerivation,
    supply: FreshSupply,
    idempotent: bool,
    var_types: dict[str, InterType],
) -> tuple[Term, SetExpCtx]:
    if d.rule == "ax":
        x = d.subject.name
        y = supply.fresh(x)
        var_types[y] = d.ty
        return Var(y), SetExpCtx({x: {y: d.ty}})

    if d.rule == "arrow_i_prime":
        (p,) = d.premises
        body, ctx = _exp_set(p, supply, idempotent, var_types)
        y = supply.fresh(d.subject.binder)
        var_types[y] = d.ty.doms[0]
        return Abs(y, body), ctx

    if d.rule == "arrow_i":
        (p,) = d.premises
        body, ctx = _exp_set(p, supply, idempotent, var_types)
        x = d.subject.binder
        group = ctx.groups.get(x, {})
        if not group:
            raise ExpansionError(f"binder {x} left no occurrence bindings")
        rest = SetExpCtx({k: dict(g) for k, g in ctx.groups.items() if k != x})
        items = list(group.items())
        if idempotent:
            # occurrences with the same type share one fresh variable
            merged: list[tuple[str, InterType]] = []
            ren: dict[str, str] = {}
            for y, ty in items:
                head = next((ry for ry, rt in merged if rt == ty), None)
                if head is None:
                    merged.append((y, ty))
                else:
                    ren[y] = head
            if ren:
                body = rename_free(body, ren)
            items = merged
        doms = dedup_members(d.ty.doms) if idempotent else list(d.ty.doms)
        binders = [_take_by_type(items, t, lambda it: it[1]) for t in doms]
        if items:
            raise ExpansionError(
                f"binder {x} has occurrence types beyond its domain members"
            )
        for y, _ty in reversed(binders):
            body = Abs(y, body)
        return body, rest

    if d.rule == "arrow_e":
        pf, *pas = d.premises
        fun, ctx = _exp_set(pf, supply, idempotent, var_types)
        doms = dedup_members(pf.ty.doms) if idempotent else list(pf.ty.doms)
        pool = list(pas)
        chosen = [_take_by_type(pool, t, lambda p: p.ty) for t in doms]
        for ap in chosen:
            at, actx = _exp_set(ap, supply, idempotent, var_types)
            ctx = ctx_union(ctx, actx)
            fun = App(fun, at)
        return fun, ctx

    raise AssertionError(d.rule)


def _expand_set_flavored(
    d: InterDerivation, supply: FreshSupply | None, flavor: Flavor
) -> ExpansionResult:
    chk = check_inter(d, flavor)
    if not chk:
        raise ExpansionError(
            f"input derivation fails the {flavor.value} check "
            f"at {list(chk.path)}: {chk.reason}"
        )
    supply = _supply_for(d.subject, supply)
    var_types: dict[str, InterType] = {}
    idempotent = flavor is Flavor.ACI
    term, ctx = _exp_set(d, supply, idempotent, var_types)

    target = Target.SIMPLE if idempotent else Target.LINEAR
    main = System.CURRY if idempotent else System.AFFINE
    strict_sys = System.RELEVANT if idempotent else System.LINEAR
    basis = ctx_to_basis(ctx, target)
    simple_types = {y: translate(t, target) for y, t in var_types.items()}
    try:
        induced = build_derivation(main, term, simple_types, basis_order=basis.vars())
    except ValueError as exc:
        raise ExpansionError(
            f"induced {main.value} derivation cannot be built: {exc}"
        ) from exc
    strict = None
    if classify(d.subject).is_lambda_i:
        # a lI subject's expansion needs no weak node, and an AC expansion
        # no ctr node, so the strict derivation is the induced one relabelled
        strict = fold(
            induced,
            lambda n, ps: Derivation(strict_sys, n.rule, n.basis, n.subject, n.ty, ps),
        )
    for built in (induced, strict) if strict else (induced,):
        res = check_derivation(built)
        if not res:
            raise ExpansionError(
                f"induced {built.system.value} derivation fails "
                f"at {list(res.path)}: {res.reason}"
            )
    return ExpansionResult(term, induced.ty, ctx, induced, strict)


def expand_aci(
    d: InterDerivation, supply: FreshSupply | None = None
) -> ExpansionResult:
    """Expand a set-flavored derivation; the output is simply typable.

    Occurrences of a binder that carry equal types share a single fresh
    variable, and equal argument copies collapse to one, so expanding an
    already unshared term reproduces it.
    """
    return _expand_set_flavored(d, supply, Flavor.ACI)


def expand_ac(
    d: InterDerivation, supply: FreshSupply | None = None
) -> ExpansionResult:
    """Expand a multiset-flavored derivation; the output is affine typable
    (linear when the subject is a lI term).  Every occurrence gets its own
    fresh variable."""
    return _expand_set_flavored(d, supply, Flavor.AC)


# ---------------------------------------------------------------------------
# list-shaped expansion (ordered)


class Orientation:
    """Which abstraction clause to prefer where both could apply.

    Only an abstraction applied as a function may discharge on the left;
    arguments and root terms must keep the right-handed annotation their
    consumers expect.  RIGHT prefers -o_r and falls back to -o_l where the
    binder's bindings sit at the front of the context; MIXED prefers -o_l
    at those positions.
    """

    RIGHT = "right"
    MIXED = "mixed"


def _exp_ord(
    d: InterDerivation,
    supply: FreshSupply,
    prefer_left: bool,
    at_fun: bool,
) -> tuple[ListExpCtx, Derivation]:
    """The context and the induced ordered derivation, whose subject is
    the expanded term."""
    if d.rule == "ax":
        x = d.subject.name
        y = supply.fresh(x)
        oty = translate(d.ty, Target.ORDERED)
        ctx = ListExpCtx([(x, [(y, oty)])])
        deriv = Derivation(System.ORDERED, "ax", Basis(((y, oty),)), Var(y), oty)
        return ctx, deriv

    if d.rule == "arrow_i_prime":
        raise ExpansionError(
            "ordered expansion needs every binder to occur in its body"
        )

    if d.rule == "arrow_i":
        (p,) = d.premises
        ctx, bd = _exp_ord(p, supply, prefer_left, at_fun=False)
        x = d.subject.binder
        tdoms = [translate(t, Target.ORDERED) for t in d.ty.doms]

        def fit_right():
            if ctx.groups and ctx.groups[-1][0] == x:
                entries = ctx.groups[-1][1]
                if [t for _, t in entries] == tdoms:
                    return entries
            return None

        def fit_left():
            if not at_fun:
                return None
            if ctx.groups and ctx.groups[0][0] == x:
                entries = ctx.groups[0][1]
                if [t for _, t in entries] == list(reversed(tdoms)):
                    return entries
            return None

        attempts = (fit_left, fit_right) if prefer_left else (fit_right, fit_left)
        for fit in attempts:
            entries = fit()
            if entries is None:
                continue
            leftward = fit is fit_left
            rest = ListExpCtx(
                [(o, list(g)) for o, g in ctx.groups if o != x]
            )
            cur = bd
            # discharge innermost-first: from the back when the bindings
            # close the context, from the front when they open it
            order = entries if leftward else list(reversed(entries))
            for y, t in order:
                pe = cur.basis.entries
                if not pe or pe[0 if leftward else -1] != (y, t):
                    side = "front" if leftward else "back"
                    raise OrderViolation(f"binding {y} is not at the {side} of the basis")
                cur = intro(cur, "arrow_i_l" if leftward else "arrow_i_r")
            return rest, cur
        raise OrderViolation(
            f"binder {x}: its bindings sit neither at the usable end of the "
            "context nor in the required order"
        )

    if d.rule == "arrow_e":
        pf, *pas = d.premises
        fctx, fd = _exp_ord(pf, supply, prefer_left, at_fun=True)
        peeled: list[tuple[str, Type]] = []
        t = fd.ty
        for _ in pas:
            if isinstance(t, LolliR):
                peeled.append(("r", t.dom))
            elif isinstance(t, LolliL):
                peeled.append(("l", t.dom))
            else:
                raise OrderViolation(
                    "function annotation has too few arrows for its arguments"
                )
            t = t.cod
        senses = {s for s, _ in peeled}
        if len(senses) != 1:
            raise OrderViolation("function annotation mixes arrow senses")
        leftward = senses == {"l"}

        parts = [_exp_ord(pa, supply, prefer_left, at_fun=False) for pa in pas]
        cur = fd
        for (_actx, ad), (_s, want) in zip(parts, peeled):
            if ad.ty != want:
                raise OrderViolation(
                    "argument annotation does not match the function's domain"
                )
            cur = elim(cur, ad, "arrow_e_l" if leftward else "arrow_e_r")
        arg_ctxs = [actx for actx, _ad in parts]
        if leftward:
            ctx = arg_ctxs[-1]
            for actx in reversed(arg_ctxs[:-1]):
                ctx = ctx_append(ctx, actx)
            ctx = ctx_append(ctx, fctx)
        else:
            ctx = fctx
            for actx in arg_ctxs:
                ctx = ctx_append(ctx, actx)
        if ctx_to_basis(ctx, Target.ORDERED).entries != cur.basis.entries:
            raise OrderViolation(
                "appending the contexts interleaves bindings the derivation "
                "keeps apart"
            )
        return ctx, cur

    raise AssertionError(d.rule)


def expand_ordered(
    d: InterDerivation,
    supply: FreshSupply | None = None,
    orientation: str = Orientation.RIGHT,
) -> ExpansionResult:
    """Expand a sequence-flavored derivation of a lI term; the output is
    ordered typable, and the induced derivation is built alongside it.

    Raises OrderViolation when no arrangement of the clauses fits under
    the requested orientation.
    """
    chk = check_inter(d, Flavor.A)
    if not chk:
        raise ExpansionError(
            f"input derivation fails the sequence check "
            f"at {list(chk.path)}: {chk.reason}"
        )
    if not classify(d.subject).is_lambda_i:
        raise ExpansionError(
            "ordered expansion needs every binder to occur in its body"
        )
    if orientation not in (Orientation.RIGHT, Orientation.MIXED):
        raise ValueError(f"unknown orientation {orientation!r}")
    supply = _supply_for(d.subject, supply)
    ctx, deriv = _exp_ord(d, supply, orientation == Orientation.MIXED, at_fun=False)
    res = check_derivation(deriv)
    if not res:
        raise OrderViolation(
            f"induced ordered derivation fails at {list(res.path)}: {res.reason}"
        )
    return ExpansionResult(deriv.subject, deriv.ty, ctx, deriv, None)


def expand(
    d: InterDerivation,
    flavor: Flavor,
    supply: FreshSupply | None = None,
    orientation: str = Orientation.RIGHT,
) -> ExpansionResult:
    """Expansion under any flavor: ACI and AC give set contexts, A gives
    an ordered (list) context."""
    if flavor is Flavor.ACI:
        return expand_aci(d, supply)
    if flavor is Flavor.AC:
        return expand_ac(d, supply)
    return expand_ordered(d, supply, orientation)


# ---------------------------------------------------------------------------
# commuting diagrams: expansion against reduction


@dataclass(frozen=True)
class DiagramStep:
    """One reduction step checked against the expansions of its endpoints."""

    source: Term
    target: Term
    expanded_source: Term | None
    expanded_target: Term | None
    ok: bool
    shrank: bool = False
    reason: str = ""


@dataclass(frozen=True)
class DiagramReport:
    subject: Term
    flavor: Flavor
    steps: tuple[DiagramStep, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)


def _free_renaming(pattern: Term, candidate: Term) -> dict[str, str] | None:
    """The injective renaming of pattern's free variables that makes it
    alpha-equal to candidate, or None.  First occurrences must line up,
    so at most one candidate map exists."""
    fp = free_vars(pattern)
    fc = free_vars(candidate)
    if len(fp) != len(fc):
        return None
    ren = dict(zip(fp, fc))
    if len(set(ren.values())) != len(ren):
        return None
    return ren if alpha_eq_renamed(pattern, ren, candidate) else None


def _rename_set_ctx(ctx: SetExpCtx, ren: dict[str, str]) -> SetExpCtx:
    return SetExpCtx(
        {x: {ren.get(y, y): t for y, t in g.items()} for x, g in ctx.groups.items()}
    )


def _bindings_count(ctx: SetExpCtx) -> int:
    return sum(len(g) for g in ctx.groups.values())


def verify_whd_diagram(
    d: InterDerivation, flavor: Flavor = Flavor.ACI, fuel: int = 1000
) -> DiagramReport:
    """Check, along the whole weak-head chain of d's subject, that each
    step's expansions close the diagram: the source expansion weak-head
    reduces to the target expansion, whose context is contained in the
    source's.

    The target keeps the source's derived type by pushing the derivation
    through the step, so both expansions answer the same question.  Each
    derivation of the chain is expanded once; an expansion that fails is a
    failed step and ends the chain.
    """
    if flavor not in (Flavor.ACI, Flavor.AC):
        raise ValueError("the weak-head diagram covers the set-shaped flavors")
    steps: list[DiagramStep] = []
    cur_t, cur_d = d.subject, d
    r1: ExpansionResult | None = None
    while (nxt := weak_head_step(cur_t)) is not None:
        t2, pos = nxt
        d2 = subject_reduce(cur_d, t2, pos)
        try:
            if r1 is None:
                r1 = expand(cur_d, flavor)
            r2 = expand(d2, flavor)
        except ExpansionError as e:
            source = None if r1 is None else r1.expanded
            steps.append(DiagramStep(cur_t, t2, source, None, False, False, str(e)))
            break
        ok, shrank, reason = _whd_close(r1, r2, fuel)
        steps.append(
            DiagramStep(cur_t, t2, r1.expanded, r2.expanded, ok, shrank, reason)
        )
        cur_t, cur_d, r1 = t2, d2, r2
    return DiagramReport(d.subject, flavor, tuple(steps))


def _whd_close(
    r1: ExpansionResult, r2: ExpansionResult, fuel: int
) -> tuple[bool, bool, str]:
    shrank = _bindings_count(r2.context) < _bindings_count(r1.context)
    cur = r1.expanded
    for _ in range(fuel + 1):
        ren = _free_renaming(r2.expanded, cur)
        if ren is not None and ctx_leq(_rename_set_ctx(r2.context, ren), r1.context):
            return True, shrank, ""
        nxt = weak_head_step(cur)
        if nxt is None:
            return False, shrank, "weak-head chain ended before matching the target"
        cur = nxt[0]
    return False, shrank, "fuel exhausted walking the weak-head chain"


def verify_beta_diagram_lambdai(
    d: InterDerivation,
    r1: ExpansionResult,
    flavor: Flavor = Flavor.ACI,
    fuel: int = 1000,
) -> DiagramReport:
    """Check, for every single beta step from d's subject, that the
    expansions of source and target close the diagram with the same
    context: the target expansion (bindings renamed to match) is
    beta-reachable from the source expansion `r1`, which is
    `expand(d, flavor)` as the caller holds it.

    On lI subjects every step must pass; terms that erase arguments are
    accepted so the expected failures can be observed.
    """
    steps: list[DiagramStep] = []
    base = d.subject
    for pos in redex_positions(base):
        t2 = beta_step(base, pos)
        try:
            d2 = subject_reduce(d, t2, pos)
        except ReductionTypeError:
            d2 = infer(t2)
        if d2 is None:
            steps.append(
                DiagramStep(base, t2, r1.expanded, None, False, False,
                            "no derivation for the reduct")
            )
            continue
        try:
            r2 = expand(d2, flavor)
        except ExpansionError as e:
            steps.append(
                DiagramStep(base, t2, r1.expanded, None, False, False, str(e))
            )
            continue
        ok, reason = _beta_close(r1, r2, flavor, fuel)
        steps.append(
            DiagramStep(base, t2, r1.expanded, r2.expanded, ok, False, reason)
        )
    return DiagramReport(base, flavor, tuple(steps))


def _beta_close(
    r1: ExpansionResult, r2: ExpansionResult, flavor: Flavor, fuel: int
) -> tuple[bool, str]:
    if flavor is Flavor.A:
        renamings = list(ctx_match(r2.context, r1.context, Flavor.A))
        if not renamings:
            return False, "ordered contexts do not match"
        ren = renamings[0]
        if _beta_reaches(
            r1.expanded, lambda c: alpha_eq_renamed(r2.expanded, ren, c), fuel
        ):
            return True, ""
        return False, "no beta reduct matches the expanded target"

    def matches(cand: Term) -> bool:
        ren = _free_renaming(r2.expanded, cand)
        if ren is None:
            return False
        return set_ctx_eq(_rename_set_ctx(r2.context, ren), r1.context, flavor)

    if _beta_reaches(r1.expanded, matches, fuel):
        return True, ""
    return False, "no beta reduct matches the expanded target with equal context"


def _beta_reaches(start: Term, hit, fuel: int) -> bool:
    """Breadth-first walk of beta reducts, at most `fuel` contractions."""
    seen = {de_bruijn(start)}
    frontier = [start]
    budget = fuel
    while frontier:
        nxt: list[Term] = []
        for cur in frontier:
            if hit(cur):
                return True
            for pos in redex_positions(cur):
                if budget <= 0:
                    return False
                budget -= 1
                red = beta_step(cur, pos)
                key = de_bruijn(red)
                if key not in seen:
                    seen.add(key)
                    nxt.append(red)
        frontier = nxt
    return False
