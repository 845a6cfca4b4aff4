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

Every flavor is one walk over the derivation, on an explicit stack, so
depth is bounded by memory; it builds the induced derivation, whose
subject is the rebuilt term, as it goes.  The flavor chooses only the
structural rule: ACI (idempotence) merges a binder's bindings of equal
type (ctr), ACI and AC (commutativity) move bindings into place and pair
arguments with domain members by type (ex), and A (bare associativity)
has none, so bindings must already sit at the -o_r or -o_l end and
arguments pair with domain members by position.

The expansion context records, per original variable (the "owner"), the
fresh variables it turned into and their types, read off the induced
derivation's root basis, which lists it in order.

The diagram verifiers at the bottom check that expansion commutes with
reduction: reducing the rebuilt term can catch up with the expansion of
the reduct, with a context that only ever shrinks (weak head) or stays
identical (full beta on lI subjects).  They start from a derivation and
its expansion, so whether a subject is typable or expands at all is the
caller's question.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    check_derivation,
    contract,
    elim,
    intro,
    move_to_end,
    permute_basis,
    relabel,
    weaken,
)
from .terms import (
    FreshSupply,
    Term,
    Var,
    all_names,
    alpha_eq_renamed,
    classify,
    de_bruijn,
    free_vars,
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
    ctx_leq,
    ctx_match,
    dedup_members,
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
    produced it (simple/curry for ACI, affine for AC, ordered for A).
    `strict_system` names the contraction-free counterpart (relevant or
    linear) when the original subject was a lI term, else it is None.

    `strict`, the induced derivation relabelled into `strict_system`, is
    built and checked on its first read and kept.  A lI subject's
    expansion has no weak node and an AC expansion no ctr node, so it
    passes its checker whenever the induced one does.  Equality compares
    the fields only.
    """

    expanded: Term
    ty: Type
    context: SetExpCtx | ListExpCtx
    induced: Derivation
    strict_system: System | None = None

    @cached_property
    def strict(self) -> Derivation | None:
        if self.strict_system is None:
            return None
        # relabel records the copy's pass when the induced one has passed;
        # only a node whose rule strict_system lacks gets it walked
        strict = relabel(self.induced, self.strict_system)
        _require_pass(strict)
        return strict


# ---------------------------------------------------------------------------
# the walk, shared by every flavor

# flavor -> (induced system, strict system, translation target).  The strict
# system is the induced one without weakening; ordered expansion has none,
# since it takes lI subjects only.
TRANSLATIONS: dict[Flavor, tuple[System, System | None, Target]] = {
    Flavor.ACI: (System.CURRY, System.RELEVANT, Target.SIMPLE),
    Flavor.AC: (System.AFFINE, System.LINEAR, Target.LINEAR),
    Flavor.A: (System.ORDERED, None, Target.ORDERED),
}


def _take_by_type(doms: list, pool: list, key) -> list:
    """For each member of doms in order, the first item of pool not yet
    taken whose key equals it; one pass over each list.  When the items
    already stand in the members' order, as in the derivations infer
    builds, those are the first len(doms) items, and no type is hashed."""
    keys = [key(item) for item in pool]
    if keys[: len(doms)] == doms:
        return pool[: len(doms)]
    # each type's items, last first, so that pop takes the first
    by_type: dict[InterType, list] = {}
    for item, k in zip(reversed(pool), reversed(keys)):
        by_type.setdefault(k, []).append(item)
    try:
        return [by_type[t].pop() for t in doms]
    except (KeyError, IndexError):
        raise ExpansionError(
            "domain member has no matching counterpart; the derivation equates "
            "types only up to its flavor, but expansion needs them spelled alike"
        ) from None


def _owner_runs(basis: Basis, owner: dict) -> list[tuple[str, list[tuple[str, Type]]]]:
    """The basis as runs of bindings drawn for the same original variable.
    Each owner's bindings must form one run."""
    runs: list[tuple[str, list[tuple[str, Type]]]] = []
    for y, ty in basis.entries:
        o = owner[y][0]
        if runs and runs[-1][0] == o:
            runs[-1][1].append((y, ty))
        elif any(o == prev for prev, _ in runs):
            raise OrderViolation(
                "appending the contexts interleaves bindings the derivation "
                "keeps apart"
            )
        else:
            runs.append((o, [(y, ty)]))
    return runs


def _discharge(
    bd: Derivation,
    d: InterDerivation,
    flavor: Flavor,
    owner: dict[str, tuple[str, InterType]],
    at_fun: bool,
    prefer_left: bool,
) -> Derivation:
    """Abstraction d over its built body bd: the bindings drawn for d's
    binder become its domain members.  ACI first merges bindings of equal
    type into the first of them (ctr, through systems.contract); the set
    flavors then move each binding into place (ex).
    The ordered flavor has neither rule, so the bindings must already close
    the basis (-o_r) or, on an abstraction applied as a function, open it
    (-o_l)."""
    x = d.subject.binder
    if flavor is Flavor.A:
        tdoms = [translate(t, Target.ORDERED) for t in d.ty.doms]
        entries = bd.basis.entries
        owned = tuple((y, t) for y, t in entries if owner[y][0] == x)
        types = [t for _, t in owned]
        fits = {
            "arrow_i_r": entries[len(entries) - len(owned):] == owned and types == tdoms,
            "arrow_i_l": at_fun and entries[:len(owned)] == owned and types[::-1] == tdoms,
        }
        for rule in ("arrow_i_l", "arrow_i_r") if prefer_left else ("arrow_i_r", "arrow_i_l"):
            if fits[rule]:
                for _ in owned:
                    bd = intro(bd, rule)
                return bd
        raise OrderViolation(
            f"binder {x}: its bindings sit neither at the usable end of the "
            "context nor in the required order"
        )
    items = [(y, ty) for y in bd.basis.vars() for o, ty in (owner[y],) if o == x]
    if not items:
        raise ExpansionError(f"binder {x} left no occurrence bindings")
    idempotent = flavor is Flavor.ACI
    if idempotent:
        by_type: dict[InterType, list[str]] = {}
        for y, ty in items:
            by_type.setdefault(ty, []).append(y)
        for head, *rest in by_type.values():
            bd = contract(bd, head, rest)
        items = [(ys[0], ty) for ty, ys in by_type.items()]
    doms = dedup_members(d.ty.doms) if idempotent else list(d.ty.doms)
    binders = _take_by_type(doms, items, lambda it: it[1])
    if len(items) > len(binders):
        raise ExpansionError(f"binder {x} has occurrence types beyond its domain members")
    for y, _ty in reversed(binders):
        bd = intro(move_to_end(bd, y), "arrow_i")
    return bd


def _arguments(
    fd: Derivation, d: InterDerivation, flavor: Flavor
) -> tuple[list[InterDerivation], str, list[Type] | None]:
    """The argument premises of application d in the order they are applied
    to its built function fd, the elimination rule, and for the ordered
    flavor the domain each argument must have.  ACI drops repeated domain
    members and AC keeps them; both pair each member with a premise of its
    type.  The ordered flavor pairs by position, under one arrow sense."""
    pf, *pas = d.premises
    if flavor is not Flavor.A:
        doms = dedup_members(pf.ty.doms) if flavor is Flavor.ACI else list(pf.ty.doms)
        return _take_by_type(doms, pas, lambda p: p.ty), "arrow_e", None
    senses: set[type] = set()
    wants: list[Type] = []
    t = fd.ty
    for _ in pas:
        if not isinstance(t, (LolliR, LolliL)):
            raise OrderViolation("function annotation has too few arrows for its arguments")
        senses.add(type(t))
        wants.append(t.dom)
        t = t.cod
    if len(senses) != 1:
        raise OrderViolation("function annotation mixes arrow senses")
    return pas, "arrow_e_l" if senses == {LolliL} else "arrow_e_r", wants


def _walk(
    d: InterDerivation,
    flavor: Flavor,
    supply: FreshSupply,
    owner: dict[str, tuple[str, InterType]],
    prefer_left: bool,
) -> Derivation:
    """The induced derivation of d's expansion, whose subject is the
    expanded term.  `owner` maps each drawn variable to the variable it was
    drawn for and that occurrence's type.

    Each node is a frame on an explicit stack, so depth is bounded by
    memory.  Fresh variables are drawn in post-order.  An application is
    visited three times: on entry, once its function is built (to pick the
    argument premises), and once its arguments are built (to apply them).
    """
    main, _strict, target = TRANSLATIONS[flavor]
    ordered = flavor is Flavor.A
    built: list[Derivation] = []
    # (node, phase, in function position, what the last phase applies)
    stack: list[tuple] = [(d, 0, False, None)]
    while stack:
        node, phase, at_fun, pending = stack.pop()
        rule = node.rule
        if phase == 0:
            # down the spine of bodies and functions to its axiom
            while rule != "ax":
                stack.append((node, 1, at_fun, None))
                node, at_fun = node.premises[0], rule == "arrow_e"
                rule = node.rule
            y = supply.fresh(node.subject.name)
            owner[y] = (node.subject.name, node.ty)
            ty = translate(node.ty, target)
            built.append(Derivation(main, "ax", Basis(((y, ty),)), Var(y), ty))
        elif rule == "arrow_i_prime":
            y = supply.fresh(node.subject.binder)
            dom = translate(node.ty.doms[0], target)
            built.append(intro(weaken(built.pop(), y, dom), "arrow_i"))
        elif rule == "arrow_i":
            built.append(_discharge(built.pop(), node, flavor, owner, at_fun, prefer_left))
        elif phase == 1:
            args, elim_rule, wants = _arguments(built[-1], node, flavor)
            stack.append((node, 2, at_fun, (len(args), elim_rule, wants)))
            stack.extend([(a, 0, False, None) for a in reversed(args)])
        else:
            n, elim_rule, wants = pending
            cur, *args = built[len(built) - n - 1:]
            del built[len(built) - n - 1:]
            for i, ad in enumerate(args):
                if wants is not None and ad.ty != wants[i]:
                    raise OrderViolation(
                        "argument annotation does not match the function's domain"
                    )
                try:
                    cur = elim(cur, ad, elim_rule)
                except ValueError as exc:
                    raise ExpansionError(
                        f"induced {main.value} derivation cannot be built: {exc}"
                    ) from exc
            if ordered:
                _owner_runs(cur.basis, owner)
            built.append(cur)
    return built[0]


def _require_pass(built: Derivation) -> None:
    res = check_derivation(built)
    if not res:
        error = OrderViolation if built.system is System.ORDERED else ExpansionError
        raise error(
            f"induced {built.system.value} derivation fails "
            f"at {list(res.path)}: {res.reason}"
        )


def _expand(
    d: InterDerivation, flavor: Flavor, supply: FreshSupply | None, orientation: str
) -> ExpansionResult:
    chk = check_inter(d, flavor)
    if not chk:
        raise ExpansionError(
            f"input derivation fails the "
            f"{'sequence' if flavor is Flavor.A else flavor.value} check "
            f"at {list(chk.path)}: {chk.reason}"
        )
    lambda_i = classify(d.subject).is_lambda_i
    if flavor is Flavor.A:
        if not lambda_i:
            raise ExpansionError("ordered expansion needs every binder to occur in its body")
        if orientation not in ("right", "mixed"):
            raise ValueError(f"unknown orientation {orientation!r}")
    supply = FreshSupply() if supply is None else supply
    supply.reserve(all_names(d.subject))
    owner: dict[str, tuple[str, InterType]] = {}
    built = _walk(d, flavor, supply, owner, orientation == "mixed")
    if flavor is Flavor.A:
        _require_pass(built)
        ctx = ListExpCtx(_owner_runs(built.basis, owner))
        return ExpansionResult(built.subject, built.ty, ctx, built)
    # the root basis grouped by owner, in order of first appearance
    ctx = SetExpCtx()
    for y in built.basis.vars():
        ctx.groups.setdefault(owner[y][0], {})[y] = owner[y][1]
    induced = permute_basis(built, tuple(y for g in ctx.groups.values() for y in g))
    _require_pass(induced)
    strict_system = TRANSLATIONS[flavor][1] if lambda_i else None
    return ExpansionResult(induced.subject, induced.ty, ctx, induced, strict_system)


def expand_aci(
    d: InterDerivation, supply: FreshSupply | None = None
) -> ExpansionResult:
    """Expand a set-flavored derivation; the output is simply typable.

    Occurrences of a binder that carry equal types share a single fresh
    variable, and equal argument copies collapse to one, so expanding an
    already unshared term reproduces it.
    """
    return _expand(d, Flavor.ACI, supply, "right")


def expand_ac(
    d: InterDerivation, supply: FreshSupply | None = None
) -> ExpansionResult:
    """Expand a multiset-flavored derivation; the output is affine typable
    (linear when the subject is a lI term).  Every occurrence gets its own
    fresh variable."""
    return _expand(d, Flavor.AC, supply, "right")


def expand_ordered(
    d: InterDerivation,
    supply: FreshSupply | None = None,
    orientation: str = "right",
) -> ExpansionResult:
    """Expand a sequence-flavored derivation of a lI term; the output is
    ordered typable, and the induced derivation is built alongside it.
    The context is read off that derivation's basis.

    The orientation says which abstraction clause to prefer where both
    could apply.  Only an abstraction applied as a function may discharge
    on the left; arguments and root terms must keep the right-handed
    annotation their consumers expect.  "right" prefers -o_r and falls
    back to -o_l where the binder's bindings sit at the front of the
    context; "mixed" prefers -o_l at those positions.

    Raises OrderViolation when no arrangement of the clauses fits under
    the requested orientation.
    """
    return _expand(d, Flavor.A, supply, orientation)


def expand(
    d: InterDerivation,
    flavor: Flavor,
    supply: FreshSupply | None = None,
    orientation: str = "right",
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
    d: InterDerivation, r1: ExpansionResult, flavor: Flavor = Flavor.ACI, fuel: int = 1000
) -> DiagramReport:
    """Check, along the whole weak-head chain of d's subject, that each
    step's expansions close the diagram: the source expansion weak-head
    reduces to the target expansion, whose context is contained in the
    source's.  The chain starts from `r1`, which is `expand(d, flavor)` as
    the caller holds it.

    The target keeps the source's derived type by pushing the derivation
    through the step, so both expansions answer the same question.  Each
    reduct's derivation is expanded once; an expansion that fails is a
    failed step and ends the chain.
    """
    if flavor not in (Flavor.ACI, Flavor.AC):
        raise ValueError("the weak-head diagram covers the set-shaped flavors")
    steps: list[DiagramStep] = []
    cur_t, cur_d = d.subject, d
    while (nxt := weak_head_step(cur_t)) is not None:
        t2, pos = nxt
        d2 = subject_reduce(cur_d, t2, pos)
        try:
            r2 = expand(d2, flavor)
        except ExpansionError as e:
            steps.append(DiagramStep(cur_t, t2, r1.expanded, None, False, False, str(e)))
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
        ren = next(ctx_match(r2.context, r1.context, Flavor.A), None)
        if ren is None:
            return False, "ordered contexts do not match"
        return _beta_reaches(r1.expanded, lambda c: alpha_eq_renamed(r2.expanded, ren, c),
                             fuel, "no beta reduct matches the expanded target")

    def matches(cand: Term) -> bool:
        ren = _free_renaming(r2.expanded, cand)
        if ren is None:
            return False
        return set_ctx_eq(_rename_set_ctx(r2.context, ren), r1.context, flavor)

    return _beta_reaches(r1.expanded, matches, fuel,
                         "no beta reduct matches the expanded target with equal context")


def _beta_reaches(start: Term, hit, fuel: int, miss: str) -> tuple[bool, str]:
    """Breadth-first walk of beta reducts, at most `fuel` contractions.
    A walk that ends without a hit reports `miss` when it explored every
    reduct, and the spent fuel when reducts were left."""
    seen = {de_bruijn(start)}
    frontier = [start]
    budget = fuel
    while frontier:
        nxt: list[Term] = []
        for cur in frontier:
            if hit(cur):
                return True, ""
            for pos in redex_positions(cur):
                if budget <= 0:
                    return False, "fuel exhausted walking the beta reducts"
                budget -= 1
                red = beta_step(cur, pos)
                key = de_bruijn(red)
                if key not in seen:
                    seen.add(key)
                    nxt.append(red)
        frontier = nxt
    return False, miss
