"""Expansion: goldens for every flavor, induced derivations, diagrams.

The golden outputs were worked out by hand from the typing rules before
running the engine: each one lists the rebuilt term, its context, and
where relevant the induced derivation's annotations.  Properties lean on
check_derivation/check_inter as independent oracles.
"""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_expand import expansion
from lambda_expand.expansion import (
    DiagramReport,
    ExpansionError,
    ExpansionResult,
    Orientation,
    OrderViolation,
    expand,
    expand_ac,
    expand_aci,
    expand_ordered,
    verify_beta_diagram_lambdai,
    verify_whd_diagram,
)
from lambda_expand.intersection import (
    InterDerivation,
    _deriv_ty_vars,
    check_inter,
    infer,
    match_requested,
    rename_tyvars,
)
from lambda_expand.syntax import parse_inter_type, parse_term, render_term, render_type
from lambda_expand.systems import System, check_derivation
from lambda_expand.terms import (
    Abs,
    App,
    FreshSupply,
    Var,
    all_names,
    alpha_eq,
    classify,
    count_free_occurrences,
    free_vars,
)
from lambda_expand.typelang import (
    Arrow,
    Flavor,
    InterArrow,
    Lolli,
    SetExpCtx,
    Target,
    TVar,
    ctx_match,
    ctx_to_basis,
    env_eq,
    env_to_set_ctx,
    preorder,
    set_ctx_to_env,
    translate,
)
from lambda_expand.verify import PROPERTIES, enumerate_terms

t = parse_term
ity = parse_inter_type


def aci_expansion(src: str) -> ExpansionResult:
    return expand_aci(infer(t(src)))


def group_types(ctx, owner):
    """Types of an owner's bindings, in binding order."""
    g = ctx.groups[owner] if hasattr(ctx.groups, "items") else dict(ctx.groups)[owner]
    items = g.items() if hasattr(g, "items") else g
    return [render_type(ty) for _y, ty in items]


# --- set-shaped goldens -------------------------------------------------------


def test_self_application_redex_unshares_to_two_binders():
    r = aci_expansion(r"(\x. x x)(\x. x)")
    assert alpha_eq(r.expanded, t(r"(\a b. a b)(\c. c)(\e. e)"))
    assert r.context.groups == {}
    assert render_type(r.ty) == "a -> a"
    assert r.induced.system is System.CURRY
    assert check_derivation(r.induced)
    # the subject uses every binder, so the contraction-free witness exists
    assert r.strict is not None and r.strict.system is System.RELEVANT
    assert check_derivation(r.strict)


def test_open_self_application_splits_the_shared_variable():
    r = aci_expansion("x x")
    assert alpha_eq(r.expanded, t("x1 x2"))
    assert list(r.context.groups) == ["x"]
    assert group_types(r.context, "x") == ["b -> a", "b"]


def test_duplicate_occurrence_types_share_one_binder():
    # both f-uses get a -> a, so one binder carries them and the term
    # reproduces itself: expanding the unshared form is the identity
    d = match_requested(
        infer(t(r"\f x. f (f x)")), ity("(a -> a) -> a -> a"), Flavor.ACI
    )
    assert d is not None
    r = expand_aci(d)
    assert alpha_eq(r.expanded, t(r"\f x. f (f x)"))
    assert render_type(r.ty) == "(a -> a) -> a -> a"


def test_multiset_expansion_keeps_every_copy():
    # same input as above, multiset-flavored: both uses stay separate,
    # so the domain needs one member per use
    d = match_requested(
        infer(t(r"\f x. f (f x)")), ity("(a -> a) & (a -> a) -> a -> a"), Flavor.AC
    )
    assert d is not None
    r = expand_ac(d)
    assert alpha_eq(r.expanded, t(r"(\f1 f2 x. f1 (f2 x))"))


def test_nested_duplication_draws_three_function_variables():
    d = match_requested(
        infer(t(r"(\f. f (\x. x x) (f (\x. x)))(\x. x)")), ity("a -> a"), Flavor.AC
    )
    assert d is not None
    r = expand_ac(d)
    want = t(r"(\f1 f2 f3. f1 (\x1 x2. x1 x2) (f2 (\u. u)) (f3 (\v. v))) (\i. i) (\j. j) (\k. k)")
    assert alpha_eq(r.expanded, want)
    assert r.context.groups == {}
    assert render_type(r.ty) == "a -o a"
    assert r.induced.system is System.AFFINE
    # the subject is a lI term, so a linear derivation comes with it
    assert r.strict is not None and r.strict.system is System.LINEAR
    assert check_derivation(r.strict)


def test_erasing_redex_expands_with_a_vacuous_binder():
    r = expand_ac(infer(t(r"\x. (\y. z) x x")))
    assert alpha_eq(r.expanded, t(r"\x1 x2. (\y1. z1) x1 x2"))
    assert list(r.context.groups) == ["z"]
    assert group_types(r.context, "z") == ["b -> c"]
    assert classify(r.expanded).is_affine
    assert r.strict is None  # not a lI term


def test_arguments_duplicate_under_their_redex():
    r = aci_expansion(r"(\x. x x)((\y. y)(\z. z))")
    assert alpha_eq(
        r.expanded, t(r"(\a b. a b)((\c. c)(\e. e))((\f. f)(\g. g))")
    )


def test_fresh_variables_avoid_the_subject_names():
    d = infer(t("x1 x1"))
    r = expand_aci(d)
    drawn = [y for g in r.context.groups.values() for y in g]
    assert len(drawn) == 2
    assert "x1" not in drawn


# --- expansion errors ---------------------------------------------------------


def test_expansion_rejects_a_broken_derivation():
    bad = InterDerivation("ax", (("x", (TVar("a"), TVar("b"))),), Var("x"), TVar("a"))
    with pytest.raises(ExpansionError):
        expand_aci(bad)


def test_an_induced_derivation_that_cannot_be_built_is_an_expansion_error(monkeypatch):
    def refuse(system, term, var_types, basis_order=None):
        raise ValueError("affine cannot weaken in 'x'")

    monkeypatch.setattr(expansion, "build_derivation", refuse)
    with pytest.raises(ExpansionError, match="induced affine derivation cannot be built"):
        expand_ac(infer(t("\\x. x")))


def test_generic_entry_point_dispatches_by_flavor():
    d = infer(t("x x"))
    assert isinstance(expand(d, Flavor.ACI).context.groups, dict)
    assert isinstance(expand(d, Flavor.AC).context.groups, dict)
    assert isinstance(expand(d, Flavor.A).context.groups, list)


# --- ordered goldens ----------------------------------------------------------


def test_ordered_expansion_of_applied_abstraction():
    r = expand_ordered(infer(t(r"(\x. x z) z")))
    assert alpha_eq(r.expanded, t(r"(\a. a z1) z2"))
    assert render_type(r.ty) == "a"
    # argument binding first, then the one the body consumed
    assert [o for o, _ in r.context.groups] == ["z"]
    assert group_types(r.context, "z") == ["b -o_r a", "b"]
    names = [y for _, g in r.context.groups for y, _ in g]
    assert names == ["z2", "z1"]
    assert check_derivation(r.induced)
    # the abstraction discharges on the left: the argument lands in
    # front of it, so its annotation flips sense at the top
    fun = r.induced.premises[0]
    assert render_type(fun.ty) == "(b -o_r a) -o_l a"
    assert r.induced.basis == ctx_to_basis(r.context, Target.ORDERED)


def test_ordered_expansion_same_under_either_orientation():
    d = infer(t(r"(\x. x z) z"))
    right = expand_ordered(d, orientation=Orientation.RIGHT)
    mixed = expand_ordered(d, orientation=Orientation.MIXED)
    assert alpha_eq(right.expanded, mixed.expanded)
    assert right.ty == mixed.ty


def test_ordered_expansion_duplicates_arguments_in_order():
    r = expand_ordered(infer(t(r"(\f. \x. f (f x)) (\y. y)")))
    assert alpha_eq(r.expanded, t(r"(\f1 f2 x. f1 (f2 x)) (\u. u) (\v. v)"))
    assert check_derivation(r.induced)


def test_ordered_expansion_needs_every_binder_used():
    with pytest.raises(ExpansionError):
        expand_ordered(infer(t(r"\x. y")))


def test_ordered_expansion_reports_unreachable_arrangements():
    # the second x-binding would have to jump over y's to be discharged
    with pytest.raises(OrderViolation):
        expand_ordered(infer(t("(x y) x")))
    # an argument abstraction may not discharge on the left, and its
    # binding sits at the wrong end for the right-handed clause
    with pytest.raises(OrderViolation):
        expand_ordered(infer(t(r"\x. x (\y. y x)")))


def test_ordered_rejects_unknown_orientation():
    with pytest.raises(ValueError):
        expand_ordered(infer(t(r"(\x. x z) z")), orientation="sideways")


# --- reduction diagrams -------------------------------------------------------


def test_weak_head_diagram_closes_for_the_unsharing_example():
    for flavor in (Flavor.ACI, Flavor.AC):
        rep = verify_whd_diagram(infer(t(r"(\x. x x)(\x. x)")), flavor)
        assert isinstance(rep, DiagramReport)
        assert len(rep.steps) == 2
        assert rep.ok


def test_weak_head_diagram_context_shrinks_on_erasure():
    rep = verify_whd_diagram(infer(t(r"(\x. (\y. z) x) w")), Flavor.ACI)
    assert rep.ok
    assert [s.shrank for s in rep.steps] == [False, True]
    # the second step drops w's binding: the reduct is just z
    assert alpha_eq(rep.steps[-1].target, t("z"))


def test_weak_head_diagram_closes_when_a_binder_shares_a_free_name():
    # the expanded target \y3. y2 matches \y2. y3 by renaming its free y2
    # to y3, which its own binder y3 must not capture
    for flavor in (Flavor.ACI, Flavor.AC):
        rep = verify_whd_diagram(infer(t(r"(\x. \y. x) y")), flavor)
        assert rep.ok, (flavor, [s.reason for s in rep.steps if not s.ok])


def test_weak_head_diagram_rejects_the_ordered_flavor():
    with pytest.raises(ValueError):
        verify_whd_diagram(infer(t("x")), Flavor.A)


def test_beta_diagram_closes_on_used_binders_in_all_flavors():
    d = infer(t(r"(\x. x x)(\x. x)"))
    for flavor in (Flavor.ACI, Flavor.AC, Flavor.A):
        rep = verify_beta_diagram_lambdai(d, expand(d, flavor), flavor)
        assert len(rep.steps) == 1
        assert rep.ok, (flavor, rep.steps)


def test_beta_diagram_closes_for_the_ordered_example():
    d = infer(t(r"(\x. x z) z"))
    rep = verify_beta_diagram_lambdai(d, expand(d, Flavor.A), Flavor.A)
    assert rep.ok and len(rep.steps) == 1


def test_beta_diagram_fails_when_an_argument_is_erased():
    # contracting under the binder drops one x-use; the expansion of the
    # reduct keeps one binder where the source expansion kept two, so no
    # reduct of the source expansion can match it
    d = infer(t(r"\x. (\y. z) x x"))
    for flavor in (Flavor.ACI, Flavor.AC):
        rep = verify_beta_diagram_lambdai(d, expand(d, flavor), flavor)
        assert len(rep.steps) == 1
        step = rep.steps[0]
        assert alpha_eq(step.target, t(r"\x. z x"))
        assert not step.ok
        assert not rep.ok


def test_diagrams_need_a_typable_subject():
    omega = t(r"(\x. x x)(\x. x x)")
    for pid in ("whd-diagram-aci", "beta-diagram-unrestricted-aci"):
        assert PROPERTIES[pid](omega) == ("vacuous", "no derivation")


# --- properties ---------------------------------------------------------------

idents = st.sampled_from(["x", "y", "z", "u", "v"])
terms = st.recursive(
    idents.map(Var),
    lambda sub: st.one_of(
        st.tuples(idents, sub).map(lambda p: Abs(*p)),
        st.tuples(sub, sub).map(lambda p: App(*p)),
    ),
    max_leaves=8,
)


def stable_dedup_translate(ty, target):
    """Independent route to the expansion's type: drop repeated members
    (first occurrence wins) before currying."""
    if isinstance(ty, TVar):
        return ty
    seen = []
    for m in ty.doms:
        if m not in seen:
            seen.append(m)
    out = stable_dedup_translate(ty.cod, target)
    arrow = Arrow if target is Target.SIMPLE else Lolli
    for m in reversed(seen):
        out = arrow(stable_dedup_translate(m, target), out)
    return out


def _repeats_a_member(d):
    types = [ty for n in preorder(d) for ty in (n.ty, *(m for _, ms in n.env for m in ms))]
    while types:
        ty = types.pop()
        if isinstance(ty, InterArrow):
            if len(set(ty.doms)) < len(ty.doms):
                return True
            types += [*ty.doms, ty.cod]
    return False


def test_collapsed_derivations_contract_exactly_under_aci():
    # every type variable of infer's derivation collapsed to a: an instance
    # of the principal typing whose domains can repeat a member, which ACI
    # binds once (ctr) and AC once per copy
    a = TVar("a")
    collapsed = []
    for u in enumerate_terms(7, closed_only=False):
        d = infer(u)
        if d is None:
            continue
        c = rename_tyvars(d, {v: a for v in _deriv_ty_vars(d)})
        if _repeats_a_member(c) and all(check_inter(c, f) for f in Flavor):
            collapsed.append(c)
    assert len(collapsed) == 45
    for c in collapsed:
        r = expand(c, Flavor.ACI)
        assert r.ty == stable_dedup_translate(c.ty, Target.SIMPLE)
        assert "ctr" in {n.rule for n in preorder(r.induced)}
        r = expand(c, Flavor.AC)
        assert "ctr" not in {n.rule for n in preorder(r.induced)}


@given(terms)
@settings(max_examples=60, deadline=None)
def test_set_expansions_induce_checked_derivations(u):
    d = infer(u, fuel=300)
    if d is None:
        return
    env = d.environment()
    is_li = classify(d.subject).is_lambda_i
    for flavor, target in ((Flavor.ACI, Target.SIMPLE), (Flavor.AC, Target.LINEAR)):
        r = expand(d, flavor)
        assert check_derivation(r.induced)
        assert r.induced.basis == ctx_to_basis(r.context, target)
        # the context is the environment, rendered per occurrence
        spare = FreshSupply(all_names(d.subject))
        assert next(ctx_match(r.context, env_to_set_ctx(env, spare), flavor), None) is not None
        # and folding it back gives the environment again
        assert env_eq(set_ctx_to_env(r.context), env, flavor)
        assert (r.strict is not None) == is_li
        drawn = [y for g in r.context.groups.values() for y in g]
        assert len(set(drawn)) == len(drawn)
        assert all(y not in all_names(d.subject) for y in drawn)
        occs = [count_free_occurrences(r.expanded, y) for y in drawn]
        if flavor is Flavor.AC:
            assert all(o == 1 for o in occs)
            assert classify(r.expanded).is_affine
            assert r.ty == stable_dedup_translate(d.ty, target) == translate(d.ty, target)
            if is_li:
                assert classify(r.expanded).is_linear
        else:
            assert all(o >= 1 for o in occs)
            assert r.ty == stable_dedup_translate(d.ty, target)
        if is_li:
            assert classify(r.expanded).is_lambda_i


@given(terms)
@settings(max_examples=60, deadline=None)
def test_ordered_expansion_is_sound_when_it_fits(u):
    if not classify(u).is_lambda_i:
        return
    d = infer(u, fuel=300)
    if d is None:
        return
    try:
        r = expand_ordered(d)
    except OrderViolation:
        return
    assert check_derivation(r.induced)
    assert r.induced.basis == ctx_to_basis(r.context, Target.ORDERED)
    assert r.ty == translate(d.ty, Target.ORDERED)
    drawn = [y for _, g in r.context.groups for y, _ in g]
    assert len(set(drawn)) == len(drawn)
    assert all(count_free_occurrences(r.expanded, y) == 1 for y in drawn)
    assert classify(r.expanded).is_linear


@given(terms)
@example(t(r"(\x. \y. x) y"))
@settings(max_examples=40, deadline=None)
def test_weak_head_diagram_closes_everywhere(u):
    d = infer(u, fuel=200)
    if d is None:
        return
    for flavor in (Flavor.ACI, Flavor.AC):
        rep = verify_whd_diagram(d, flavor, fuel=200)
        assert rep.ok, (flavor, [s.reason for s in rep.steps if not s.ok])


@given(terms)
@settings(max_examples=40, deadline=None)
def test_beta_diagram_closes_on_li_terms(u):
    if not classify(u).is_lambda_i:
        return
    d = infer(u, fuel=200)
    if d is None:
        return
    for flavor in (Flavor.ACI, Flavor.AC):
        rep = verify_beta_diagram_lambdai(d, expand(d, flavor), flavor, fuel=300)
        assert rep.ok, (flavor, [s.reason for s in rep.steps if not s.ok])


# ---------------------------------------------------------------------------
# spelling pin: inference and expansion output, exactly as spelled


def _spellings(u) -> list[str]:
    """infer's subject, type and environment, then each flavor's expanded
    term, type and context, or the class of the refusal."""
    d = infer(u)
    if d is None:
        return ["untypable"]
    lines = [f"{render_term(d.subject)} : {render_type(d.ty)}"]
    lines += [f"  {x}: {' & '.join(map(render_type, ms))}" for x, ms in d.env]
    for flavor in Flavor:
        try:
            r = expand(d, flavor)
        except ExpansionError as exc:
            lines.append(f"  {flavor.value}: {type(exc).__name__}")
            continue
        groups = r.context.groups.items() if isinstance(r.context, SetExpCtx) else r.context.groups
        ctx = "; ".join(
            f"{owner}: " + ", ".join(f"{y}: {render_type(ty)}" for y, ty in dict(g).items())
            for owner, g in groups
        )
        lines.append(f"  {flavor.value}: {render_term(r.expanded)} : {render_type(r.ty)} | {ctx}")
    return lines


# sha256 of the lines below for every open term up to size 6; a change that
# moves a binder name, a type-variable letter or a member's position moves it
SPELLINGS_TO_SIZE_6 = "b444bb6bca40e3e8c1275a2af5f9a9fab1279502a681c866096c6fc624aec35b"


def test_inference_and_expansion_spellings_are_pinned():
    corpus = enumerate_terms(6, closed_only=False)
    assert len(corpus) == 268
    text = "\n".join(line for u in corpus for line in _spellings(u))
    assert hashlib.sha256(text.encode()).hexdigest() == SPELLINGS_TO_SIZE_6
