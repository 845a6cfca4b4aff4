"""Intersection typing: checker, normal-form inference, replay, surgery.

Expected types in the goldens were derived by hand, rule by rule, before
the implementation; check_inter acts as the independent oracle for
everything the replay produces.
"""

import time
import tracemalloc
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_expand import intersection
from lambda_expand.intersection import (
    InterDerivation,
    ReductionTypeError,
    ReplayError,
    _abs_node,
    _deriv_ty_vars,
    _infer,
    _match_ty,
    canonical_tyvars,
    check_inter,
    infer,
    infer_nf,
    match_requested,
    rename_tyvars,
    subject_expand,
    subject_reduce,
    ty_vars,
)
from lambda_expand.reduction import Strategy, beta_step, redex_positions, reduce
from lambda_expand.syntax import parse_inter_type, parse_term, render_type
from lambda_expand.systems import infer_curry
from lambda_expand.terms import (
    alpha_eq,
    Abs,
    App,
    FreshSupply,
    Var,
    canonicalize,
    classify,
    free_vars,
)
from lambda_expand.typelang import (
    Flavor,
    InterArrow,
    TVar,
    inter_eq,
    letter_names,
    normal_members,
    normalize,
)
from lambda_expand.verify import enumerate_terms

A = TVar("a")
B = TVar("b")
C = TVar("c")


def t(src):
    return parse_term(src)


def arr(*parts):
    """arr(m1, m2, ..., cod) builds (m1 & m2 & ...) -> cod."""
    return InterArrow(tuple(parts[:-1]), parts[-1])


AA = arr(A, A)  # a -> a


def test_infer_nf_self_application():
    d = infer(t("\\x. x x"))
    assert d is not None
    # occurrence order: the function copy's type comes first
    assert d.ty == arr(arr(A, B), A, B)
    assert d.environment() == {}
    assert check_inter(d)


def test_infer_nf_spine_and_vacuous_binder():
    d = infer(t("\\x. y"))
    assert d is not None
    assert d.ty == arr(A, B)
    assert d.environment() == {"y": (B,)}

    # canonical letters: the subject's own type is named first
    d2 = infer(t("x (y z)"))
    assert d2 is not None
    assert d2.ty == A
    assert d2.environment() == {
        "x": (arr(B, A),),
        "y": (arr(C, B),),
        "z": (C,),
    }


def test_infer_nf_rejects_redex():
    with pytest.raises(Exception):
        infer_nf(t("(\\x. x) y"))


def test_infer_self_application_of_identity():
    d = infer(t("(\\x. x x) (\\y. y)"))
    assert d is not None
    assert d.subject == t("(\\x. x x) (\\y. y)")
    assert d.ty == AA
    assert d.environment() == {}
    assert check_inter(d)
    # the inner abstraction collects both occurrence types of x
    lam = d.premises[0]
    assert lam.subject == t("\\x. x x")
    assert lam.ty == arr(arr(AA, AA), AA, AA)


def test_infer_erasing_step():
    d = infer(t("\\x. (\\y. z) x x"))
    assert d is not None
    # the erased occurrence's fresh type comes first in the domain
    assert d.ty == arr(A, B, C)
    assert d.environment() == {"z": (arr(B, C),)}
    assert check_inter(d)


def test_infer_omega_gives_up():
    assert infer(t("(\\x. x x) (\\x. x x)"), fuel=200) is None


def test_a_run_that_spends_its_fuel_holds_no_trace():
    # Omega at the default fuel: 10,000 steps, of which only the first
    # 128 terms are held
    tracemalloc.start()
    try:
        assert infer(t("(\\x. x x) (\\x. x x)")) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _church(n):
    return "(\\f x. " + "f (" * n + "x" + ")" * n + ")"


PLUS = "(\\m n f x. m f (n f x))"
MULT = "(\\m n f. m (n f))"
CHURCH_TERMS = (
    f"{PLUS} {_church(4)} {_church(4)}",
    f"{MULT} {_church(3)} {_church(4)}",
    f"{_church(3)} {_church(3)}",
    f"{_church(4)} {_church(2)}",
    f"{_church(4)} {_church(3)}",  # 3^4: 80 leftmost steps
    f"{_church(2)} {_church(2)} {_church(2)}",
)


def test_the_held_window_changes_no_spelling(monkeypatch):
    subjects = [*enumerate_terms(6, closed_only=False), *map(t, CHURCH_TERMS)]
    # above every run length at the default fuel: every term is held
    monkeypatch.setattr(intersection, "_HELD_STATES", 10_001)
    whole = [infer(u) for u in subjects]
    rebuilt = []
    real_step = intersection.beta_step

    def counted_step(*args):
        rebuilt.append(args)
        return real_step(*args)

    monkeypatch.setattr(intersection, "beta_step", counted_step)
    for held in (1, 8):
        monkeypatch.setattr(intersection, "_HELD_STATES", held)
        rebuilt.clear()
        for u, d in zip(subjects, whole):
            assert infer(u) == d, (held, u)
        assert rebuilt, held


def test_infer_erased_divergent_argument_gives_up():
    assert infer(t("(\\x. y) ((\\x. x x) (\\x. x x))"), fuel=200) is None


def test_infer_nested_erasure_under_binder():
    # the erased argument mentions the enclosing binder, so the vacuous
    # abstraction above it must widen into a real discharge
    d = infer(t("\\b. (\\x. \\z. z) b"))
    assert d is not None
    assert check_inter(d)
    assert d.ty == arr(A, arr(B, B))
    assert d.environment() == {}


def test_replay_spells_the_untouched_side_as_the_subject():
    # every beta step re-canonicalizes the reduct's binders; the argument
    # premises kept across a step in the function part must still derive
    # the subject's own argument spelling
    two = "(\\f x. f (f x))"
    d = infer(t(f"{two} {two} {two}"))
    assert d is not None
    for flavor in Flavor:
        assert check_inter(d, flavor), flavor
    _, *args = d.premises
    assert all(a.subject == d.subject.arg for a in args)


def test_principal_pair():
    d = infer(t("x x"))
    assert d.ty == A
    assert d.environment() == {"x": (arr(B, A), B)}


def test_check_inter_flavor_sensitivity():
    d = infer(t("\\x. x x"))
    doms = d.ty.doms
    tampered = InterDerivation(
        d.rule, d.env, d.subject, InterArrow((doms[1], doms[0]), d.ty.cod), d.premises
    )
    assert not check_inter(tampered, Flavor.A)
    assert check_inter(tampered, Flavor.AC)
    assert check_inter(tampered, Flavor.ACI)


@pytest.mark.parametrize("width", [8, 9])
def test_check_inter_wide_domain_in_any_order(width):
    # f : (a0 & ... & a_{width-1}) -> b applied to z, one argument premise
    # per member, listed in reverse order
    members = [TVar(f"a{i}") for i in range(width)]
    fun_ty = InterArrow(tuple(members), B)
    f = InterDerivation("ax", (("f", (fun_ty,)),), Var("f"), fun_ty)
    args = [InterDerivation("ax", (("z", (m,)),), Var("z"), m) for m in reversed(members)]
    env = (("f", (fun_ty,)), ("z", tuple(reversed(members))))
    d = InterDerivation("arrow_e", env, App(Var("f"), Var("z")), B, (f, *args))
    assert check_inter(d, Flavor.AC)
    assert check_inter(d, Flavor.ACI)
    res = check_inter(d, Flavor.A)
    assert not res and res.reason == "argument types must match the domain members"


def test_check_inter_rejects_broken_env():
    d = infer(t("\\x. x x"))
    tampered = InterDerivation(d.rule, (("w", (A,)),), d.subject, d.ty, d.premises)
    res = check_inter(tampered)
    assert not res and res.reason


def test_vacuous_binder_chain_past_the_recursion_limit():
    d = infer(t("x"))
    for i in range(5000):
        d = _abs_node(f"z{i}", d, (B,))
    assert d.rule == "arrow_i_prime"
    for flavor in Flavor:
        assert check_inter(d, flavor)


def test_subject_reduce_retargets_the_side_the_step_did_not_touch():
    # beta_step respells the untouched argument \y1. y1 as \y2. y2, so its
    # premises must be carried onto the new spelling
    d = infer(t("(\\x. x x) (\\y. y) (\\y1. y1)"))
    reduct = beta_step(d.subject, ("left",))
    assert reduct == t("(\\y. y) (\\y1. y1) (\\y2. y2)")
    r = subject_reduce(d, reduct, ("left",))
    assert r.subject == reduct and r.ty == d.ty
    for flavor in (Flavor.ACI, Flavor.AC, Flavor.A):
        assert check_inter(r, flavor), flavor


def test_subject_reduce_at_every_redex_to_size_7():
    for u in enumerate_terms(7, closed_only=False):
        d = infer(u)
        if d is None:
            continue
        for pos in redex_positions(d.subject):
            reduct = beta_step(d.subject, pos)
            try:
                r = subject_reduce(d, reduct, pos)
            except (ReplayError, ReductionTypeError):
                continue
            assert r.subject == reduct, (u, pos)
            for flavor in (Flavor.ACI, Flavor.AC, Flavor.A):
                assert check_inter(r, flavor), (u, pos, flavor)


def test_subject_reduce_chain_keeps_type():
    d = infer(t("(\\x. x x) (\\y. y)"))
    term = d.subject
    while True:
        poss = list(redex_positions(term))
        if not poss:
            break
        reduct = beta_step(term, poss[0])
        d = subject_reduce(d, reduct, poss[0])
        assert check_inter(d)
        assert d.subject == reduct
        assert d.ty == AA
        term = reduct
    assert alpha_eq(term, t("\\y. y"))


def test_subject_expand_one_step():
    before = t("(\\x. x) (\\y. y)")
    after = beta_step(before, ())
    d = infer(after)
    e = subject_expand(d, before, ())
    assert check_inter(e)
    assert e.subject == before
    assert e.ty == d.ty


def test_match_requested_merges_under_aci():
    d = infer(t("\\f x. f (f x)"))
    assert d is not None
    # two distinct occurrence types for f
    assert d.ty == arr(arr(A, B), arr(C, A), arr(C, B))
    req = arr(AA, arr(A, A))  # (a -> a) -> a -> a
    out = match_requested(d, req, Flavor.ACI)
    assert out is not None
    assert normalize(out.ty, Flavor.ACI) == normalize(req, Flavor.ACI)
    assert check_inter(out, Flavor.ACI)
    # the two members are forced equal, so width cannot match exactly
    assert match_requested(d, req, Flavor.AC) is None
    assert match_requested(d, req, Flavor.A) is None


def test_match_requested_rigid_variables():
    d = infer(t("\\x. x"))
    out = match_requested(d, arr(B, B), Flavor.A)
    assert out is not None and out.ty == arr(B, B)
    assert match_requested(d, arr(A, B), Flavor.A) is None


def test_match_requested_compares_a_bound_variable_under_the_flavor():
    d = infer(t("\\x. x"))  # a -> a: the second a must equal the first
    swapped = arr(arr(A, B, C), arr(B, A, C))  # (a & b -> c) -> b & a -> c
    assert match_requested(d, swapped, Flavor.A) is None
    for flavor in (Flavor.AC, Flavor.ACI):
        out = match_requested(d, swapped, flavor)
        assert out is not None and out.ty == arr(arr(A, B, C), arr(A, B, C))
    # (a -> b) -> a & a -> b is (a -> b) -> a -> b under ACI only
    doubled = arr(arr(A, B), arr(A, A, B))
    out = match_requested(d, doubled, Flavor.ACI)
    assert out is not None and out.ty == arr(arr(A, B), arr(A, B))
    assert check_inter(out, Flavor.ACI)
    assert match_requested(d, doubled, Flavor.AC) is None


def test_match_requested_reversed_wide_domain_is_fast():
    # a search over every permutation (AC) or every map (ACI) of the eight
    # argument members took about 16 s under ACI on a 2-core machine
    d = infer(t("\\f y. f y y y y y y y y"))
    req = parse_inter_type(
        "(a -> b -> c -> d -> e -> f -> g -> h -> r) -> (h & g & f & e & d & c & b & a) -> r"
    )
    for flavor in (Flavor.AC, Flavor.ACI):
        start = time.perf_counter()
        out = match_requested(d, req, flavor)
        assert time.perf_counter() - start < 1.0, flavor
        assert out is not None and inter_eq(out.ty, req, flavor)
        assert check_inter(out, flavor)
    assert match_requested(d, req, Flavor.A) is None


# --- one-way matching against a permutation search --------------------------


def _oracle_subst(ty, s):
    if isinstance(ty, TVar):
        return s.get(ty.name, ty)
    return InterArrow(tuple(_oracle_subst(m, s) for m in ty.doms), _oracle_subst(ty.cod, s))


def _oracle_match(pat, tgt, s, flavor):
    """Oracle: substitute s into the pattern, then pair member lists by
    every permutation of the targets (AC) or every map onto them, kept when
    it covers them (ACI)."""
    pat = _oracle_subst(pat, s)
    if isinstance(pat, TVar):
        if pat.name.startswith("_m"):
            yield {**s, pat.name: tgt}
        elif pat == tgt:
            yield s
        return
    if not isinstance(tgt, InterArrow):
        return
    n = len(tgt.doms)
    if flavor is Flavor.ACI:
        maps = (m for m in product(range(n), repeat=len(pat.doms)) if len(set(m)) == n)
    elif len(pat.doms) != n:
        maps = []
    else:
        maps = [range(n)] if flavor is Flavor.A else permutations(range(n))
    for m in maps:
        pairs = [(p, tgt.doms[i]) for p, i in zip(pat.doms, m)]
        for s2 in _oracle_pairs(pairs, s, flavor):
            yield from _oracle_match(pat.cod, tgt.cod, s2, flavor)


def _oracle_pairs(pairs, s, flavor):
    if not pairs:
        yield s
        return
    (p, q), rest = pairs[0], pairs[1:]
    for s2 in _oracle_match(p, q, s, flavor):
        yield from _oracle_pairs(rest, s2, flavor)


def _oracle_match_requested(d, requested, flavor):
    d = rename_tyvars(d, {v: TVar(f"_m{i}") for i, v in enumerate(_deriv_ty_vars(d))})
    for s in _oracle_match(d.ty, requested, {}, flavor):
        out = rename_tyvars(d, s)
        leftovers = [v for v in _deriv_ty_vars(out) if v.startswith("_m")]
        if leftovers:
            taken = set(_deriv_ty_vars(out)) | set(ty_vars(requested))
            names = (n for n in letter_names() if n not in taken)
            out = rename_tyvars(out, {v: TVar(next(names)) for v in leftovers})
        if check_inter(out, flavor):
            return out
    return None


def _arrows(members):
    return st.builds(
        lambda doms, cod: InterArrow(tuple(doms), cod),
        st.lists(members, min_size=1, max_size=3),
        members,
    )


def _types(depth):
    var = st.sampled_from([A, B, C])
    return var if depth == 0 else st.one_of(var, _arrows(_types(depth - 1)))


@st.composite
def _instances(draw, ty):
    """ty with each variable replaced by one drawn type, then every member
    list permuted, each occurrence of a variable on its own, and now and
    then a member repeated."""
    s = {v: draw(_arrows(_types(1))) for v in ty_vars(ty)}

    def reorder(u):
        if isinstance(u, TVar):
            return u
        doms = draw(st.permutations([reorder(m) for m in u.doms]))
        if draw(st.integers(0, 7)) == 0:
            doms.append(draw(st.sampled_from(doms)))
        return InterArrow(tuple(doms), reorder(u.cod))

    return reorder(_oracle_subst(ty, s))


@lru_cache(maxsize=None)
def _match_subjects():
    ds = (infer(u) for u in enumerate_terms(6, closed_only=False))
    return [d for d in ds if d is not None]


def _solutions(matches):
    return {tuple(sorted(s.items())) for s in matches}


def _repeats_a_member(ty):
    """Some member list of ty holds two members equal under ACI."""
    if isinstance(ty, TVar):
        return False
    return len(normal_members(ty.doms, Flavor.ACI)) < len(ty.doms) or any(
        _repeats_a_member(m) for m in (*ty.doms, ty.cod)
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_match_requested_agrees_with_the_permutation_search(data):
    d = data.draw(st.sampled_from(_match_subjects()))
    requested = data.draw(st.one_of(_instances(d.ty), _types(3)))
    pattern = rename_tyvars(d, {v: TVar(f"_m{i}") for i, v in enumerate(_deriv_ty_vars(d))}).ty
    for flavor in Flavor:
        new = _solutions(_match_ty(pattern, requested, {}, flavor))
        old = _solutions(_oracle_match(pattern, requested, {}, flavor))
        got = match_requested(d, requested, flavor)
        want = _oracle_match_requested(d, requested, flavor)
        if new == old:
            # both take target members in index order; their first matches
            # could differ only where one member's choice of bindings
            # decides which target a later member can take
            assert got == want
            continue
        # the oracle re-matches a bound variable's binding as a pattern,
        # which under ACI covers a target's repeated members only with as
        # many of its own: with _m0 bound to (a) -> b it rejects
        # (a & a) -> b, which inter_eq accepts
        assert flavor is Flavor.ACI and _repeats_a_member(requested)
        assert old < new
        assert got is not None
        assert check_inter(got, flavor) and inter_eq(got.ty, requested, flavor)


def test_render_of_inferred_type():
    d = infer(t("\\x. x x"))
    assert render_type(d.ty) == "(a -> b) & a -> b"


# --- properties --------------------------------------------------------------

idents = st.sampled_from(["x", "y", "z", "u", "v"])
terms = st.recursive(
    idents.map(Var),
    lambda sub: st.one_of(
        st.tuples(idents, sub).map(lambda p: Abs(*p)),
        st.tuples(sub, sub).map(lambda p: App(*p)),
    ),
    max_leaves=8,
)


@given(terms)
@settings(max_examples=80, deadline=None)
def test_replay_output_checks_under_every_flavor(u):
    d = infer(u, fuel=300)
    if d is None:
        return
    assert d.subject == canonicalize(u, FreshSupply())
    for flavor in Flavor:
        assert check_inter(d, flavor)
    assert set(d.environment()) == set(free_vars(u))


@given(terms)
@settings(max_examples=60, deadline=None)
def test_simply_typable_terms_are_inter_typable(u):
    if infer_curry(u) is not None:
        assert infer(u, fuel=500) is not None


@given(terms)
@settings(max_examples=60, deadline=None)
def test_lambda_i_round_trip(u):
    if not classify(u).is_lambda_i:
        return
    d = infer(u, fuel=300)
    if d is None:
        return
    term = d.subject
    poss = list(redex_positions(term))
    if not poss:
        return
    reduct = beta_step(term, poss[0])
    r = subject_reduce(d, reduct, poss[0])
    assert check_inter(r)
    assert r.ty == d.ty
    back = subject_expand(r, term, poss[0])
    assert check_inter(back)
    assert back.ty == d.ty
    assert back.subject == term


def _three_loop_canonical_tyvars(d):
    """Oracle: the root type's variables, then the root environment's, then
    a walk of the whole derivation, each list searched before appending;
    then a fresh substitution into every type."""
    order = []

    def add(ty):
        if isinstance(ty, TVar):
            if ty.name not in order:
                order.append(ty.name)
        else:
            for m in ty.doms:
                add(m)
            add(ty.cod)

    def walk(n):
        add(n.ty)
        for _, members in n.env:
            for m in members:
                add(m)
        for p in n.premises:
            walk(p)

    add(d.ty)
    for _, members in d.env:
        for m in members:
            add(m)
    walk(d)
    names = letter_names()
    ren = {v: TVar(next(names)) for v in order}

    def sub(ty):
        if isinstance(ty, TVar):
            return ren.get(ty.name, ty)
        return InterArrow(tuple(sub(m) for m in ty.doms), sub(ty.cod))

    def rebuild(n):
        env = tuple((x, tuple(sub(m) for m in ms)) for x, ms in n.env)
        return InterDerivation(
            n.rule, env, n.subject, sub(n.ty), tuple(rebuild(p) for p in n.premises)
        )

    return rebuild(d)


def test_canonical_tyvars_matches_the_three_loop_renaming():
    for u in enumerate_terms(6, closed_only=False):
        raw = _infer(canonicalize(u, FreshSupply()), 10_000, FreshSupply())
        assert canonical_tyvars(raw) == _three_loop_canonical_tyvars(raw), u
