import re

from hypothesis import given
from hypothesis import strategies as st

from lambda_expand.reduction import beta_step
from lambda_expand.terms import (
    Abs,
    App,
    DuplicateBinderError,
    FreshSupply,
    Var,
    alpha_eq,
    alpha_eq_renamed,
    all_names,
    canonicalize,
    classify,
    count_free_occurrences,
    de_bruijn,
    free_vars,
    rename_free,
    simultaneous_substitute,
    size,
    substitute,
    TermClass,
)
from lambda_expand.syntax import parse_term, render_term
from lambda_expand.verify import enumerate_terms

import pytest


def t(src):
    return parse_term(src)


# ---- hypothesis strategies ----

idents = st.sampled_from(["x", "y", "z", "u", "v"])
terms = st.recursive(
    idents.map(Var),
    lambda sub: st.one_of(
        st.tuples(idents, sub).map(lambda p: Abs(*p)),
        st.tuples(sub, sub).map(lambda p: App(*p)),
    ),
    max_leaves=8,
)


def test_size():
    assert size(t("x")) == 1
    assert size(t("\\x. x")) == 2
    assert size(t("(\\x. x x) (\\x. x)")) == 7


def test_free_vars_first_occurrence_order():
    assert free_vars(t("(\\x. x z2) z1")) == ["z2", "z1"]
    assert free_vars(t("\\x. x")) == []
    assert free_vars(t("x y x")) == ["x", "y"]
    # shadowed binders
    assert free_vars(t("\\x. x (\\x. x y) x z")) == ["y", "z"]
    assert free_vars(t("x (\\x. x) x")) == ["x"]
    assert free_vars(t("\\x. \\x. x y")) == ["y"]


def test_count_free_occurrences():
    assert count_free_occurrences(t("\\x. x x"), "x") == 0
    assert count_free_occurrences(t("x (\\x. x) x"), "x") == 2
    assert count_free_occurrences(t("\\y. x y"), "x") == 1


def test_size_and_occurrence_count_past_the_recursion_limit():
    deep = Var("x")
    for i in range(5_000):
        deep = Abs(f"y{i}", App(deep, Var("x")))
    assert size(deep) == 15_001
    assert count_free_occurrences(deep, "x") == 5_001
    assert count_free_occurrences(Abs("x", deep), "x") == 0


def test_classify_examples():
    cases = [
        ("\\x y z. x z (y z)", (True, False, False)),
        ("\\x. y", (False, True, False)),
        ("\\x. x", (True, True, True)),
        ("\\x. x x", (True, False, False)),
        ("x y", (True, True, True)),
        ("x x", (True, False, False)),
        ("\\x y. x", (False, True, False)),
    ]
    for src, (li, aff, lin) in cases:
        c = classify(t(src))
        assert (c.is_lambda_i, c.is_affine, c.is_linear) == (li, aff, lin), src


def _classify_per_binder(t):
    """Oracle: one count_free_occurrences per binder and per free variable."""
    counts = []

    def binders(u):
        if isinstance(u, Abs):
            counts.append(count_free_occurrences(u.body, u.binder))
            binders(u.body)
        elif isinstance(u, App):
            binders(u.fun)
            binders(u.arg)

    binders(t)
    frees_once = all(count_free_occurrences(t, v) == 1 for v in free_vars(t))
    at_least = all(n >= 1 for n in counts)
    at_most = all(n <= 1 for n in counts)
    return TermClass(at_least, at_most and frees_once, at_least and at_most and frees_once)


def test_classify_matches_a_per_binder_count_on_every_open_term_to_size_7():
    for u in enumerate_terms(7, closed_only=False):
        assert classify(u) == _classify_per_binder(u), u


@given(terms)
def test_classify_matches_a_per_binder_count_with_shadowing(u):
    assert classify(u) == _classify_per_binder(u)


def test_fresh_supply_continues_indexed_bases():
    s = FreshSupply({"x1", "x2"})
    assert s.fresh("x") == "x3"
    assert s.fresh("x1") == "x4"
    assert s.fresh("y") == "y1"


@pytest.mark.parametrize(
    "base, stem",
    [("x", "x"), ("x1", "x"), ("x12", "x"), ("x0", "x"), ("f2x", "f2x"), ("12", "12")],
)
def test_fresh_names_keep_the_stems_of_the_trailing_digits_regex(base, stem):
    assert (re.sub(r"[0-9]+$", "", base) or base) == stem
    assert FreshSupply().fresh(base) == stem + "1"


# ---- the kernel returns what it leaves unchanged as the same object ----

def _renamed(u, f):
    if isinstance(u, Var):
        return Var(f(u.name))
    if isinstance(u, Abs):
        return Abs(f(u.binder), _renamed(u.body, f))
    return App(_renamed(u.fun, f), _renamed(u.arg, f))


# enumerated binders are x1, x2, ... and free names v1, v2, ...; these
# respellings make binders shadow each other or clash with free names
_RESPELLINGS = [
    lambda n: n,
    lambda n: "x" if n[0] == "x" else n,
    lambda n: "v" + n[1:] if n[0] == "x" else n,
]


def _keeps_convention(u):
    """No name is bound twice in u, and no name is both free and bound."""
    binders = []
    free = set()

    def go(t, scope):
        if isinstance(t, Var):
            if t.name not in scope:
                free.add(t.name)
        elif isinstance(t, Abs):
            binders.append(t.binder)
            go(t.body, scope | {t.binder})
        else:
            go(t.fun, scope)
            go(t.arg, scope)

    go(u, frozenset())
    return len(binders) == len(set(binders)) and free.isdisjoint(binders)


def test_canonicalize_returns_the_term_itself_exactly_when_it_keeps_the_convention():
    for base in enumerate_terms(7, closed_only=False):
        for f in _RESPELLINGS:
            u = _renamed(base, f)
            assert (canonicalize(u) is u) == _keeps_convention(u), render_term(u)


def test_a_root_step_shares_what_it_does_not_change():
    arg = t("\\y. y y")
    # the binder occurs once: the argument itself goes into the contractum
    out = beta_step(App(t("\\x. z x"), arg), ())
    assert out == App(Var("z"), arg) and out.arg is arg
    # twice: the first copy is the argument, the second is rebuilt apart
    out = beta_step(App(t("\\x. x x"), arg), ())
    assert render_term(out) == "(\\y. y y) (\\y1. y1 y1)"
    assert out.fun is arg
    # a subterm of the body without the binder is not rebuilt
    fun = t("\\x. (\\w. w) x")
    out = beta_step(App(fun, Var("a")), ())
    assert out.fun is fun.body.fun


def test_rename_free_shares_what_it_does_not_rename():
    u = t("(\\x. x) (y z)")
    out = rename_free(u, {"z": "w"})
    assert out == t("(\\x. x) (y w)")
    assert out.fun is u.fun and out.arg.fun is u.arg.fun
    assert rename_free(u, {"x": "w"}) is u


def test_rename_free_runs_ten_thousand_deep_and_shares():
    spine = Var("y")  # f (f (... y)), no z
    for _ in range(10_000):
        spine = App(Var("f"), spine)
    binders = Var("z")  # \x. \x. ... z
    for _ in range(10_000):
        binders = Abs("x", binders)
    u = App(spine, binders)
    out = rename_free(u, {"z": "w", "x": "v"})
    assert out.fun is spine
    want = Var("w")
    for _ in range(10_000):
        want = Abs("x", want)
    assert alpha_eq(out.arg, want) and out.arg.binder == "x"
    assert rename_free(Abs("z", u.arg), {"z": "w"}).body is u.arg
    assert size(out) == size(u)


@pytest.mark.parametrize("node", [Var("x"), Abs("x", Var("x")), App(Var("x"), Var("y"))])
def test_term_nodes_are_slotted_and_frozen(node):
    assert not hasattr(node, "__dict__")
    # Python 3.11 raises TypeError here: the frozen __setattr__ of a slotted
    # dataclass calls super() with the class as it was before slots
    with pytest.raises((AttributeError, TypeError)):
        node.note = "extra"
    with pytest.raises(AttributeError):
        setattr(node, type(node).__slots__[0], "x")


def test_canonicalize_renames_only_where_needed():
    out = canonicalize(t("\\x. x (\\x. x)"))
    assert render_term(out) == "\\x. x (\\x1. x1)"
    # a binder clashing with a free variable is refreshed
    out = canonicalize(t("x (\\x. x)"))
    assert render_term(out) == "x (\\x1. x1)"
    # already canonical terms are untouched
    assert canonicalize(t("\\x y. x y")) == t("\\x y. x y")


def test_substitute_basic():
    assert substitute(t("x y"), "x", t("\\z. z")) == t("(\\z. z) y")


def test_substitute_avoids_capture():
    out = substitute(t("\\y. x"), "x", t("y"))
    # the binder must move out of the way of the free y
    assert isinstance(out, Abs)
    assert out.binder != "y"
    assert out.body == Var("y")


def test_substitute_refreshes_duplicated_binders():
    out = substitute(t("x x"), "x", t("\\y. y"))
    assert alpha_eq(out, t("(\\y. y) (\\y. y)"))
    assert isinstance(out, App)
    assert out.fun.binder != out.arg.binder  # result is canonical


def test_substitute_shadowed_variable_untouched():
    assert substitute(t("\\x. x"), "x", t("y")) == t("\\x. x")


def test_substitute_renames_a_capturing_binder_apart_from_its_own_variable():
    # the capture rename of z2 draws z1, the name being substituted for;
    # the bound occurrence must stay bound, not be replaced in turn
    out = substitute(t("\\z2. z2"), "z1", t("z2"))
    assert render_term(out) == "\\z1. z1"
    out = substitute(t("\\v2. v2"), "v1", t("v2"))
    assert render_term(out) == "\\v1. v1"


def test_simultaneous_substitute_shadows_each_binding_alone():
    # under \x only x is shadowed; y is still replaced
    out = simultaneous_substitute(t("\\x. x y"), [("x", t("u")), ("y", t("w"))])
    assert render_term(out) == "\\x. x w"


def test_simultaneous_substitute_rejects_duplicates():
    with pytest.raises(DuplicateBinderError):
        simultaneous_substitute(t("x"), [("x", t("y")), ("x", t("z"))])


def test_simultaneous_matches_sequential_oracle():
    # oracle: when no binding identifier is free in any replacement,
    # simultaneous substitution equals any sequential order
    cases = [
        ("x y", [("x", "\\u. u"), ("y", "v v")]),
        ("x (y x)", [("x", "u"), ("y", "\\w. w w")]),
        ("\\z. x y z", [("x", "z z"), ("y", "u")]),
        ("x1 x2 x1", [("x1", "\\a. a"), ("x2", "b")]),
    ]
    for src, raw in cases:
        bindings = [(x, t(s)) for x, s in raw]
        sim = simultaneous_substitute(t(src), bindings)
        seq = t(src)
        for x, s in bindings:
            seq = substitute(seq, x, s)
        assert alpha_eq(sim, seq), src
        seq_rev = t(src)
        for x, s in reversed(bindings):
            seq_rev = substitute(seq_rev, x, s)
        assert alpha_eq(sim, seq_rev), src


def test_alpha_eq():
    assert alpha_eq(t("\\x. x"), t("\\y. y"))
    assert not alpha_eq(t("\\x y. x"), t("\\x y. y"))
    assert not alpha_eq(t("x"), t("y"))  # free names matter
    assert alpha_eq(t("\\x. x z"), t("\\w. w z"))
    assert not alpha_eq(t("x y"), t("y x"))


def test_alpha_eq_renamed_does_not_capture_a_renamed_name():
    # renaming y2 to y3 in \y3. y2 gives \y4. y3, not \y3. y3
    assert alpha_eq_renamed(t("\\y3. y2"), {"y2": "y3"}, t("\\y2. y3"))
    assert not alpha_eq_renamed(t("\\y3. y2"), {"y2": "y3"}, t("\\y3. y3"))
    assert alpha_eq_renamed(t("\\x. x a"), {"a": "b"}, t("\\y. y b"))


def test_de_bruijn_key_is_alpha_invariant():
    assert de_bruijn(t("\\x. \\y. x y")) == de_bruijn(t("\\a. \\b. a b"))
    assert de_bruijn(t("\\x. x")) != de_bruijn(t("\\x. \\y. y"))


def _recursive_de_bruijn(t, ren=None):
    """The key de_bruijn built by recursion before it ran on a stack."""
    ren = ren or {}

    def go(t, depth, level):
        if isinstance(t, Var):
            v = t.name
            if v in depth:
                return ("b", level - depth[v])
            return ("f", ren.get(v, v))
        if isinstance(t, Abs):
            return ("l", go(t.body, {**depth, t.binder: level + 1}, level + 1))
        return ("a", go(t.fun, depth, level), go(t.arg, depth, level))

    return go(t, {}, 0)


def _rename_binders(t, ren):
    """t with every name in ren renamed, binders and occurrences alike, with
    no regard for capture: a clash or a shadowing may change the term."""
    if isinstance(t, Var):
        return Var(ren.get(t.name, t.name))
    if isinstance(t, Abs):
        return Abs(ren.get(t.binder, t.binder), _rename_binders(t.body, ren))
    return App(_rename_binders(t.fun, ren), _rename_binders(t.arg, ren))


def test_de_bruijn_keys_match_the_recursive_keys_to_size_7():
    swap = {"v1": "v2", "v2": "v1"}
    for u in enumerate_terms(7, closed_only=False):
        assert de_bruijn(u) == _recursive_de_bruijn(u), u
        assert de_bruijn(u, swap) == _recursive_de_bruijn(u, swap), u


@given(terms)
def test_de_bruijn_keys_match_the_recursive_keys_under_shadowing(u):
    assert de_bruijn(u) == _recursive_de_bruijn(u)


def test_a_term_nested_10000_deep_gets_a_key_and_compares():
    deep, renamed, free_renamed = Var("x"), Var("x"), Var("w")
    for i in range(10_000):
        deep = Abs(f"y{i % 3}", App(deep, Var("y0")))
        renamed = Abs(f"z{i % 3}", App(renamed, Var("z0")))
        free_renamed = Abs(f"y{i % 3}", App(free_renamed, Var("y0")))
    assert isinstance(hash(de_bruijn(deep)), int)
    assert alpha_eq(deep, renamed)
    # the outermost binder no longer binds the z0 below it
    assert not alpha_eq(deep, Abs("y0", renamed.body))
    assert alpha_eq_renamed(deep, {"x": "w"}, free_renamed)
    assert not alpha_eq(deep, free_renamed)


def test_alpha_eq_agrees_with_de_bruijn_keys_to_size_5():
    # each term, and copies whose binders are renamed apart, all spelled x
    # (shadowing), or spelled like the free names v1, v2, ... (clashing);
    # the last two may change the alpha class, and the keys say when
    pool = []
    for u in enumerate_terms(5, closed_only=False):
        depth = range(1, 6)
        pool.append(u)
        pool.append(_rename_binders(u, {f"x{k}": f"y{k}" for k in depth}))
        pool.append(_rename_binders(u, {f"x{k}": "x" for k in depth}))
        pool.append(_rename_binders(u, {f"x{k}": f"v{k}" for k in depth}))
    swap = {"v1": "v2", "v2": "v1"}
    keys = [de_bruijn(u) for u in pool]
    swapped = [de_bruijn(u, swap) for u in pool]
    equal = 0
    for a, ka, sa in zip(pool, keys, swapped):
        for b, kb in zip(pool, keys):
            assert alpha_eq(a, b) == (ka == kb), (a, b)
            assert alpha_eq_renamed(a, swap, b) == (sa == kb), (a, b)
            equal += ka == kb
    # the renamed copies are alpha-equal to their sources, and some of the
    # shadowed and clashing ones are not
    assert len(pool) * 2 <= equal < len(pool) ** 2


@given(terms)
def test_canonicalize_preserves_alpha_class(u):
    assert alpha_eq(canonicalize(u), u)


@given(terms)
def test_canonicalize_establishes_convention(u):
    c = canonicalize(u)
    bound = []

    def collect(t):
        if isinstance(t, Abs):
            bound.append(t.binder)
            collect(t.body)
        elif isinstance(t, App):
            collect(t.fun)
            collect(t.arg)

    collect(c)
    assert len(bound) == len(set(bound))
    assert not set(bound) & set(free_vars(c))


@given(terms)
def test_follows_convention_exactly_when_canonicalize_is_the_identity(u):
    assert _keeps_convention(u) == (canonicalize(u) == u)
    assert _keeps_convention(canonicalize(u))


@given(terms, idents)
def test_substitute_identity(u, x):
    u = canonicalize(u)
    assert alpha_eq(substitute(u, x, Var(x)), u)


@given(terms)
def test_classify_alpha_invariant(u):
    u = canonicalize(u)
    assert classify(u) == classify(canonicalize(Abs("w", u)).body)


@given(terms, idents, terms)
def test_substitute_drops_target(u, x, s):
    u = canonicalize(u)
    s = canonicalize(s)
    if x in free_vars(s):
        return
    out = substitute(u, x, s)
    assert x not in free_vars(out)
    assert set(free_vars(out)) <= (set(free_vars(u)) - {x}) | set(free_vars(s))
