import sys

from hypothesis import given
from hypothesis import strategies as st

import pytest

from lambda_expand import reduction
from lambda_expand.terms import (
    Abs,
    App,
    FreshSupply,
    Var,
    all_names,
    alpha_eq,
    canonicalize,
    classify,
    free_vars,
    rename_free,
    size,
)
from lambda_expand.reduction import (
    NotARedexError,
    Strategy,
    beta_step,
    redex_positions,
    reduce,
    weak_head_position,
    weak_head_step,
)
from lambda_expand.syntax import parse_term, render_term
from lambda_expand.verify import enumerate_terms

OMEGA = "(\\x. x x) (\\x. x x)"


def t(src):
    return parse_term(src)


def test_redex_positions_leftmost_outermost():
    term = t("(\\x. (\\y. y) x) ((\\z. z) w)")
    assert list(redex_positions(term)) == [(), ("left", "under"), ("right",)]
    assert list(redex_positions(t("\\x. x"))) == []
    assert list(redex_positions(t("x ((\\y. y) z)"))) == [("right",)]


def test_beta_step():
    out = beta_step(t("(\\x. x x) (\\y. y)"), ())
    assert alpha_eq(out, t("(\\y. y) (\\y. y)"))
    out = beta_step(t("\\z. (\\x. x) z"), ("under",))
    assert out == t("\\z. z")
    with pytest.raises(NotARedexError):
        beta_step(t("x y"), ())
    with pytest.raises(NotARedexError):
        beta_step(t("x"), ("left",))


def test_a_term_deeper_than_the_recursion_limit_parses_prints_and_reduces():
    depth = 10_000
    assert depth > sys.getrecursionlimit()
    src = "f (" * depth + "(\\x. x) y" + ")" * depth
    u = t(src)
    assert render_term(u) == src
    pos = ("right",) * depth
    assert next(redex_positions(u)) == pos
    done = "f (" * (depth - 1) + "f y" + ")" * (depth - 1)
    assert render_term(beta_step(u, pos)) == done
    r = reduce(u)
    assert r.status == "normal-form" and len(r.trace) == 1
    assert render_term(r.term) == done


def test_weak_head_step():
    assert weak_head_step(t("\\x. (\\y. y) x")) is None  # abstractions are whnf
    assert weak_head_step(t("x ((\\y. y) z)")) is None  # variable-headed spine
    out, pos = weak_head_step(t("(\\x. x) ((\\y. y) z)"))
    assert pos == ()
    assert alpha_eq(out, t("(\\y. y) z"))
    out, pos = weak_head_step(t("(\\x. x) y z w"))
    assert pos == ("left", "left")
    assert alpha_eq(out, t("y z w"))


def test_reduce_leftmost_to_normal_form():
    # hand reduction: (\x. x x)(\x. x) -> (\x. x)(\x. x) -> \x. x
    r = reduce(t("(\\x. x x) (\\x. x)"), Strategy.LEFTMOST, 10)
    assert r.status == "normal-form"
    assert alpha_eq(r.term, t("\\x. x"))
    assert len(r.trace) == 2


def test_omega_reducts_keep_their_binder_spellings():
    # canonicalize renames a binder only where its name is already in use,
    # to the next free index on its stem
    r = reduce(t(OMEGA), Strategy.LEFTMOST, 2)
    assert [render_term(s.result) for s in r.trace.steps] == [
        "(\\x. x x) (\\x1. x1 x1)",
        "(\\x1. x1 x1) (\\x2. x2 x2)",
    ]


def test_reduce_fuel_exhausted_is_inconclusive():
    r = reduce(t(OMEGA), Strategy.LEFTMOST, 50)
    assert r.status == "fuel-exhausted"
    assert len(r.trace) == 50


def test_each_step_calls_beta_step_and_substitute_once(monkeypatch):
    # the benchmark's tracer counts these calls to report beta steps per
    # second, so the count must not move with the kernel's insides
    calls = {"beta_step": 0, "substitute": 0}

    def counted(name):
        inner = getattr(reduction, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(reduction, name, counted(name))
    r = reduce(t(OMEGA), Strategy.LEFTMOST, 100)
    assert r.status == "fuel-exhausted"
    assert calls == {"beta_step": 100, "substitute": 100}


def test_reduce_weak_head():
    # (\x. (\y. z) x) w -> (\y. z) w -> z
    r = reduce(t("(\\x. (\\y. z) x) w"), Strategy.WEAK_HEAD, 10)
    assert r.status == "weak-head-nf"
    assert r.term == Var("z")
    assert len(r.trace) == 2
    # weak-head stops at an abstraction even when the body has redexes
    r = reduce(t("\\x. (\\y. y) x"), Strategy.WEAK_HEAD, 10)
    assert r.status == "weak-head-nf"
    assert len(r.trace) == 0


def test_exact_fuel_landing_still_reports_normal_form():
    r = reduce(t("(\\x. x) y"), Strategy.LEFTMOST, 1)
    assert r.status == "normal-form"
    assert r.term == Var("y")


idents = st.sampled_from(["x", "y", "z"])
terms = st.recursive(
    idents.map(Var),
    lambda sub: st.one_of(
        st.tuples(idents, sub).map(lambda p: Abs(*p)),
        st.tuples(sub, sub).map(lambda p: App(*p)),
    ),
    max_leaves=9,
)


@given(terms)
def test_weak_head_position_is_leftmost(u):
    pos = weak_head_position(u)
    if pos is not None:
        assert next(redex_positions(u)) == pos


@given(terms)
def test_trace_replays(u):
    r = reduce(u, Strategy.LEFTMOST, 30)
    current = u
    for step in r.trace.steps:
        current = beta_step(current, step.position)
        assert current == step.result
    assert current == r.term
    assert r.trace.final() == r.term


@given(terms)
def test_linear_terms_reduce_within_length(u):
    if not classify(u).is_linear:
        return
    r = reduce(u, Strategy.LEFTMOST, size(u))
    assert r.status == "normal-form"
    assert len(r.trace) <= size(u)


# ---------------------------------------------------------------------------
# the one-walk step against the two-phase composition it replaces

def _oracle_substitute(t, x, s):
    """Substitute, renaming the binders of t that are free in s, then
    canonicalize with the same supply."""
    fv_s = set(free_vars(s))
    supply = FreshSupply(all_names(t) | all_names(s))

    def go(t, ren):
        if isinstance(t, Var):
            # a bound name is looked up before its rename, which may have
            # drawn the spelling of x itself
            if t.name == x and x not in ren:
                return s
            return Var(ren.get(t.name, t.name))
        if isinstance(t, App):
            return App(go(t.fun, ren), go(t.arg, ren))
        if t.binder == x:
            return Abs(x, rename_free(t.body, ren))
        if t.binder in fv_s:
            b2 = supply.fresh(t.binder)
            return Abs(b2, go(t.body, {**ren, t.binder: b2}))
        return Abs(t.binder, go(t.body, ren))

    return canonicalize(go(t, {}), supply)


def _oracle_step(t, position):
    """Substitute, canonicalize, rebuild, canonicalize the whole term."""

    def rebuild(t, path):
        if not path:
            return _oracle_substitute(t.fun.body, t.fun.binder, t.arg)
        if path[0] == "left":
            return App(rebuild(t.fun, path[1:]), t.arg)
        if path[0] == "right":
            return App(t.fun, rebuild(t.arg, path[1:]))
        return Abs(t.binder, rebuild(t.body, path[1:]))

    return canonicalize(rebuild(t, position))


def _renamed(t, f):
    if isinstance(t, Var):
        return Var(f(t.name))
    if isinstance(t, Abs):
        return Abs(f(t.binder), _renamed(t.body, f))
    return App(_renamed(t.fun, f), _renamed(t.arg, f))


# enumerated binders are x1, x2, ... and free names v1, v2, ...; these
# respellings make binders shadow each other or clash with free names
_RESPELLINGS = [
    lambda n: n,
    lambda n: "x" if n[0] == "x" else n,
    lambda n: "v" + n[1:] if n[0] == "x" else n,
    lambda n: "z" + n[1:] if n[0] == "x" else "z" + str(int(n[1:]) + 1),
]


def _oracle_redex_positions(t):
    """The recursive walker redex_positions replaced."""
    out = []

    def go(t, path):
        if isinstance(t, App):
            if isinstance(t.fun, Abs):
                out.append(path)
            go(t.fun, path + ("left",))
            go(t.arg, path + ("right",))
        elif isinstance(t, Abs):
            go(t.body, path + ("under",))

    go(t, ())
    return out


def test_redex_positions_matches_the_recursive_walker_on_every_open_term_to_size_7():
    for base in enumerate_terms(7, closed_only=False):
        for f in _RESPELLINGS:
            u = _renamed(base, f)
            assert list(redex_positions(u)) == _oracle_redex_positions(u), render_term(u)


def test_beta_step_matches_the_two_phase_oracle_on_every_open_term_to_size_7():
    for base in enumerate_terms(7, closed_only=False):
        for f in _RESPELLINGS:
            u = _renamed(base, f)
            for pos in redex_positions(u):
                assert beta_step(u, pos) == _oracle_step(u, pos), (render_term(u), pos)


reusing = st.recursive(
    st.sampled_from(["x", "y", "x1", "y1", "y2"]).map(Var),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["x", "y", "x1", "y1"]), sub).map(lambda p: Abs(*p)),
        st.tuples(sub, sub).map(lambda p: App(*p)),
    ),
    max_leaves=10,
)


@given(reusing)
def test_beta_step_matches_the_two_phase_oracle_on_reused_names(u):
    for pos in redex_positions(u):
        assert beta_step(u, pos) == _oracle_step(u, pos)


def test_beta_step_spellings_are_pinned():
    # under a binder the contractum (\z. z) (\z1. z1) reuses z1, so the
    # whole-term pass must still rename
    out = beta_step(t("\\z1. (\\y. y y) (\\z. z)"), ("under",))
    assert render_term(out) == "\\z1. (\\z. z) (\\z2. z2)"
    r = reduce(t("(\\x. x x x) (\\x. x x x)"), Strategy.LEFTMOST, 3)
    assert [render_term(s.result) for s in r.trace.steps] == [
        "(\\x. x x x) (\\x1. x1 x1 x1) (\\x2. x2 x2 x2)",
        "(\\x1. x1 x1 x1) (\\x2. x2 x2 x2) (\\x3. x3 x3 x3) (\\x4. x4 x4 x4)",
        "(\\x2. x2 x2 x2) (\\x3. x3 x3 x3) (\\x4. x4 x4 x4) (\\x1. x1 x1 x1) (\\x5. x5 x5 x5)",
    ]
    # capture renames are drawn before canonicalizing ones: \y takes y2
    # although the duplicate \y1 comes first in the walk
    out = beta_step(t("(\\x. (\\y1. y1) (\\y1. \\y. x)) y"), ())
    assert render_term(out) == "(\\y1. y1) (\\y3 y2. y)"
    # a capture rename may draw the spelling of the substituted name; the
    # renamed bound occurrence must not be replaced as if it were free
    out = beta_step(t("v1 ((\\v1 v2. v2) v2)"), ("right",))
    assert render_term(out) == "v1 (\\v2. v2)"
