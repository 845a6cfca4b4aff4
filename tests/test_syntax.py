from hypothesis import given
from hypothesis import strategies as st

import pytest

from lambda_expand.terms import Abs, App, Var
from lambda_expand.typelang import Arrow, InterArrow, Lolli, LolliL, LolliR, TVar
from lambda_expand.syntax import (
    ParseError,
    parse_inter_type,
    parse_linear_type,
    parse_ordered_type,
    parse_simple_type,
    parse_term,
    render_term,
    render_type,
)


def test_parse_term_examples():
    assert parse_term("x") == Var("x")
    assert parse_term("\\x. x") == Abs("x", Var("x"))
    assert parse_term("x y z") == App(App(Var("x"), Var("y")), Var("z"))
    assert parse_term("\\x y. x y") == Abs("x", Abs("y", App(Var("x"), Var("y"))))
    assert parse_term("λx. x") == parse_term("\\x. x")
    assert parse_term("(\\x. x x) (\\x. x)") == App(
        Abs("x", App(Var("x"), Var("x"))), Abs("x", Var("x"))
    )
    # a lambda in argument position extends as far right as possible
    assert parse_term("x \\y. y z") == App(Var("x"), Abs("y", App(Var("y"), Var("z"))))


def test_identifier_grammar():
    assert parse_term("x1'") == Var("x1'")
    assert parse_term("fooBar_9") == Var("fooBar_9")
    with pytest.raises(ParseError):
        parse_term("X")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_term("(x")
    assert e.value.line == 1 and e.value.col == 3
    with pytest.raises(ParseError) as e:
        parse_term("\\x\n y")
    assert e.value.line == 2


def test_parse_types():
    assert parse_simple_type("a -> b -> c") == Arrow(TVar("a"), Arrow(TVar("b"), TVar("c")))
    assert parse_simple_type("(a -> b) -> c") == Arrow(Arrow(TVar("a"), TVar("b")), TVar("c"))
    assert parse_linear_type("a -o a") == Lolli(TVar("a"), TVar("a"))
    assert parse_ordered_type("a -o_r b") == LolliR(TVar("a"), TVar("b"))
    assert parse_ordered_type("(a -o_r b) -o_l b") == LolliL(LolliR(TVar("a"), TVar("b")), TVar("b"))
    assert parse_inter_type("a -> a") == InterArrow((TVar("a"),), TVar("a"))
    assert parse_inter_type("a & (a -> b) -> b") == InterArrow(
        (TVar("a"), InterArrow((TVar("a"),), TVar("b"))), TVar("b")
    )
    assert parse_inter_type("a ∩ b -> c") == parse_inter_type("a & b -> c")


A, B, C, D = TVar("a"), TVar("b"), TVar("c"), TVar("d")

PARSERS = {
    "simple": parse_simple_type,
    "linear": parse_linear_type,
    "ordered": parse_ordered_type,
    "intersection": parse_inter_type,
}

# (language, source, value): each language's own connectives, their Unicode
# spellings, and the parenthesized `&` domain
ACCEPTED = [
    ("simple", "a -> b -> c", Arrow(A, Arrow(B, C))),
    ("simple", "(a → b) → c", Arrow(Arrow(A, B), C)),
    ("linear", "(a -o b) -o a", Lolli(Lolli(A, B), A)),
    ("linear", "a ⊸ b ⊸ c", Lolli(A, Lolli(B, C))),
    ("ordered", "a -o_l b -o_r c", LolliL(A, LolliR(B, C))),
    ("ordered", "(a ⊸_l b) ⊸_r c", LolliR(LolliL(A, B), C)),
    ("intersection", "a & b -> c", InterArrow((A, B), C)),
    ("intersection", "(a & b) -> c", InterArrow((A, B), C)),
    ("intersection", "((a ∩ b)) → c", InterArrow((A, B), C)),
    ("intersection", "a -> b & c -> d", InterArrow((A,), InterArrow((B, C), D))),
    ("intersection", "(a -> b) & a -> b", InterArrow((InterArrow((A,), B), A), B)),
]

# (language, source, line, column of the offending token)
FOREIGN_CONNECTIVES = [
    ("simple", "a -o b", 1, 3),
    ("simple", "a -> b ⊸_r c", 1, 8),
    ("linear", "a -> b", 1, 3),
    ("linear", "a -o\n  b -o_l c", 2, 5),
    ("ordered", "a -o b", 1, 3),
    ("ordered", "(a → b) -o_l c", 1, 4),
    ("intersection", "a -o_l b", 1, 3),
    ("intersection", "a ⊸ b", 1, 3),
]
STRAY_INTERSECTIONS = [
    ("simple", "a & b -> c", 1, 3),
    ("linear", "a ∩ b -o c", 1, 3),
    ("ordered", "(a & b) -o_r c", 1, 4),
    ("intersection", "a & b", 1, 3),
    ("intersection", "(a & b)", 1, 4),
    ("intersection", "a -> b & c", 1, 8),
    ("intersection", "(a & b) & c -> d", 1, 4),
    ("intersection", "a & (b & c) -> d", 1, 8),
]


def assert_rejected_at(cases):
    for language, src, line, col in cases:
        with pytest.raises(ParseError) as e:
            PARSERS[language](src)
        assert (e.value.line, e.value.col) == (line, col), (language, src, str(e.value))


def test_each_language_parses_its_own_connectives():
    for language, src, value in ACCEPTED:
        assert PARSERS[language](src) == value, (language, src)


def test_intersections_only_in_domains():
    assert_rejected_at(STRAY_INTERSECTIONS)


def test_type_language_mismatches_rejected():
    assert_rejected_at(FOREIGN_CONNECTIVES)


def test_render_term():
    assert render_term(parse_term("(\\x. x x) (\\x. x)")) == "(\\x. x x) (\\x. x)"
    assert render_term(parse_term("x y z")) == "x y z"
    assert render_term(parse_term("x (y z)")) == "x (y z)"
    assert render_term(parse_term("\\x1 x2. x1 x2")) == "\\x1 x2. x1 x2"
    assert render_term(parse_term("\\x. x"), unicode=True) == "λx. x"


def test_render_type():
    assert render_type(parse_simple_type("a -> b -> c")) == "a -> b -> c"
    assert render_type(parse_simple_type("(a -> b) -> c")) == "(a -> b) -> c"
    assert render_type(parse_inter_type("a & (a -> b) -> b")) == "a & (a -> b) -> b"
    assert render_type(parse_inter_type("(a -> b) & a -> b")) == "(a -> b) & a -> b"
    assert render_type(parse_ordered_type("(a -o_r b) -o_l b")) == "(a -o_r b) -o_l b"
    assert render_type(parse_linear_type("a -o a"), unicode=True) == "a ⊸ a"
    assert render_type(parse_inter_type("a & b -> c"), unicode=True) == "a ∩ b -> c"


idents = st.sampled_from(["x", "y", "z", "u"])
terms = st.recursive(
    idents.map(Var),
    lambda sub: st.one_of(
        st.tuples(idents, sub).map(lambda p: Abs(*p)),
        st.tuples(sub, sub).map(lambda p: App(*p)),
    ),
    max_leaves=10,
)

tvars = st.sampled_from(["a", "b", "c"]).map(TVar)
inter_types = st.recursive(
    tvars,
    lambda sub: st.tuples(st.lists(sub, min_size=1, max_size=3), sub).map(
        lambda p: InterArrow(tuple(p[0]), p[1])
    ),
    max_leaves=6,
)


@given(terms)
def test_term_round_trip(u):
    assert parse_term(render_term(u)) == u
    assert parse_term(render_term(u, unicode=True)) == u


@given(inter_types)
def test_inter_type_round_trip(ty):
    assert parse_inter_type(render_type(ty)) == ty
    assert parse_inter_type(render_type(ty, unicode=True)) == ty


def arrow_types(*classes):
    return st.recursive(
        tvars,
        lambda sub: st.tuples(st.sampled_from(classes), sub, sub).map(lambda p: p[0](p[1], p[2])),
        max_leaves=6,
    )


@pytest.mark.parametrize(
    "language, classes",
    [("simple", (Arrow,)), ("linear", (Lolli,)), ("ordered", (LolliL, LolliR))],
)
@given(data=st.data())
def test_arrow_type_round_trip(language, classes, data):
    ty = data.draw(arrow_types(*classes))
    assert PARSERS[language](render_type(ty)) == ty
    assert PARSERS[language](render_type(ty, unicode=True)) == ty
