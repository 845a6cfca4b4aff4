"""JSON documents and DOT graphs round-trip and stay inside the schema."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_expand.expansion import expand
from lambda_expand.intersection import infer
from lambda_expand.serialize import SCHEMA, SerializeError, dumps, from_jsonable, loads, to_dot, to_jsonable
from lambda_expand.syntax import parse_inter_type, parse_ordered_type, parse_term
from lambda_expand.systems import System, decide
from lambda_expand.terms import Abs, App, Var
from lambda_expand.typelang import Basis, Flavor, SetExpCtx, TVar


idents = st.sampled_from(["x", "y", "z", "u", "v"])
terms = st.recursive(
    idents.map(Var),
    lambda inner: st.one_of(
        st.builds(Abs, idents, inner),
        st.builds(App, inner, inner),
    ),
    max_leaves=8,
)


def test_schema_stamp_and_shape():
    doc = json.loads(dumps(parse_term("\\x. x")))
    assert doc["schema"] == SCHEMA == "lambda-expand/v1"
    assert doc["value"]["kind"] == "abs"


@settings(max_examples=150, deadline=None)
@given(terms)
def test_terms_round_trip_exactly(t):
    assert loads(dumps(t)) == t


def test_types_and_contexts_round_trip():
    values = [
        parse_inter_type("(a & (a -> b)) -> b"),
        parse_ordered_type("(a -o_r b) -o_l a"),
        Basis((("x", TVar("a")),)),
        SetExpCtx({"z": {"z1": TVar("a"), "z2": parse_inter_type("a -> b")}}),
    ]
    for v in values:
        assert loads(dumps(v)) == v


def test_derivations_round_trip():
    inter = infer(parse_term("(\\x. x z) z"))
    fixtures = [
        inter,
        expand(inter, Flavor.A).context,
        expand(inter, Flavor.A),
        expand(infer(parse_term("(\\x. y) z")), Flavor.ACI),
        decide(System.LINEAR, parse_term("\\x. \\y. y x")),
    ]
    for v in fixtures:
        assert loads(dumps(v)) == v


def test_loads_rejects_foreign_documents():
    with pytest.raises(SerializeError):
        loads("not json at all {")
    with pytest.raises(SerializeError):
        loads(json.dumps({"schema": "something/v9", "value": {"kind": "var", "name": "x"}}))
    with pytest.raises(SerializeError):
        from_jsonable({"kind": "flux-capacitor"})
    with pytest.raises(SerializeError):
        from_jsonable(["not", "an", "object"])
    with pytest.raises(SerializeError):
        to_jsonable(object())


def test_dot_draws_one_node_per_step():
    d = infer(parse_term("(\\x. x z) z"))
    dot = to_dot(d)
    steps = sum(1 for _ in _walk(d))
    assert dot.startswith("digraph derivation {")
    assert dot.rstrip().endswith("}")
    assert dot.count("label=") == steps
    edges = re.findall(r"n\d+ -> n\d+;", dot)
    assert len(edges) == steps - 1  # every premise feeds its conclusion
    # lambda backslashes must arrive escaped for DOT
    assert "\\\\x" in dot


def _walk(d):
    yield d
    for p in d.premises:
        yield from _walk(p)


def test_dot_accepts_expansions_and_rejects_terms():
    r = expand(infer(parse_term("(\\x. x x) (\\x. x)")), Flavor.ACI)
    assert to_dot(r).startswith("digraph")
    with pytest.raises(SerializeError):
        to_dot(parse_term("x"))


def test_an_expansion_document_keeps_its_strict_derivation():
    r = expand(infer(parse_term("\\x. x x")), Flavor.AC)
    back = loads(dumps(r))
    assert back == r and back.strict == r.strict
    assert back.strict.system is r.strict_system is System.LINEAR
    assert dumps(back) == dumps(r)
