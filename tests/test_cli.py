"""The command-line surface: subcommands, formats, and exit codes.

Runs ``main`` in process and reads captured stdout/stderr, so these tests
also pin the exit-code contract: 0 success/typable, 1 absent, 2 inconclusive
(fuel or search budget, a failed replay, nesting past the recursion limit),
3 usage or syntax errors.
"""

import gc
import io
import json
import os
import subprocess
import sys

import pytest

import lambda_expand
from lambda_expand import expansion, serialize
from lambda_expand.cli import _build_parser, main
from lambda_expand.expansion import ExpansionResult
from lambda_expand.intersection import ReplayError, infer
from lambda_expand.syntax import parse_inter_type, parse_term
from lambda_expand.terms import alpha_eq
from lambda_expand.typelang import Flavor, inter_eq
from lambda_expand.verify import PROPERTIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


# --------------------------------------------------------------------------
# parse

def test_parse_prints_the_term_back(capsys):
    code, out, _ = run(capsys, "parse", "(\\x. x x) (\\x. x)")
    assert code == 0
    assert alpha_eq(parse_term(out), parse_term("(\\x. x x) (\\x. x)"))


def test_parse_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("\\x. x x\n"))
    code, out, _ = run(capsys, "parse")
    assert code == 0
    assert out == "\\x. x x"


def test_parse_accepts_unicode_and_flips_output(capsys):
    code, out, _ = run(capsys, "parse", "λx. x x")
    assert (code, out) == (0, "\\x. x x")
    code, out, _ = run(capsys, "parse", "--unicode", "\\x. x x")
    assert (code, out) == (0, "λx. x x")


def test_parse_syntax_error_exits_3(capsys):
    code, _, err = run(capsys, "parse", "\\x. (x")
    assert code == 3
    assert "syntax error" in err and "1:" in err


def test_parse_past_the_recursion_limit_is_inconclusive(capsys):
    # parsing and printing run on explicit stacks, but the JSON document
    # nests as deep as the term
    deep = "f (" * 3000 + "x" + ")" * 3000
    code, out, err = run(capsys, "parse", "--format", "json", deep)
    assert (code, out) == (2, "")
    assert err.startswith("inconclusive: RecursionError") and "\n" not in err


def test_parse_json_document_round_trips(capsys):
    code, out, _ = run(capsys, "parse", "--format", "json", "\\x. x x")
    assert code == 0
    assert serialize.loads(out) == parse_term("\\x. x x")


# --------------------------------------------------------------------------
# check

ORDERED_TERM = "(\\x. x z2) z1"


@pytest.mark.parametrize(
    "basis,valid",
    [
        ("z1: a -o_r b, z2: a", True),
        ("z2: a, z1: a -o_l b", True),
        ("z2: a, z1: a -o_r b", False),
        ("z1: a -o_l b, z2: a", False),
    ],
)
def test_check_ordered_judges_assumption_order(capsys, basis, valid):
    code, out, _ = run(
        capsys, "check", "--system", "ordered", "--basis", basis, "--type", "b", ORDERED_TERM
    )
    if valid:
        assert code == 0 and out.startswith("valid")
    else:
        assert code == 1 and out == "invalid"


def test_check_ordered_past_the_search_budget_is_inconclusive(capsys):
    args = [f"z{i}" for i in range(12)]
    basis = ", ".join([f"f: {' -o_r '.join(['a'] * 12)} -o_r b"] + [f"{z}: a" for z in args])
    code, out, err = run(capsys, "check", "--system", "ordered", "--basis", basis,
                         " ".join(["f", *args]))
    assert (code, out) == (2, "")
    assert err.startswith("inconclusive: SizeBoundExceeded") and "\n" not in err


def test_an_inconclusive_check_needs_neither_inference_nor_serialization(capsys, monkeypatch):
    # as in a fresh process: `lexp check` imports neither module, and main
    # still reports what the search raised
    for m in ("serialize", "expansion", "intersection"):
        monkeypatch.delitem(sys.modules, f"lambda_expand.{m}")
    test_check_ordered_past_the_search_budget_is_inconclusive(capsys)


def test_check_ordered_requires_a_basis(capsys):
    code, _, err = run(capsys, "check", "--system", "ordered", ORDERED_TERM)
    assert code == 3
    assert "--basis" in err


def test_check_decides_without_a_basis(capsys):
    code, out, _ = run(capsys, "check", "--system", "affine", "\\x. \\y. x")
    assert code == 0 and out.startswith("valid")
    code, out, _ = run(capsys, "check", "--system", "linear", "\\x. \\y. x")
    assert code == 1 and out == "invalid"


def test_a_witness_that_cannot_be_built_is_an_internal_error(capsys, monkeypatch):
    # decide's witness is the expansion of its Curry typing; the gate has
    # already said yes, so an expansion that fails is the program's fault
    from lambda_expand import expansion

    def refuse(d, flavor, *args, **kwargs):
        raise expansion.ExpansionError("induced curry derivation fails at [0]: broken")

    monkeypatch.setattr(expansion, "expand", refuse)
    code, out, err = run(capsys, "check", "--system", "curry", "\\x. x")
    assert (code, out) == (2, "")
    assert err == (
        "internal error: decision witness cannot be built: "
        "induced curry derivation fails at [0]: broken"
    )


def test_check_with_basis_and_type(capsys):
    code, out, _ = run(
        capsys, "check", "--system", "curry",
        "--basis", "x: a -> b, y: a", "--type", "b", "x y",
    )
    assert code == 0 and out.startswith("valid")
    code, out, _ = run(
        capsys, "check", "--system", "curry",
        "--basis", "x: a -> b, y: a", "--type", "a", "x y",
    )
    assert code == 1 and out.startswith("invalid")
    code, out, _ = run(
        capsys, "check", "--system", "curry", "--basis", "x: a, y: a", "x y"
    )
    assert code == 1 and out.startswith("invalid")


def test_check_basis_types_the_free_variables_only(capsys):
    code, out, _ = run(
        capsys, "check", "--system", "curry", "--basis", "y: a", "--type", "b -> b", "\\x. x"
    )
    assert (code, out) == (0, "valid: \\x. x : b -> b")
    # a binder that shares a basis name is renamed apart from it
    code, out, _ = run(
        capsys, "check", "--system", "curry", "--basis", "x: a", "--type", "b -> b", "\\x. x"
    )
    assert (code, out) == (0, "valid: \\x1. x1 : b -> b")


def test_check_basis_must_cover_the_free_variables(capsys):
    code, out, err = run(capsys, "check", "--system", "curry", "--basis", "x: a", "x y")
    assert (code, out) == (3, "")
    assert err == "usage error: free variable 'y' has no basis entry"


def test_check_basis_syntax_error_is_placed_in_the_argument(capsys):
    code, out, err = run(capsys, "check", "--system", "curry", "--basis", "y: b, x: a -o b", "x")
    assert (code, out) == (3, "")
    assert err == (
        "syntax error: 1:12: '-o' is not a connective of simple types "
        "in the basis entry for 'x'"
    )


def test_check_type_without_basis_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "--system", "curry", "--type", "a", "\\x. x")
    assert code == 3 and "--basis" in err


def test_check_rejects_malformed_basis(capsys):
    code, _, err = run(capsys, "check", "--system", "curry", "--basis", "nonsense", "x")
    assert code == 3 and "name: type" in err


@pytest.mark.parametrize("system", ["curry", "linear", "ordered"])
def test_check_rejects_a_repeated_basis_name(capsys, system):
    code, out, err = run(capsys, "check", "--system", system, "--basis", "x: a, x: b", "x")
    assert (code, out) == (3, "")
    assert err == "usage error: basis names 'x' twice"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--system", "curry", "--basis", "x: a -o b", "x"),
        ("check", "--system", "ordered", "--basis", "x: a -> b", "x"),
        ("check", "--system", "linear", "--basis", "x: a", "--type", "a -> a", "x"),
        ("expand", "--flavor", "aci", "--type", "a & b", "\\x. x"),
    ],
)
def test_a_type_outside_the_language_is_a_syntax_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    # the bad type is the --type argument when there is one, else the
    # --basis argument, where "x: " comes before it
    col = 3 if "--type" in argv else 6
    assert len(err.splitlines()) == 1 and err.startswith(f"syntax error: 1:{col}: ")


# --------------------------------------------------------------------------
# infer

def test_infer_intersection_self_application(capsys):
    code, out, _ = run(capsys, "infer", "--system", "intersection", "\\x. x x")
    assert code == 0
    got = parse_inter_type(out.splitlines()[0].split(" : ", 1)[1])
    want = parse_inter_type("(a & (a -> b)) -> b")
    assert inter_eq(got, want, Flavor.AC)


def test_infer_json_is_one_line(capsys):
    code, out, _ = run(capsys, "infer", "--system", "intersection", "--format", "json", "\\x. x x")
    assert code == 0 and "\n" not in out
    d = infer(parse_term("\\x. x x"))
    assert json.loads(out) == {"schema": serialize.SCHEMA, "value": serialize.to_jsonable(d)}


def test_infer_intersection_through_an_untypable_subterm(capsys):
    code, out, _ = run(capsys, "infer", "--system", "intersection", "(\\x. x x)(\\x. x)")
    assert code == 0
    assert out.splitlines()[0].endswith(" : a -> a")


TWO_THOUSAND_DEEP = "\\f x. " + "f (" * 1_999 + "f x" + ")" * 1_999


def test_infer_types_a_normal_form_two_thousand_deep(capsys):
    # each occurrence of f gets its own arrow, chained through x's type;
    # flavor a shows the members in occurrence order
    assert 2_000 > sys.getrecursionlimit()
    code, out, _ = run(
        capsys, "infer", "--system", "intersection", "--flavor", "a", TWO_THOUSAND_DEEP
    )
    assert code == 0
    term, ty = out.split(" : ")
    assert term == TWO_THOUSAND_DEEP
    got = parse_inter_type(ty)
    assert len(got.doms) == 2_000 and len(got.cod.doms) == 1
    assert got.doms[-1].doms == got.cod.doms and got.doms[0].cod == got.cod.cod


def test_infer_curry_types_a_normal_form_two_thousand_deep(capsys):
    assert 2_000 > sys.getrecursionlimit()
    code, out, err = run(capsys, "infer", "--system", "curry", TWO_THOUSAND_DEEP)
    assert (code, out, err) == (0, "(a -> a) -> a -> a", "")



def test_infer_curry_types_fifteen_hundred_nested_binders(capsys):
    # the solved type nests 1,500 arrows deep, and freezing it walks a stack
    assert 1_500 > sys.getrecursionlimit()
    term = "\\" + " ".join(f"x{i}" for i in range(1, 1_501)) + ". x1"
    code, out, err = run(capsys, "infer", "--system", "curry", term)
    assert (code, err) == (0, "")
    names = out.split(" -> ")
    assert len(names) == 1_501 and names[:3] == ["a", "b", "c"] and names[-1] == "a"

@pytest.mark.parametrize("flavor, system", [
    ("aci", "curry"), ("ac", "affine"), ("ordered", "ordered"),
])
def test_expand_two_thousand_deep(capsys, flavor, system):
    # every occurrence of f becomes its own fresh variable, bound in order
    assert 2_000 > sys.getrecursionlimit()
    code, out, err = run(capsys, "expand", "--flavor", flavor, TWO_THOUSAND_DEEP)
    assert (code, err) == (0, "")
    fs = [f"f{i}" for i in range(1, 2_001)]
    term = "\\" + " ".join(fs) + " x1. " + " (".join(fs) + " x1" + ")" * 1_999
    lines = out.splitlines()
    assert lines[0].split(" : ")[0] == term
    assert lines[2] == f"derivation ({system}): ok"


def test_infer_nonterminating_term_is_inconclusive(capsys, monkeypatch):
    # Omega repeats its term at the first step, and the message still
    # names the whole budget, not the steps taken
    monkeypatch.delenv("LEXP_FUEL", raising=False)
    code, out, err = run(capsys, "infer", "--system", "intersection", "(\\x. x x)(\\x. x x)")
    assert (code, out, err) == (2, "", "no derivation within fuel 10000")
    monkeypatch.setenv("LEXP_FUEL", "0")
    code, out, err = run(capsys, "infer", "--system", "intersection", "(\\x. x x)(\\x. x x)")
    assert (code, out, err) == (2, "", "no derivation within fuel 0")


TWO_TWO_TWO = " ".join(["(\\f x. f (f x))"] * 3)


def test_infer_two_two_two_prints_a_type(capsys):
    code, out, err = run(capsys, "infer", "--system", "intersection", TWO_TWO_TWO)
    assert code == 0, err
    subject, ty = out.splitlines()[0].split(" : ", 1)
    assert alpha_eq(parse_term(subject), parse_term(TWO_TWO_TWO))
    assert ty.endswith("-> q -> b")


def test_expand_two_two_two(capsys):
    code, out, err = run(capsys, "expand", "--flavor", "aci", TWO_TWO_TWO)
    assert code == 0, err
    assert "derivation (curry): ok" in out.splitlines()


def test_replay_failure_is_inconclusive(capsys, monkeypatch):
    def fail(term, fuel):
        raise ReplayError("path walks into a non-application")

    monkeypatch.setattr("lambda_expand.intersection.infer", fail)
    code, out, err = run(capsys, "infer", "--system", "intersection", "x")
    assert (code, out) == (2, "")
    assert err == "inconclusive: ReplayError: path walks into a non-application"


def test_infer_reports_the_environment(capsys):
    code, out, _ = run(capsys, "infer", "--system", "intersection", "(\\x. x x) z")
    assert code == 0
    env_lines = out.splitlines()[1:]
    assert len(env_lines) == 1 and env_lines[0].strip().startswith("z:")
    assert "&" in env_lines[0]


def test_infer_curry(capsys):
    code, out, _ = run(capsys, "infer", "--system", "curry", "\\x. x")
    assert code == 0 and out == "a -> a"
    code, out, _ = run(capsys, "infer", "--system", "curry", "\\x. x x")
    assert code == 1


def test_infer_fuel_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LEXP_FUEL", "17")
    code, _, err = run(capsys, "infer", "--system", "intersection", "(\\x. x x)(\\x. x x)")
    assert code == 2 and "17" in err
    monkeypatch.setenv("LEXP_FUEL", "many")
    code, _, err = run(capsys, "infer", "--system", "intersection", "\\x. x")
    assert code == 3 and "LEXP_FUEL" in err


def test_a_negative_fuel_is_a_usage_error(capsys, monkeypatch):
    code, out, err = run(capsys, "reduce", "--fuel", "-1", "(\\x. x) y")
    assert (code, out, err) == (3, "", "usage error: --fuel must not be negative")
    monkeypatch.setenv("LEXP_FUEL", "-1")
    code, out, err = run(capsys, "infer", "--system", "intersection", "(\\x. x) y")
    assert (code, out, err) == (3, "", "usage error: LEXP_FUEL must not be negative")
    # no fuel at all stays a budget: the redex is left, so the run is inconclusive
    monkeypatch.setenv("LEXP_FUEL", "0")
    code, _, err = run(capsys, "infer", "--system", "intersection", "(\\x. x) y")
    assert (code, err) == (2, "no derivation within fuel 0")


def test_a_negative_enumeration_size_is_a_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--max-size", "-1")
    assert (code, out, err) == (3, "", "usage error: --max-size must not be negative")
    for corpus in ("open:-1", "closed:-1", "open:-1:typable"):
        code, out, err = run(capsys, "verify", "--corpus", corpus)
        assert (code, out, err) == (3, "", "usage error: corpus size must not be negative")
    # size 0 stays an empty corpus, not an error
    assert run(capsys, "enumerate", "--max-size", "0", "--open") == (0, "", "")
    code, out, _ = run(capsys, "verify", "--corpus", "closed:0", "--props", "inference-replay-checks")
    assert code == 0 and "all-closed-le-0" in out


def test_infer_dot_output(capsys):
    code, out, _ = run(capsys, "infer", "--system", "intersection", "--format", "dot", "\\x. x x")
    assert code == 0
    assert out.startswith("digraph derivation {")


# --------------------------------------------------------------------------
# expand

def test_expand_aci_golden(capsys):
    code, out, _ = run(
        capsys, "expand", "--flavor", "aci", "--type", "a -> a", "(\\x. x x)(\\x. x)"
    )
    assert code == 0
    term_text, ty_text = out.splitlines()[0].rsplit(" : ", 1)
    assert ty_text == "a -> a"
    assert alpha_eq(
        parse_term(term_text), parse_term("(\\x1 x2. x1 x2) (\\x. x) (\\x. x)")
    )
    assert "context: {}" in out
    assert "derivation (curry): ok" in out
    assert "strict derivation (relevant): ok" in out


def test_expand_ac_golden_three_copies(capsys):
    code, out, _ = run(
        capsys, "expand", "--flavor", "ac", "--type", "a -> a",
        "(\\f. f (\\x. x x) (f (\\x.x)))(\\x.x)",
    )
    assert code == 0
    term_text, ty_text = out.splitlines()[0].rsplit(" : ", 1)
    assert ty_text == "a -o a"
    want = parse_term(
        "(\\f1 f2 f3. f1 (\\x1 x2. x1 x2) (f2 (\\x. x)) (f3 (\\x. x)))"
        " (\\x. x) (\\x. x) (\\x. x)"
    )
    assert alpha_eq(parse_term(term_text), want)
    assert "derivation (affine): ok" in out


def test_expand_ordered_golden_context(capsys):
    code, out, _ = run(capsys, "expand", "--flavor", "ordered", "--type", "b", "(\\x. x z) z")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(\\x1. x1 z1) z2 : b"
    assert lines[1] == "context: [z: [z2: a -o_r b, z1: a]]"
    assert lines[2] == "derivation (ordered): ok"


def test_expand_rejects_unmatchable_requested_type(capsys):
    code, _, err = run(capsys, "expand", "--flavor", "aci", "--type", "a -> b", "\\x. x")
    assert code == 1 and "requested type" in err


def test_expand_aci_covers_a_repeated_requested_member(capsys):
    # (a & a) -> a is a -> a under ACI, but not under AC
    code, out, _ = run(capsys, "expand", "--flavor", "aci", "--type", "(a & a) -> a", "\\x. x")
    assert code == 0 and out.splitlines()[0] == "\\x1. x1 : a -> a"
    code, _, err = run(capsys, "expand", "--flavor", "ac", "--type", "(a & a) -> a", "\\x. x")
    assert code == 1 and "requested type" in err


def test_expand_aci_curries_a_repeated_member_once(capsys):
    # both occurrences of x1 have type a, so ACI binds them to one variable
    # and the induced Curry derivation contracts; v's type curries a once
    argv = ("expand", "--flavor", "aci", "--type", "((a & a -> a) -> b) -> b",
            "\\v. v (\\x1. (\\x2. x1) x1)")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "\\v1. v1 (\\x3. (\\x4. x3) x3) : ((a -> a) -> b) -> b"
    assert "derivation (curry): ok" in out
    code, out, _ = run(capsys, *argv, "--format", "dot")
    assert code == 0 and '[label="ctr\\n' in out


def test_expand_aci_keeps_the_requested_spelling(capsys):
    # the match keeps x1's members spelled (a -> a) & a & a, so the last
    # occurrence of x1, at type a, expands to x4; spelled (a -> a) & a &
    # (a -> a), the same type under ACI, it would expand to x3
    code, out, _ = run(capsys, "expand", "--flavor", "aci", "--type",
                       "(a -> a) & a & a -> a", "\\x1. x1 ((\\x2. x1) x1)")
    assert code == 0
    assert out.splitlines()[0] == "\\x3 x4. x3 ((\\x5. x4) x4) : (a -> a) -> a -> a"


POW_3_4 = "(\\f x. f (f (f (f x)))) (\\f x. f (f (f x)))"


@pytest.mark.parametrize("flavor", ["aci", "ac"])
def test_expand_past_the_recursion_limit(capsys, flavor):
    # the induced derivation of 3^4 is 1,632 deep, 1,458 of its nodes ex
    code, out, err = run(capsys, "expand", "--flavor", flavor, POW_3_4)
    assert code == 0 and err == ""
    assert f"derivation ({'curry' if flavor == 'aci' else 'affine'}): ok" in out.splitlines()
    code, out, _ = run(capsys, "expand", "--flavor", flavor, "--format", "dot", POW_3_4)
    assert code == 0 and out.count('[label="ex\\n') == 1458


def test_expand_json_past_the_recursion_limit_is_inconclusive(capsys):
    # the JSON document nests as deep as the derivation
    code, out, err = run(capsys, "expand", "--flavor", "aci", "--format", "json", POW_3_4)
    assert (code, out) == (2, "")
    assert err.startswith("inconclusive: RecursionError") and "\n" not in err


def test_expand_ordered_violation_is_absent_not_a_crash(capsys):
    code, _, err = run(capsys, "expand", "--flavor", "ordered", "\\x1. x1 v1")
    assert code == 1 and "no expansion" in err


@pytest.mark.parametrize(
    "src, message",
    [
        ("v1 (v2 v1)", "appending the contexts interleaves bindings the derivation keeps apart"),
        (
            "\\x1. x1 v1",
            "binder x1: its bindings sit neither at the usable end of the context "
            "nor in the required order",
        ),
    ],
)
def test_expand_ordered_names_the_cause_of_a_refusal(capsys, src, message):
    code, out, err = run(capsys, "expand", "--flavor", "ordered", src)
    assert (code, out, err) == (1, "", f"no expansion: {message}")


def test_expand_reports_an_induced_derivation_it_cannot_build(capsys, monkeypatch):
    def refuse(pf, pa, rule):
        raise ValueError("function part needs Arrow from the argument type")

    monkeypatch.setattr(expansion, "elim", refuse)
    code, out, err = run(capsys, "expand", "--flavor", "aci", "\\x. x x")
    assert (code, out) == (1, "")
    assert err == (
        "no expansion: induced curry derivation cannot be built: "
        "function part needs Arrow from the argument type"
    )


def test_expand_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "expand", "--flavor", "ordered", "--format", "json", "(\\x. x z) z"
    )
    assert code == 0
    r = serialize.loads(out)
    assert isinstance(r, ExpansionResult)
    assert alpha_eq(r.expanded, parse_term("(\\x1. x1 z1) z2"))


# --------------------------------------------------------------------------
# reduce

def test_reduce_prints_the_trace(capsys):
    code, out, _ = run(capsys, "reduce", "(\\x. x x) (\\y. y)")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[-1] == "[normal-form after 2 steps]"
    assert alpha_eq(parse_term(lines[-2].removeprefix("-> ")), parse_term("\\y. y"))


def test_reduce_fuel_exhaustion_is_inconclusive(capsys):
    code, out, _ = run(capsys, "reduce", "--fuel", "5", "(\\x. x x) (\\x. x x)")
    assert code == 2
    assert out.endswith("[fuel-exhausted after 5 steps]")


def test_reduce_runs_a_repeating_term_to_its_fuel(capsys, monkeypatch):
    # unlike infer, reduce keeps no checkpoint: every step is printed
    monkeypatch.delenv("LEXP_FUEL", raising=False)
    code, out, _ = run(capsys, "reduce", "(\\x. x x) (\\x. x x)")
    assert code == 2
    assert out.endswith("[fuel-exhausted after 10000 steps]")
    assert out.count("\n-> ") == 10_000


def test_reduce_weak_head_stops_under_binders(capsys):
    code, out, _ = run(capsys, "reduce", "--strategy", "weak-head", "\\z. (\\x. x) z")
    assert code == 0
    assert "[weak-head-nf after 0 steps]" in out


def test_parse_and_reduce_a_term_ten_thousand_deep(capsys):
    deep = "f (" * 10_000 + "(\\x. x) y" + ")" * 10_000
    assert 10_000 > sys.getrecursionlimit()
    code, out, _ = run(capsys, "parse", "(" * 10_000 + deep + ")" * 10_000)
    assert (code, out) == (0, deep)
    code, out, _ = run(capsys, "reduce", deep)
    assert code == 0
    done = "f (" * 9_999 + "f y" + ")" * 9_999
    assert out.splitlines() == [deep, "-> " + done, "[normal-form after 1 steps]"]


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "--format", "json", "(\\x. x) y")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == serialize.SCHEMA
    assert doc["status"] == "normal-form"
    assert doc["steps"] == ["y"]


# --------------------------------------------------------------------------
# enumerate and verify

def test_enumerate_lists_every_small_term(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-size", "3", "--open")
    assert code == 0
    assert len(out.splitlines()) == 8  # 1 + 2 + 5 alpha classes
    assert out.splitlines()[0] == "v1"


def test_enumerate_beyond_the_cap_is_a_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--max-size", "10")
    assert code == 3 and "cap" in err


def test_verify_summary_and_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--corpus", "open:4",
        "--props", "expansion-checks-aci,whd-diagram-ac",
    )
    assert code == 0
    assert "expansion-checks-aci" in out and "whd-diagram-ac" in out
    assert "all-open-le-4" in out


def test_verify_reports_a_raising_property_as_a_failure(capsys, monkeypatch):
    def fail(term):
        raise ReplayError("cannot rewrite the type of a non-spine function")

    monkeypatch.setitem(PROPERTIES, "whd-diagram-ac", fail)
    code, out, err = run(
        capsys, "verify", "--corpus", "open:1", "--props", "expansion-checks-aci,whd-diagram-ac",
    )
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert any(line.startswith("expansion-checks-aci") for line in lines)
    assert lines[-1] == (
        "FAIL whd-diagram-ac: v1 -- ReplayError: cannot rewrite the type of a non-spine function"
    )


def test_verify_json_reports(capsys):
    code, out, _ = run(
        capsys, "verify", "--corpus", "closed:4", "--props", "linear-leftmost-steps-bounded",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["property"] == "linear-leftmost-steps-bounded"
    assert doc["reports"][0]["passed"] is True


def test_verify_rejects_unknown_bits(capsys):
    code, _, err = run(capsys, "verify", "--props", "no-such-claim")
    assert code == 3 and "no-such-claim" in err
    code, _, err = run(capsys, "verify", "--corpus", "sideways:4")
    assert code == 3 and "corpus" in err
    code, _, err = run(capsys, "verify", "--corpus", "open:4:bogus")
    assert code == 3 and "filter" in err


@pytest.mark.parametrize("props", ["", ",", " , "])
def test_verify_rejects_a_property_list_that_names_none(capsys, props):
    code, out, err = run(capsys, "verify", "--corpus", "closed:1", "--props", props)
    assert (code, out) == (3, "")
    assert err == f"usage error: --props {props!r} names no property"


def test_importing_the_cli_leaves_the_property_matrix_unloaded():
    # only verify and enumerate need it; the other subcommands start without
    src = os.path.dirname(os.path.dirname(lambda_expand.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, lambda_expand.cli; print('lambda_expand.verify' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr


def test_parse_runs_without_inference_expansion_or_serialization():
    # the subcommands that need them import serialize, expansion and
    # intersection themselves
    src = os.path.dirname(os.path.dirname(lambda_expand.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = (
        "import sys; from lambda_expand.cli import main; code = main(['parse', 'x']); "
        "print(code, [m for m in ('serialize', 'expansion', 'intersection', 'verify')"
        " if 'lambda_expand.' + m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "x\n0 []\n"), done.stderr


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 3 and "usage error" in err


# --------------------------------------------------------------------------
# the parser, built once per process

# the README's worked examples, each as the argv of one `lexp` command
README_EXAMPLES = (
    ["parse", "λx. x x"],
    ["reduce", "(\\x. x x) (\\y. y)"],
    ["check", "--system", "linear", "\\x. \\y. x"],
    ["check", "--system", "ordered", "--basis", "z1: a -o_r b, z2: a", "--type", "b",
     "(\\x. x z2) z1"],
    ["check", "--system", "curry", "--basis", "x: a", "--type", "b -> b", "\\x. x"],
    ["infer", "--system", "intersection", "\\x. x x"],
    ["infer", "--system", "intersection", "(\\x. x x)(\\x. x x)"],
    ["expand", "--flavor", "aci", "--type", "a -> a", "(\\x. x x)(\\x. x)"],
    ["expand", "--flavor", "ordered", "--type", "b", "(\\x. x z) z"],
    ["enumerate", "--max-size", "3", "--open"],
    ["verify", "--corpus", "open:5"],
    ["verify", "--corpus", "closed:7", "--props", "linear-decision-matches-term-class",
     "--format", "json"],
)


def test_every_call_shares_one_parser():
    assert _build_parser() is _build_parser()


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    first = [run(capsys, *argv) for argv in README_EXAMPLES]
    assert [code for code, _, _ in first] == [0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert run(capsys, "reduce", "--strategy", "normal", "x")[0] == 3
    assert run(capsys, "parse", "\\x.")[0] == 3
    assert [run(capsys, *argv) for argv in README_EXAMPLES] == first


def test_an_option_does_not_carry_over_to_the_next_call(capsys):
    code, out, _ = run(capsys, "reduce", "--fuel", "1", "(\\x. x x) (\\x. x x)")
    assert (code, out.splitlines()[-1]) == (2, "[fuel-exhausted after 1 steps]")
    code, out, _ = run(capsys, "reduce", "(\\x. x x) (\\x. x x)")
    assert (code, out.splitlines()[-1]) == (2, "[fuel-exhausted after 10000 steps]")

    assert json.loads(run(capsys, "parse", "--format", "json", "x")[1])["schema"]
    assert run(capsys, "parse", "x") == (0, "x", "")


def test_main_leaves_no_parser_garbage(capsys):
    main(["parse", "x"])  # builds the shared parser
    gc.collect()
    main(["parse", "x"])
    assert gc.collect() == 0


def test_a_type_parse_leaves_no_reference_cycle(capsys):
    argv = ["check", "--system", "ordered", "--basis", "z1: a -o_r b, z2: a",
            "--type", "b", "(\\x. x z2) z1"]
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0
