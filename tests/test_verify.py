"""Corpus enumeration, the property matrix, and the cross-module identities.

The expected term counts come from a size/depth/free-name recurrence that
shares no code with the enumerator: a size-one term is a variable drawn
from the binders in scope or a free name (either one already introduced or
the next new one), an abstraction adds a binder, and an application splits
the remaining size, threading the free-name count left to right.  The
numbers in ``FROZEN_*`` were computed from that recurrence and frozen; the
enumerator must reproduce them exactly.  Together with pairwise
alpha-distinctness this certifies the enumeration is exhaustive: it emits
the right number of terms and no two of them name the same class.
"""

import copy
import hashlib
import json
from collections import Counter
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_expand import expansion, intersection, systems, typelang, verify
from lambda_expand.expansion import ExpansionError, expand
from lambda_expand.intersection import InterDerivation, infer
from lambda_expand.reduction import Strategy, reduce
from lambda_expand.systems import Derivation
from lambda_expand.syntax import parse_term, render_term
from lambda_expand.terms import Abs, App, Var, classify, count_free_occurrences, de_bruijn, free_vars, size
from lambda_expand.typelang import Flavor, TVar, InterArrow
from lambda_expand.verify import (
    CAP,
    CapExceeded,
    FILTERS,
    PROPERTIES,
    Corpus,
    Facts,
    collapse_distributes,
    enumerate_environments,
    enumerate_terms,
    enumerate_types,
    enumerated_corpus,
    env_union_distributes,
    golden_corpus,
    reports_to_json,
    run_matrix,
    substitution_composes,
    summarize,
)

import pytest


# --------------------------------------------------------------------------
# counting oracle (no code shared with the enumerator)

@lru_cache(None)
def _closed_count(s: int, d: int = 0) -> int:
    if s == 1:
        return d
    total = _closed_count(s - 1, d + 1)
    for i in range(1, s - 1):
        total += _closed_count(i, d) * _closed_count(s - 1 - i, d)
    return total


@lru_cache(None)
def _open_dist(s: int, d: int, f: int) -> tuple[tuple[int, int], ...]:
    """Distribution of the free-name counter after a term of size s under
    d binders, having already introduced f free names."""
    if s == 1:
        out = {}
        if d + f:
            out[f] = d + f
        out[f + 1] = out.get(f + 1, 0) + 1
        return tuple(sorted(out.items()))
    out = {}
    for fo, c in _open_dist(s - 1, d + 1, f):
        out[fo] = out.get(fo, 0) + c
    for i in range(1, s - 1):
        for g, c1 in _open_dist(i, d, f):
            for fo, c2 in _open_dist(s - 1 - i, d, g):
                out[fo] = out.get(fo, 0) + c1 * c2
    return tuple(sorted(out.items()))


def _open_count(s: int) -> int:
    return sum(c for _, c in _open_dist(s, 0, 0))


FROZEN_CLOSED = [0, 1, 2, 4, 13, 42, 139, 506, 1915]
FROZEN_OPEN = [1, 2, 5, 15, 52, 193, 765, 3194, 13948]


def test_recurrence_reproduces_frozen_counts():
    assert [_closed_count(s) for s in range(1, 10)] == FROZEN_CLOSED
    assert [_open_count(s) for s in range(1, 10)] == FROZEN_OPEN


def test_enumerator_matches_oracle_closed():
    sofar = 0
    for s in range(1, 10):
        got = len(enumerate_terms(s))
        assert got - sofar == FROZEN_CLOSED[s - 1], f"size {s}"
        sofar = got


def test_enumerator_matches_oracle_open():
    sofar = 0
    for s in range(1, 10):
        got = len(enumerate_terms(s, closed_only=False))
        assert got - sofar == FROZEN_OPEN[s - 1], f"size {s}"
        sofar = got


def test_enumerated_terms_are_alpha_distinct():
    ts = enumerate_terms(6, closed_only=False)
    assert len({de_bruijn(t) for t in ts}) == len(ts)


def test_enumeration_golden_smallest():
    assert enumerate_terms(1) == []
    assert enumerate_terms(2) == [Abs("x1", Var("x1"))]
    assert [render_term(t) for t in enumerate_terms(2, closed_only=False)] == [
        "v1",
        "\\x1. x1",
        "\\x1. v1",
    ]


def test_enumeration_respects_the_cap():
    assert CAP == 9
    with pytest.raises(CapExceeded):
        enumerate_terms(CAP + 1)


def test_closed_enumeration_is_closed_and_sized():
    for t in enumerate_terms(5):
        assert not free_vars(t)
        assert size(t) <= 5
    for t in enumerate_terms(5, closed_only=False):
        assert size(t) <= 5


def test_open_enumeration_contains_the_closed_one():
    openset = {de_bruijn(t) for t in enumerate_terms(5, closed_only=False)}
    for t in enumerate_terms(5):
        assert de_bruijn(t) in openset


# --------------------------------------------------------------------------
# type and environment enumeration

def test_type_enumeration_counts():
    a, b = TVar("a"), TVar("b")
    assert enumerate_types(1, 3, ("a", "b")) == [a, b]
    # one growth round: 2 atoms + arrows with 1..n atom members and atom cod
    assert len(enumerate_types(2, 2, ("a", "b"))) == 2 + (2 + 4) * 2
    assert len(enumerate_types(2, 3, ("a", "b"))) == 2 + (2 + 4 + 8) * 2
    assert InterArrow((a, b), a) in enumerate_types(2, 2, ("a", "b"))


def test_environment_enumeration_counts():
    types = [TVar("a"), TVar("b")]
    envs = list(enumerate_environments(("x", "y"), types, 2))
    # per variable: absent, 2 singletons, 4 pairs
    assert len(envs) == 7 * 7
    assert {} in envs
    assert all(1 <= len(ms) <= 2 for env in envs for ms in env.values())


# --------------------------------------------------------------------------
# corpora

def test_corpus_filters_nest():
    linear = {de_bruijn(t) for t in enumerated_corpus(5, keep="linear").terms}
    affine = {de_bruijn(t) for t in enumerated_corpus(5, keep="affine").terms}
    assert linear <= affine
    assert FILTERS["lambda-i"](parse_term("\\x. x x"))
    assert not FILTERS["lambda-i"](parse_term("\\x. \\y. x"))


def test_golden_corpus_keeps_order():
    ts = [parse_term("\\x. x"), parse_term("\\x. x x")]
    corpus = golden_corpus("demo", ts)
    assert corpus.name == "demo"
    assert list(corpus.terms) == ts
    assert len(corpus) == 2


# --------------------------------------------------------------------------
# the matrix

def test_run_matrix_is_deterministic():
    corpus = enumerated_corpus(4, closed_only=False)
    assert run_matrix(corpus, ["expansion-checks-aci"]) == run_matrix(
        corpus, ["expansion-checks-aci"]
    )


def test_run_matrix_rejects_unknown_properties():
    with pytest.raises(KeyError):
        run_matrix(golden_corpus("x", []), ["no-such-claim"])


def test_a_raising_property_fails_that_subject_and_the_run_goes_on(monkeypatch):
    def replay_breaks_on_x(facts):
        if facts.term == Var("x"):
            raise RuntimeError("replay broke")
        return "ok", ""

    monkeypatch.setitem(PROPERTIES, "expansion-checks-aci", replay_breaks_on_x)
    corpus = golden_corpus("demo", [parse_term("x"), parse_term("\\y. y")])
    report, after = run_matrix(corpus, ["expansion-checks-aci", "expansion-checks-ac"])
    assert [v.status for v in report.verdicts] == ["fail", "ok"]
    assert report.failures()[0].note == "RuntimeError: replay broke"
    assert after.ok and after.tally("ok") == 2
    # the JSON keeps its shape: the exception is an ordinary failure
    (data,) = json.loads(reports_to_json([report]))["reports"]
    assert data["failures"] == [{"term": "x", "note": "RuntimeError: replay broke"}]
    assert data["ok"] == 1 and data["passed"] is False


# The known matrix defects at size 7, by name (ROADMAP, "Defects"): the two
# smallest terms that show them and every verdict they fail.  A change that
# mends one of them removes it here.
NO_MATCHING_REDUCT = "no beta reduct matches the expanded target with equal context"
NON_SPINE_REPLAY = "ReplayError: cannot rewrite the type of a non-spine function"
KNOWN_FAILURES = {
    ("beta-diagram-li-aci", "\\x1. (\\x2. x2 x1) x1"): NO_MATCHING_REDUCT,
    ("beta-diagram-li-ac", "\\x1. (\\x2. x2 x1) x1"): NO_MATCHING_REDUCT,
    ("beta-diagram-unrestricted-aci", "\\x1. (\\x2. x2 x1) x1"): NO_MATCHING_REDUCT,
    ("beta-diagram-unrestricted-ac", "\\x1. (\\x2. x2 x1) x1"): NO_MATCHING_REDUCT,
    ("beta-diagram-unrestricted-aci", "(\\x1. (\\x2. x1) x1) v1"): NON_SPINE_REPLAY,
    ("beta-diagram-unrestricted-ac", "(\\x1. (\\x2. x1) x1) v1"): NON_SPINE_REPLAY,
}


def test_matrix_fails_exactly_the_known_defects():
    subjects = sorted({term for _, term in KNOWN_FAILURES})
    reports = run_matrix(golden_corpus("known-defects", map(parse_term, subjects)))
    got = {
        (r.prop, render_term(v.subject)): v.note for r in reports for v in r.failures()
    }
    assert got == KNOWN_FAILURES


def test_matrix_full_sweep_has_no_failures_on_small_terms():
    reports = run_matrix(enumerated_corpus(5, closed_only=False))
    assert set(r.prop for r in reports) == set(PROPERTIES)
    for r in reports:
        assert r.ok, f"{r.prop}: {r.failures()[0]}"


# sha256 of the JSON reports of every property over every open term up to
# size 6.  A refactor leaves every verdict and note as it is; a change that
# mends a defect updates the digest.
MATRIX_TO_SIZE_6 = "79070aae79f9cc721d236c90e6702ce522e59228eda39d47315130aa3553b55e"


def test_matrix_reports_to_size_6_are_pinned():
    text = reports_to_json(run_matrix(enumerated_corpus(6, closed_only=False)))
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_TO_SIZE_6


def test_diagrams_close_when_a_step_respells_the_untouched_side():
    # beta_step respells the untouched argument \y1. y1 of the first step
    subject = parse_term("(\\x. x x) (\\y. y) (\\y1. y1)")
    for pid in ("whd-diagram-aci", "whd-diagram-ac", "beta-diagram-li-aci",
                "beta-diagram-li-ac", "beta-diagram-li-ordered"):
        assert PROPERTIES[pid](subject) == ("ok", ""), pid


def test_a_refused_ordered_expansion_is_an_order_violation_in_the_beta_diagram():
    # typable and lambda-I, but no ordered expansion fits: the diagram has
    # no source expansion to start from, as expansion-checks-ordered reports
    subject = parse_term("\\x1. x1 v1")
    verdict = PROPERTIES["beta-diagram-li-ordered"](subject)
    assert verdict == PROPERTIES["expansion-checks-ordered"](subject)
    assert verdict[0] == "collected" and verdict[1].startswith("order violation: ")


def test_weak_head_chain_expands_each_derivation_once(monkeypatch):
    real = expansion.expand
    calls = []
    refuse = False

    def counted(d, flavor, *args, **kwargs):
        calls.append(d)
        if len(calls) == 2 and refuse:
            raise ExpansionError("second expansion refused")
        return real(d, flavor, *args, **kwargs)

    monkeypatch.setattr(verify, "expand", counted)
    monkeypatch.setattr(expansion, "expand", counted)
    # no weak-head step: nothing to expand
    assert PROPERTIES["whd-diagram-ac"](parse_term("\\x. x")) == ("ok", "")
    assert calls == []
    # the record's expansion heads the chain, then one per reduct
    two_steps = parse_term("(\\x. x) (\\y. y) z")
    assert PROPERTIES["whd-diagram-ac"](two_steps) == ("ok", "")
    assert len(calls) == 3
    # a failed expansion fails its step and ends the chain
    calls.clear()
    refuse = True
    assert PROPERTIES["whd-diagram-ac"](two_steps) == ("fail", "second expansion refused")
    assert len(calls) == 2


def test_matrix_infers_each_subject_once_and_draws_each_beta_diagram_once(monkeypatch):
    inferred, diagrams = [], []
    # each inferred or checked derivation by id, held so that no other
    # object takes its id
    derived = {}
    checked, rechecked = {}, []
    expanded = Counter()
    real_infer, real_diagram = verify.infer, verify.verify_beta_diagram_lambdai
    real_expand, real_check = expansion.expand, expansion.check_derivation

    def counted_infer(t, *args, **kwargs):
        inferred.append(t)
        d = real_infer(t, *args, **kwargs)
        derived[id(d)] = (t, d)
        return d

    def counted_diagram(d, source, flavor, *args, **kwargs):
        diagrams.append((d.subject, flavor))
        return real_diagram(d, source, flavor, *args, **kwargs)

    def counted_expand(d, flavor, *args, **kwargs):
        if id(d) in derived:
            expanded[derived[id(d)][0], flavor] += 1
        return real_expand(d, flavor, *args, **kwargs)

    def counted_check(d):
        if id(d) in checked:
            rechecked.append(render_term(d.subject))
        checked[id(d)] = d
        return real_check(d)

    monkeypatch.setattr(verify, "infer", counted_infer)
    monkeypatch.setattr(verify, "verify_beta_diagram_lambdai", counted_diagram)
    monkeypatch.setattr(verify, "expand", counted_expand)
    monkeypatch.setattr(expansion, "expand", counted_expand)
    monkeypatch.setattr(verify, "check_derivation", counted_check)
    monkeypatch.setattr(expansion, "check_derivation", counted_check)
    corpus = enumerated_corpus(5, closed_only=False)
    reports = run_matrix(corpus)
    assert inferred == list(corpus.terms)
    assert diagrams and len(diagrams) == len(set(diagrams))
    # a subject's derivation expands once per flavor for the whole record,
    # the weak-head chain included, and a refusal is held, not worked out again
    assert expanded and checked and rechecked == []
    assert set(expanded.values()) == {1}
    refused = {
        v.subject for r in reports if r.prop == "expansion-checks-ordered"
        for v in r.collected()
    }
    assert refused and all((u, Flavor.A) in expanded for u in refused)


def test_matrix_walks_each_derivation_once_per_check(monkeypatch):
    # a walk, not a call: the checks share typelang.check_tree, which
    # returns at once for a root that has passed under the same key
    walks = Counter()
    held = {}  # every walked root by id, so that no other object takes its id
    real_tree = typelang.check_tree

    def counted_tree(root, check, key):
        walked = []

        def counted(n):
            walked.append(n)
            return check(n)

        res = real_tree(root, counted, key)
        if walked:
            held[id(root)] = root
            walks[id(root), key] += 1
        return res

    monkeypatch.setattr(intersection, "check_tree", counted_tree)
    monkeypatch.setattr(systems, "check_tree", counted_tree)
    run_matrix(enumerated_corpus(7, closed_only=False))
    # check_inter replays under A first, and a pass there is a pass under
    # every flavor, so an intersection derivation is walked under one key
    inter = Counter()
    for (i, key), n in walks.items():
        if isinstance(held[i], InterDerivation):
            inter[i] += n
    built = [n for (i, key), n in walks.items() if isinstance(held[i], Derivation)]
    assert len(inter) > 2000 and len(built) > 5000
    # at most once per intersection derivation across all flavors, and
    # once per built derivation
    assert set(inter.values()) == {1} and set(built) == {1}


def test_a_bare_term_gets_the_verdict_the_matrix_gives():
    # the benchmark calls each property on a bare term, one pair at a time
    corpus = enumerated_corpus(4, closed_only=False)
    for report in run_matrix(corpus):
        prop = PROPERTIES[report.prop]
        for v in report.verdicts:
            assert prop(v.subject) == (v.status, v.note), (report.prop, v.subject)


def test_no_property_changes_a_shared_expansion():
    corpus = enumerated_corpus(5, closed_only=False)
    for t in corpus.terms:
        facts = Facts(t)
        if facts.derivation is None:
            continue
        flavors = [Flavor.ACI, Flavor.AC]
        if facts.term_class.is_lambda_i:
            flavors.append(Flavor.A)
        before = {}
        for flavor in flavors:
            try:
                before[flavor] = copy.deepcopy(facts.expansion(flavor))
            except ExpansionError:
                pass
        for prop in PROPERTIES.values():
            prop(facts)
        assert {f: facts.expansion(f) for f in before} == before, t


def test_summary_table_lists_every_property():
    reports = run_matrix(enumerated_corpus(3, closed_only=False))
    table = summarize(reports)
    for pid in PROPERTIES:
        assert pid in table
    assert "fail" in table.splitlines()[0]


def test_reports_serialize_to_json():
    reports = run_matrix(
        golden_corpus("demo", [parse_term("(\\x. x x) (\\x. x)")]),
        ["expansion-checks-aci", "beta-diagram-li-aci"],
    )
    data = json.loads(reports_to_json(reports))
    assert [r["property"] for r in data["reports"]] == [
        "expansion-checks-aci",
        "beta-diagram-li-aci",
    ]
    assert all(r["passed"] and r["instances"] == 1 for r in data["reports"])


def test_negative_control_is_collected_not_failed():
    control = parse_term("\\x. (\\y. z) x x")
    for pid in ("beta-diagram-unrestricted-aci", "beta-diagram-unrestricted-ac"):
        (report,) = run_matrix(golden_corpus("control", [control]), [pid])
        assert report.ok
        assert len(report.collected()) == 1
    # the same step closes nowhere, so the lambda-I property must stay vacuous
    (li,) = run_matrix(golden_corpus("control", [control]), ["beta-diagram-li-aci"])
    assert li.tally("vacuous") == 1


def test_omega_is_untypable_and_nonterminating_consistently():
    omega = parse_term("(\\x. x x) (\\x. x x)")
    (report,) = run_matrix(
        golden_corpus("omega", [omega]), ["typable-iff-leftmost-normalizes"]
    )
    assert report.ok and report.tally("ok") == 1
    (whd,) = run_matrix(golden_corpus("omega", [omega]), ["whd-diagram-aci"])
    assert whd.tally("vacuous") == 1


# --------------------------------------------------------------------------
# documented edge: duplication can outnumber occurrences

def test_duplicated_argument_draws_more_variables_than_occurrences():
    """An argument shared across a binder's copies is drawn once per copy,
    so an owner occurring once in the subject can still own several drawn
    variables.  Only the direction draws >= occurrences is a law; the
    matrix checks exactly that."""
    t = parse_term("(\\x. x x) z")
    d = infer(t)
    r = expand(d, Flavor.AC)
    assert count_free_occurrences(d.subject, "z") == 1
    assert len(r.context.groups["z"]) == 2
    ordered = expand(d, Flavor.A)
    assert sum(len(g) for v, g in ordered.context.groups if v == "z") == 2
    for pid in ("expansion-occurrences-ac", "expansion-occurrences-ordered"):
        (report,) = run_matrix(golden_corpus("dup", [t]), [pid])
        assert report.ok and report.tally("ok") == 1


# --------------------------------------------------------------------------
# context-algebra identities

_POOL = enumerate_types(2, 2, ("a", "b"))[:6]


def _single_var_envs():
    return list(enumerate_environments(("x",), _POOL, 2))


def test_union_distribution_exhaustive_single_variable():
    envs = _single_var_envs()
    assert len(envs) == 1 + 6 + 36
    for g1 in envs:
        for g2 in envs:
            ok, note = env_union_distributes(g1, g2)
            assert ok, (g1, g2, note)
            ok, note = collapse_distributes(g1, g2)
            assert ok, (g1, g2, note)


def test_union_distribution_across_variables():
    small = [TVar("a"), InterArrow((TVar("a"),), TVar("b"))]
    envs = list(enumerate_environments(("x", "y", "z"), small, 1))
    assert len(envs) == 3 ** 3
    for g1 in envs:
        for g2 in envs:
            ok, note = env_union_distributes(g1, g2)
            assert ok, (g1, g2, note)
            ok, note = collapse_distributes(g1, g2)
            assert ok, (g1, g2, note)


_env_strategy = st.dictionaries(
    st.sampled_from(["x", "y", "z"]),
    st.lists(st.sampled_from(enumerate_types(2, 3, ("a", "b"))), min_size=1, max_size=3).map(tuple),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(_env_strategy, _env_strategy)
def test_union_distribution_random_environments(g1, g2):
    ok, note = env_union_distributes(g1, g2)
    assert ok, note
    ok, note = collapse_distributes(g1, g2)
    assert ok, note


# --------------------------------------------------------------------------
# substitution composition

def test_substitution_composes_on_worked_redexes():
    cases = {
        "(\\x. x x) z": {"aci": "ok", "ac": "ok", "a": "ok"},
        "(\\x. x x) (\\y. y)": {"aci": "ok", "ac": "ok", "a": "ok"},
        "(\\x. x z) z": {"aci": "ok", "ac": "ok", "a": "ok"},
        "(\\f. f (f z)) (\\y. y)": {"aci": "ok", "ac": "ok", "a": "ok"},
        # vacuous binder: the argument's drawn variables must vanish
        "(\\x. y) z": {"aci": "ok", "ac": "ok", "a": "vacuous"},
        # the body's own ordered expansion hits the interleaving edge
        "(\\x. x z x) w": {"aci": "ok", "ac": "ok", "a": "collected"},
    }
    flavors = {"aci": Flavor.ACI, "ac": Flavor.AC, "a": Flavor.A}
    for src, wanted in cases.items():
        t = parse_term(src)
        for label, flavor in flavors.items():
            status, note = substitution_composes(t, flavor)
            assert status == wanted[label], (src, label, status, note)


def test_substitution_is_vacuous_off_redexes():
    for src in ("\\x. x", "z (\\x. x)", "x y"):
        status, _ = substitution_composes(parse_term(src), Flavor.ACI)
        assert status == "vacuous"


def test_substitution_composes_across_all_small_redexes():
    redexes = [
        t
        for t in enumerate_terms(6, closed_only=False)
        if isinstance(t, App) and isinstance(t.fun, Abs)
    ]
    assert len(redexes) == 48
    tally = {"ok": 0, "vacuous": 0, "collected": 0, "fail": 0}
    for t in redexes:
        for flavor in (Flavor.ACI, Flavor.AC, Flavor.A):
            status, note = substitution_composes(t, flavor)
            tally[status] += 1
            assert status != "fail", (render_term(t), flavor, note)
    assert tally["ok"] >= 100


# --------------------------------------------------------------------------
# step-bound spot checks

def test_linear_step_bound_spot():
    t = parse_term("(\\x. x) ((\\y. y) z)")
    assert classify(t).is_linear
    r = reduce(t, Strategy.LEFTMOST)
    assert r.status == "normal-form"
    assert len(r.trace) <= size(t)
    (report,) = run_matrix(
        golden_corpus("lin", [t, parse_term("\\x. x x")]),
        ["linear-leftmost-steps-bounded"],
    )
    assert report.ok
    assert report.tally("vacuous") == 1  # the non-linear subject
