"""Checker and decision procedures for the five basic systems."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_expand import serialize, systems
from lambda_expand.expansion import ExpansionError, expand
from lambda_expand.intersection import _icheck_node, check_inter, infer
from lambda_expand.syntax import (
    parse_linear_type,
    parse_ordered_type,
    parse_simple_type,
    parse_term,
    render_term,
)
from lambda_expand.systems import (
    CONNECTIVE,
    STRUCTURAL,
    CheckResult,
    Derivation,
    SizeBoundExceeded,
    System,
    check_derivation,
    check_ordered,
    decide,
    infer_curry,
    infer_ordered,
    permute_basis,
    relabel,
)
from lambda_expand.terms import (
    Abs,
    App,
    FreshSupply,
    Var,
    canonicalize,
    free_vars,
    occurrence_counts,
    rename_free,
)
from lambda_expand.typelang import Arrow, Basis, Flavor, Lolli, LolliL, LolliR, TVar, fold, preorder
from lambda_expand.verify import enumerate_terms


def t(src):
    return parse_term(src)


def sty(src):
    return parse_simple_type(src)


def oty(src):
    return parse_ordered_type(src)


A = TVar("a")
B = TVar("b")


# --- ordered typability: the two-variable application probe ----------------
# (\x. x z2) z1 with z1 a function and z2 its argument.  Whether the
# judgement holds depends on both the arrow's orientation and the order
# of the basis: two of the four combinations are derivable, two are not.

PROBE = t("(\\x. x z2) z1")


def test_ordered_right_function_first_is_valid():
    basis = Basis((("z1", oty("a -o_r b")), ("z2", A)))
    assert check_ordered(basis, PROBE, B)


def test_ordered_left_function_last_is_valid():
    basis = Basis((("z2", A), ("z1", oty("a -o_l b"))))
    assert check_ordered(basis, PROBE, B)


def test_ordered_right_function_last_is_invalid():
    basis = Basis((("z2", A), ("z1", oty("a -o_r b"))))
    assert not check_ordered(basis, PROBE, B)


def test_ordered_left_function_first_is_invalid():
    basis = Basis((("z1", oty("a -o_l b")), ("z2", A)))
    assert not check_ordered(basis, PROBE, B)


def test_ordered_no_contraction():
    assert not check_ordered(Basis(()), t("\\x. x x"), oty("(a -o_r a) -o_r a"))


def test_ordered_no_weakening():
    assert not check_ordered(Basis((("z", A),)), t("\\x. z"), oty("b -o_r a"))


def test_ordered_identity_both_orientations():
    assert check_ordered(Basis(()), t("\\x. x"), oty("a -o_r a"))
    assert check_ordered(Basis(()), t("\\x. x"), oty("a -o_l a"))


def test_ordered_flip_needs_left_arrow():
    # \x y. y x applies the later binder to the earlier one; the inner
    # function position must take its argument from the left.
    flip = t("\\x y. y x")
    assert check_ordered(Basis(()), flip, oty("a -o_r (a -o_l b) -o_r b"))
    assert not check_ordered(Basis(()), flip, oty("a -o_r (a -o_r b) -o_r b"))


def test_ordered_budget():
    with pytest.raises(SizeBoundExceeded):
        check_ordered(Basis(()), t("\\x. x"), oty("a -o_r a"), budget=1)


def test_infer_ordered_golden():
    basis = Basis((("z2", oty("a -o_r b")), ("z1", A)))
    assert infer_ordered(basis, t("(\\x1. x1 z1) z2")) == B


def test_infer_ordered_fresh_names_avoid_nested_basis_variables():
    basis = Basis((("x", oty("a -o_r b")),))
    assert infer_ordered(basis, t("\\f. f x")) == oty("((a -o_r b) -o_l c) -o_r c")


def test_infer_ordered_exhausted():
    assert infer_ordered(Basis(()), t("\\x. x x")) is None


# --- explicit ordered derivations ------------------------------------------


def ordered_probe_derivation():
    """z2: a -o_r b, z1: a |- (\\x1. x1 z1) z2 : b, built rule by rule."""
    f = oty("a -o_r b")
    ax_x1 = Derivation(System.ORDERED, "ax", Basis((("x1", f),)), Var("x1"), f)
    ax_z1 = Derivation(System.ORDERED, "ax", Basis((("z1", A),)), Var("z1"), A)
    body = Derivation(
        System.ORDERED,
        "arrow_e_r",
        Basis((("x1", f), ("z1", A))),
        App(Var("x1"), Var("z1")),
        B,
        (ax_x1, ax_z1),
    )
    lam = Derivation(
        System.ORDERED,
        "arrow_i_l",
        Basis((("z1", A),)),
        Abs("x1", App(Var("x1"), Var("z1"))),
        LolliL(f, B),
        (body,),
    )
    ax_z2 = Derivation(System.ORDERED, "ax", Basis((("z2", f),)), Var("z2"), f)
    return Derivation(
        System.ORDERED,
        "arrow_e_l",
        Basis((("z2", f), ("z1", A))),
        App(lam.subject, Var("z2")),
        B,
        (lam, ax_z2),
    )


def test_ordered_derivation_checks():
    d = ordered_probe_derivation()
    assert check_derivation(d)
    # the search agrees with the explicit tree
    assert check_ordered(d.basis, d.subject, d.ty)


def test_ordered_derivation_wrong_basis_order_rejected():
    d = ordered_probe_derivation()
    flipped = Derivation(
        d.system, d.rule, Basis((d.basis.entries[1], d.basis.entries[0])),
        d.subject, d.ty, d.premises,
    )
    res = check_derivation(flipped)
    assert not res and res.path == ()


def _replaced_at(d, path, replace):
    """d with the node n at `path` replaced by replace(n)."""
    if not path:
        return replace(d)
    premises = list(d.premises)
    premises[path[0]] = _replaced_at(premises[path[0]], path[1:], replace)
    return dataclasses.replace(d, premises=tuple(premises))


def _retyped_at(d, path):
    """d with the node at `path` given the type zz."""
    return _replaced_at(d, path, lambda n: dataclasses.replace(n, ty=TVar("zz")))


def test_a_failure_three_levels_deep_has_the_same_path_under_both_checkers():
    # arrow_i, arrow_i, arrow_e, then the axiom for x, in both derivations
    term = t("\\f x. f x")
    path = (0, 0, 1)
    simple = decide(System.CURRY, term)
    inter = infer(term)
    assert check_derivation(simple) and check_inter(inter)
    got = check_derivation(_retyped_at(simple, path))
    assert not got and got.path == path
    got = check_inter(_retyped_at(inter, path), Flavor.A)
    assert not got and got.path == path


def _swapped(d, times):
    """d under `times` ex nodes, each swapping its two basis entries."""
    for _ in range(times):
        d = Derivation(d.system, "ex", Basis(d.basis.entries[::-1]), d.subject, d.ty, (d,))
    return d


def test_exchange_chain_past_the_recursion_limit():
    f = Lolli(A, B)
    ax_x = Derivation(System.LINEAR, "ax", Basis((("x", f),)), Var("x"), f)
    ax_y = Derivation(System.LINEAR, "ax", Basis((("y", A),)), Var("y"), A)

    def applied(fun):
        basis = Basis(fun.basis.entries + ax_y.basis.entries)
        return Derivation(System.LINEAR, "arrow_e", basis, t("x y"), B, (fun, ax_y))

    assert check_derivation(_swapped(applied(ax_x), 5000))
    bad = applied(dataclasses.replace(ax_x, ty=Lolli(B, B)))
    shallow = check_derivation(_swapped(bad, 2))
    assert not shallow and shallow.path == (0, 0, 0)
    deep = check_derivation(_swapped(bad, 5000))
    assert not deep and deep.path == (0,) * 5001 and deep.reason == shallow.reason


def reference_check(d):
    """check_derivation as a recursive walk: the reference for the order
    in which the iterative check visits nodes, and so for its first
    failure's path and reason."""
    for i, p in enumerate(d.premises):
        if p.system is not d.system:
            return False, (i,), "premise belongs to a different system"
        ok, path, reason = reference_check(p)
        if not ok:
            return False, (i,) + path, reason
    sys, rule = d.system, d.rule
    if rule == "ax":
        reason = systems._check_ax(d)
    elif rule in STRUCTURAL[sys]:
        reason = systems._check_structural(d)
    elif (conn := CONNECTIVE[sys].get(rule)) is None:
        reason = f"rule {rule!r} not available in {sys.value}"
    elif rule.startswith("arrow_i"):
        reason = systems._check_intro(d, conn)
    else:
        reason = systems._check_elim(d, conn)
    return (False, (), reason) if reason else (True, (), "")


def reference_icheck(d, flavor):
    """check_inter as a recursive walk, for the same purpose."""
    for i, p in enumerate(d.premises):
        ok, path, reason = reference_icheck(p, flavor)
        if not ok:
            return False, (i,) + path, reason
    reason = _icheck_node(flavor, d)
    return (False, (), reason) if reason else (True, (), "")


def _paths(d, prefix=()):
    """(path, node) for every node of d."""
    yield prefix, d
    for i, p in enumerate(d.premises):
        yield from _paths(p, prefix + (i,))


def test_checkers_fail_first_where_a_recursive_check_fails_first():
    # every infer derivation and every induced derivation of the typable
    # open terms up to size 5, each node retyped in turn.  A derivation in
    # a simple system also has each premise moved to another system, with
    # the derivation above it, or alone with its own first premise retyped
    inter, simple = [], []
    for u in enumerate_terms(5, closed_only=False):
        d = infer(u)
        if d is None:
            continue
        inter.append(d)
        for flavor in Flavor:
            try:
                r = expand(d, flavor)
            except ExpansionError:
                continue
            simple += [r.induced] + ([r.strict] if r.strict else [])
    assert (len(inter), len(simple)) == (75, 218)

    def same(got, want):
        assert (got.ok, got.path, got.reason) == want

    for d in inter:
        for path, _ in _paths(d):
            bad = _retyped_at(d, path)
            for flavor in Flavor:
                same(check_inter(bad, flavor), reference_icheck(bad, flavor))
    for d in simple:
        other = System.CURRY if d.system is not System.CURRY else System.LINEAR

        def moved(n, premises=None):
            return dataclasses.replace(n, system=other, premises=premises or n.premises)

        for path, node in _paths(d):
            bads = [_retyped_at(d, path)]
            if path:
                bads.append(_replaced_at(d, path, lambda n: fold(n, moved)))
            if path and node.premises:
                bads.append(_replaced_at(_retyped_at(d, path + (0,)), path, moved))
            for bad in bads:
                same(check_derivation(bad), reference_check(bad))


def _built_check_ax(d):
    """_check_ax as it stood, comparing against a built Var: the oracle."""
    if d.premises:
        return "ax takes no premises"
    if len(d.basis.entries) != 1:
        return "ax needs a singleton basis"
    x, ty = d.basis.entries[0]
    if d.subject != Var(x):
        return "ax subject must be the basis variable"
    if d.ty != ty:
        return "ax type must match the basis entry"
    return None


def _built_check_intro(d, conn):
    """_check_intro as it stood, comparing against a built Abs and arrow."""
    if len(d.premises) != 1:
        return f"{d.rule} takes one premise"
    (p,) = d.premises
    if not isinstance(d.subject, Abs):
        return f"{d.rule} concludes an abstraction"
    pe = p.basis.entries
    if not pe:
        return f"{d.rule} discharges a basis entry"
    (x, tx), rest = (pe[0], pe[1:]) if d.rule == "arrow_i_l" else (pe[-1], pe[:-1])
    if d.basis.entries != rest:
        return f"{d.rule} keeps the remaining basis in order"
    if d.subject != Abs(x, p.subject):
        return f"{d.rule} subject must bind the discharged variable"
    if d.ty != conn(tx, p.ty):
        return f"{d.rule} type must match the discharged entry"
    return None


def _built_check_elim(d, conn):
    """_check_elim as it stood, comparing against a built App."""
    if len(d.premises) != 2:
        return f"{d.rule} takes two premises"
    pf, pa = d.premises
    if not isinstance(pf.ty, conn):
        return f"{d.rule} function premise needs {conn.__name__}"
    if pf.ty.dom != pa.ty:
        return f"{d.rule} argument type must match the domain"
    if d.ty != pf.ty.cod:
        return f"{d.rule} concludes the codomain"
    if d.subject != App(pf.subject, pa.subject):
        return f"{d.rule} subject must apply fun to arg"
    first, second = (pa, pf) if d.rule == "arrow_e_l" else (pf, pa)
    if d.basis.entries != first.basis.entries + second.basis.entries:
        return f"{d.rule} arranges the premise bases the other way"
    shared = set(pf.basis.vars()) & set(pa.basis.vars())
    if shared:
        return f"premise bases share {sorted(shared)}"
    return None


# each arrow class with another of the same arity in its place
_OTHER_ARROW = {Arrow: Lolli, Lolli: Arrow, LolliL: LolliR, LolliR: LolliL}


def _subject_mutants(n):
    """n with a wrong subject or arrow class, by rule."""
    zz = Var("zz")
    if n.rule == "ax":
        return [dataclasses.replace(n, subject=s) for s in (zz, App(n.subject, zz))]
    if n.rule.startswith("arrow_i"):
        other = _OTHER_ARROW[type(n.ty)](n.ty.dom, n.ty.cod)
        return [
            dataclasses.replace(n, subject=Abs("zz", n.subject.body)),
            dataclasses.replace(n, subject=Abs(n.subject.binder, zz)),
            dataclasses.replace(n, subject=zz),
            dataclasses.replace(n, ty=other),
        ]
    if n.rule.startswith("arrow_e"):
        return [
            dataclasses.replace(n, subject=App(n.subject.fun, zz)),
            dataclasses.replace(n, subject=App(zz, n.subject.arg)),
            dataclasses.replace(n, subject=zz),
        ]
    return []


def test_field_checks_agree_with_the_built_node_checks():
    # every node of the induced and strict derivations of the open terms up
    # to size 5, with a wrong subject or arrow class: the same reason as
    # the checks that built a node to compare against
    reasons = set()
    for u in enumerate_terms(5, closed_only=False):
        d = infer(u)
        if d is None:
            continue
        for flavor in Flavor:
            try:
                r = expand(d, flavor)
            except ExpansionError:
                continue
            for root in [r.induced] + ([r.strict] if r.strict else []):
                for n in preorder(root):
                    for bad in [n, *_subject_mutants(n)]:
                        if bad.rule == "ax":
                            got, want = systems._check_ax(bad), _built_check_ax(bad)
                        elif bad.rule.startswith("arrow_"):
                            conn = CONNECTIVE[bad.system][bad.rule]
                            new, old = (
                                (systems._check_intro, _built_check_intro)
                                if bad.rule.startswith("arrow_i")
                                else (systems._check_elim, _built_check_elim)
                            )
                            got, want = new(bad, conn), old(bad, conn)
                        else:
                            continue
                        assert got == want, (u, bad)
                        reasons.add(got)
    assert None in reasons and len(reasons) >= 8


def test_contraction_check_agrees_with_the_renamed_subject():
    # the ctr check walks the premise's subject against the conclusion's
    # instead of building the renamed term: every ctr node of the curry
    # witnesses up to size 6, with its subject right and spelled wrong
    checked = 0
    for u in enumerate_terms(6, closed_only=False):
        d = decide(System.CURRY, u)
        for n in preorder(d) if d is not None else ():
            if n.rule != "ctr":
                continue
            (p,) = n.premises
            (x, _), (y, _) = p.basis.entries[-2:]
            want = rename_free(p.subject, {y: x})
            for s in (want, p.subject, rename_free(p.subject, {y: "zz"}), Var(x)):
                reason = systems._check_structural(dataclasses.replace(n, subject=s))
                assert reason == (None if s == want else "ctr must rename the dropped variable")
                checked += 1
    assert checked > 100
    # a binder that shadows the dropped name keeps its own occurrences
    assert systems._renames_to(t("y (\\y. y)"), "y", "x", t("x (\\y. y)"))
    assert not systems._renames_to(t("y (\\y. y)"), "y", "x", t("x (\\y. x)"))


def test_axiom_type_must_match_entry():
    bad = Derivation(System.ORDERED, "ax", Basis((("z1", A),)), Var("z1"), B)
    res = check_derivation(bad)
    assert not res and "type" in res.reason


def test_structural_rules_rejected_outside_their_systems():
    p = Derivation(System.LINEAR, "ax", Basis((("x", A),)), Var("x"), A)
    weak = Derivation(
        System.LINEAR, "weak", Basis((("x", A), ("y", B))), Var("x"), A, (p,)
    )
    res = check_derivation(weak)
    assert not res and "not available" in res.reason

    q = Derivation(
        System.LINEAR,
        "ax",
        Basis((("x", Lolli(A, A)),)),
        Var("x"),
        Lolli(A, A),
    )
    assert check_derivation(q)


def test_relabelling_a_weak_node_into_relevant_is_not_recorded_as_a_pass():
    # relabel records a copy's pass only when the target system admits
    # every rule the checked source uses; expansion's strict derivation
    # relies on that scan
    d = decide(System.CURRY, t("\\x. \\y. x"))
    assert check_derivation(d) and "weak" in {n.rule for n in preorder(d)}
    res = check_derivation(relabel(d, System.RELEVANT))
    assert not res and res.path == (0, 0)
    assert res.reason == "rule 'weak' not available in relevant"
    # the failure is recorded nowhere, so the same copy fails alike again
    strict = relabel(d, System.RELEVANT)
    assert check_derivation(strict) == res == check_derivation(strict)
    # and a copy into the affine system, with weak but another arrow, is
    # walked in full
    assert not check_derivation(relabel(d, System.AFFINE))


def test_contraction_rejected_in_affine_and_linear():
    for system in (System.AFFINE, System.LINEAR):
        arrow = Lolli(A, A) if system is System.LINEAR else Arrow(A, A)
        p = Derivation(
            system,
            "ax",
            Basis((("x", arrow),)),
            Var("x"),
            arrow,
        )
        # fake premise basis for a ctr node; checker must reject the rule
        # itself before inspecting shapes
        ctr = Derivation(system, "ctr", p.basis, p.subject, p.ty, (p,))
        res = check_derivation(ctr)
        assert not res and "not available" in res.reason


# --- decision witnesses: the expanded lift of the Curry typing ---------------


def _rules(d) -> list[str]:
    return [n.rule for n in preorder(d)]


def test_build_curry_s_combinator():
    term = t("\\x y z. x z (y z)")
    d = decide(System.CURRY, term)
    assert check_derivation(d)
    assert d.subject == term
    assert d.basis.entries == ()
    assert d.ty == sty("(a -> b -> c) -> (a -> b) -> a -> c")
    # z occurs twice: its two copies are one member, merged by one ctr
    assert _rules(d).count("ctr") == 1


def test_build_linear_identity():
    d = decide(System.LINEAR, t("\\x. x"))
    assert check_derivation(d)
    assert d.ty == Lolli(A, A)


def test_build_linear_rejects_duplication():
    church_two = t("\\f x. f (f x)")
    assert decide(System.CURRY, church_two) is not None
    assert decide(System.LINEAR, church_two) is None
    assert decide(System.AFFINE, church_two) is None


def test_build_relevant_rejects_vacuous_binder():
    assert decide(System.RELEVANT, t("\\x. y")) is None


def test_build_affine_weakens_vacuous_binder():
    d = decide(System.AFFINE, t("\\x. y"))
    assert check_derivation(d)
    assert d.ty == Lolli(A, B)
    assert d.basis.entries == (("y", B),)
    assert _rules(d) == ["arrow_i", "weak", "ax"]


def test_build_open_term_first_occurrence_basis():
    d = decide(System.CURRY, t("x z (y z)"))
    assert check_derivation(d)
    assert d.basis.entries == (("x", sty("b -> c -> a")), ("z", B), ("y", sty("b -> c")))
    assert d.ty == A


def test_build_with_basis_order_and_weakening():
    wx = Basis((("w", B), ("x", A)))
    d = decide(System.CURRY, Var("x"), wx)
    assert check_derivation(d)
    assert d.basis == wx and "weak" in _rules(d)
    assert decide(System.RELEVANT, Var("x"), wx) is None


def test_permute_basis_all_orders():
    from itertools import permutations

    d = decide(System.CURRY, t("x (y z)"))
    for order in permutations(["x", "y", "z"]):
        p = permute_basis(d, tuple(order))
        assert p.basis.vars() == tuple(order)
        assert check_derivation(p)


def test_build_argument_type_mismatch():
    xz = Basis((("x", Arrow(B, B)), ("z", A)))
    assert decide(System.CURRY, t("x z"), xz) is None
    xz = Basis((("x", Arrow(A, B)), ("z", A)))
    assert decide(System.CURRY, t("x z"), xz, A) is None
    assert decide(System.CURRY, t("x z"), xz, B).ty == B


def test_witnesses_expand_the_term_to_size_7():
    # every witness is the canonical term's, with its free variables in
    # order of first occurrence; its contractions are the variables'
    # extra occurrences (idempotence) and its weakenings the vacuous
    # binders, in each system that has the rule
    witnesses = 0
    for u in enumerate_terms(7, closed_only=False):
        c = canonicalize(u)
        binder_uses, free_uses = occurrence_counts(c)
        uses = [*binder_uses.values(), *free_uses.values()]
        for system in (System.CURRY, System.RELEVANT, System.AFFINE, System.LINEAR):
            d = decide(system, u)
            if d is None:
                continue
            witnesses += 1
            assert check_derivation(d), (render_term(u), system)
            assert d.subject == c
            assert d.basis.vars() == tuple(free_vars(c))
            rules = _rules(d)
            assert rules.count("ctr") == sum(n - 1 for n in uses if n > 1)
            assert rules.count("weak") == uses.count(0)
    assert witnesses == 735 + 126 + 517 + 85


# sha256 of the affine and linear witnesses' JSON documents to size 7, in
# enumeration order, as the syntax-directed builder gave them
AFFINE_WITNESSES = "faa272baf6e998680e0254def57bce6cedddf5810f77d44fd6c0d6b013b1644b"
LINEAR_WITNESSES = "9799cf6325ce7dee086262787061aaee966963e791c4cf4a1e75fe8063beb6bc"


def test_affine_and_linear_witnesses_are_pinned():
    digests = {System.AFFINE: hashlib.sha256(), System.LINEAR: hashlib.sha256()}
    for u in enumerate_terms(7, closed_only=False):
        for system, h in digests.items():
            d = decide(system, u)
            if d is not None:
                h.update(serialize.dumps(d).encode())
    got = tuple(h.hexdigest() for h in digests.values())
    assert got == (AFFINE_WITNESSES, LINEAR_WITNESSES)


# --- principal simple types --------------------------------------------------


def test_infer_curry_goldens():
    assert infer_curry(t("\\x. x")) == sty("a -> a")
    assert infer_curry(t("\\x y. x")) == sty("a -> b -> a")
    assert infer_curry(t("\\x y z. x z (y z)")) == sty(
        "(a -> b -> c) -> (a -> b) -> a -> c"
    )
    assert infer_curry(t("\\f x. f (f x)")) == sty("(a -> a) -> a -> a")
    assert infer_curry(t("\\x. x x")) is None
    assert infer_curry(t("(\\x. x x) (\\x. x x)")) is None


def test_infer_curry_open_term():
    assert infer_curry(t("x z")) == TVar("a")
    assert infer_curry(t("z z")) is None


def test_decide_goldens():
    church_two = t("\\f x. f (f x)")
    assert decide(System.AFFINE, church_two) is None
    assert decide(System.RELEVANT, church_two).ty == sty("(a -> a) -> a -> a")
    assert decide(System.LINEAR, t("\\x. x")).ty == parse_linear_type("a -o a")
    assert decide(System.RELEVANT, t("\\x. x x")) is None
    assert decide(System.CURRY, t("\\x. y")).ty == sty("a -> b")
    assert decide(System.AFFINE, t("\\x. y")).ty == parse_linear_type("a -o b")
    assert decide(System.RELEVANT, t("\\x. y")) is None
    assert decide(System.LINEAR, t("\\x y. y x")).ty == parse_linear_type(
        "a -o (a -o b) -o b"
    )


def test_decide_judges_a_basis_and_a_type():
    x_a = Basis((("x", A),))
    # binders are renamed apart from the basis names
    d = decide(System.CURRY, t("\\x. x"), x_a, sty("b -> b"))
    assert d.subject == t("\\x1. x1") and d.ty == sty("b -> b")
    assert d.basis == x_a and check_derivation(d)
    # fresh letters avoid the basis variables, which are rigid
    assert decide(System.CURRY, t("\\x. x"), x_a).ty == sty("b -> b")
    assert decide(System.CURRY, t("x"), x_a, B) is None
    # only the systems with weakening take an entry the term does not use
    assert decide(System.AFFINE, t("\\y. y"), x_a).basis == x_a
    assert decide(System.RELEVANT, t("\\y. y"), x_a) is None
    # the root basis follows the basis order
    yx = Basis((("y", A), ("x", parse_linear_type("a -o b"))))
    d = decide(System.LINEAR, t("x y"), yx)
    assert d.basis == yx and d.ty == B and check_derivation(d)
    with pytest.raises(ValueError, match="'y'"):
        decide(System.CURRY, t("x y"), x_a)


def test_decide_returns_checkable_witness():
    for system, subject in [
        (System.CURRY, t("\\x y z. x z (y z)")),
        (System.RELEVANT, t("\\f x. f (f x)")),
        (System.AFFINE, t("\\x. y")),
        (System.LINEAR, t("\\x y. y x")),
    ]:
        d = decide(system, subject)
        assert d is not None and d.system is system
        assert check_derivation(d)


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


@given(terms)
def test_infer_curry_alpha_invariant(u):
    c = canonicalize(u, FreshSupply())
    assert infer_curry(u) == infer_curry(c)


@given(terms)
@settings(max_examples=60)
def test_decide_respects_system_inclusions(u):
    linear = decide(System.LINEAR, u)
    affine = decide(System.AFFINE, u)
    relevant = decide(System.RELEVANT, u)
    curry = decide(System.CURRY, u)
    if linear is not None:
        assert affine is not None and relevant is not None
    if affine is not None or relevant is not None:
        assert curry is not None


def _lolli(ty):
    """ty with every -> spelled -o."""
    if isinstance(ty, Arrow):
        return Lolli(_lolli(ty.dom), _lolli(ty.cod))
    return ty


@given(terms)
@settings(max_examples=40)
def test_decide_linear_type_mirrors_curry(u):
    linear = decide(System.LINEAR, u)
    if linear is not None:
        assert linear.ty == _lolli(infer_curry(u))
        assert check_derivation(linear)
