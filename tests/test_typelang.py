import itertools
from dataclasses import dataclass

from hypothesis import given
from hypothesis import strategies as st

import pytest

from lambda_expand.terms import FreshSupply
from lambda_expand.typelang import (
    Arrow,
    Basis,
    CollisionError,
    Flavor,
    InterArrow,
    ListExpCtx,
    Lolli,
    LolliL,
    LolliR,
    SetExpCtx,
    Target,
    TVar,
    ctx_append,
    ctx_leq,
    ctx_match,
    ctx_to_basis,
    ctx_union,
    check_tree,
    env_eq,
    env_meet,
    env_to_set_ctx,
    inter_eq,
    inter_list_eq,
    normalize,
    set_ctx_to_env,
    translate,
    type_key,
)
from lambda_expand.serialize import SerializeError, dumps, loads
from lambda_expand.syntax import parse_inter_type, parse_ordered_type, parse_term
from lambda_expand.systems import System, check_ordered, decide, infer_ordered

A, B, C = TVar("a"), TVar("b"), TVar("c")


def it(src):
    return parse_inter_type(src)


def test_inter_arrow_requires_members():
    with pytest.raises(ValueError):
        InterArrow((), A)


def test_inter_eq_flavors():
    x = it("a & (a -> b) -> b")
    y = it("(a -> b) & a -> b")
    assert inter_eq(x, y, Flavor.ACI)
    assert inter_eq(x, y, Flavor.AC)  # multisets agree
    assert not inter_eq(x, y, Flavor.A)  # sequences differ
    dup = it("a & a -> b")
    single = it("a -> b")
    assert inter_eq(dup, single, Flavor.ACI)
    assert not inter_eq(dup, single, Flavor.AC)
    assert not inter_eq(dup, single, Flavor.A)


def _copy(t):
    """A copy of t built from new objects all the way down."""
    if isinstance(t, TVar):
        return TVar(str(t.name))
    if isinstance(t, InterArrow):
        return InterArrow(tuple(_copy(m) for m in t.doms), _copy(t.cod))
    return type(t)(_copy(t.dom), _copy(t.cod))


@pytest.mark.parametrize("t", [
    A,
    it("a & (a -> b) -> b"),
    Arrow(A, Arrow(B, A)),
    Lolli(Lolli(A, B), A),
    LolliL(A, LolliR(B, A)),
    LolliR(LolliL(A, B), A),
])
def test_types_compare_by_structure_and_hash_by_their_fields(t):
    # == answers True for the object itself before it compares fields; a
    # distinct equal copy gets the same answer and the same hash
    u = _copy(t)
    assert u is not t
    assert t == t and not t != t
    assert t == u and u == t and not t != u
    fields = tuple(getattr(t, f) for f in t.__dataclass_fields__)
    assert hash(t) == hash(u) == hash(fields)
    assert {t: 1}[u] == 1
    if not isinstance(t, TVar):
        other = type(t)(*fields[:-1], C)
        assert t != other and not t == other


def test_connectives_with_the_same_fields_differ():
    assert LolliL(A, B) != LolliR(A, B) and not LolliL(A, B) == LolliR(A, B)
    assert Arrow(A, B) != Lolli(A, B) and not Arrow(A, B) == Lolli(A, B)
    assert InterArrow((A,), B) != Arrow(A, B)
    assert A != "a" and A == TVar("a")


@pytest.mark.parametrize("enum", [Flavor, Target, System])
def test_enum_members_key_tables_and_compare_by_identity(enum):
    table = {m: m.value for m in enum}
    for m in enum:
        assert enum(m.value) is m
        assert table[enum(m.value)] == m.value
        assert (m, "key") in {(enum(m.value), "key")}
        assert [n == m for n in enum] == [n is m for n in enum]


def test_flavor_refinement_chain():
    pool = [
        it("a -> a"),
        it("a & b -> a"),
        it("b & a -> a"),
        it("a & a & b -> a"),
        it("(a & b -> a) -> c"),
        it("(b & a -> a) -> c"),
        A,
        B,
    ]
    for x, y in itertools.product(pool, repeat=2):
        if inter_eq(x, y, Flavor.A):
            assert inter_eq(x, y, Flavor.AC)
        if inter_eq(x, y, Flavor.AC):
            assert inter_eq(x, y, Flavor.ACI)


def test_normalize_is_canonical_per_flavor():
    x = it("b & a & b -> c")
    assert normalize(x, Flavor.A) == x
    assert normalize(x, Flavor.AC) == it("a & b & b -> c")
    assert normalize(x, Flavor.ACI) == it("a & b -> c")


def test_env_meet():
    g1 = {"x": (A,), "y": (it("a -> b"),)}
    g2 = {"x": (B,), "z": (C,)}
    assert env_meet(g1, g2) == {
        "x": (A, B),
        "y": (it("a -> b"),),
        "z": (C,),
    }
    assert env_meet({}, g1) == g1
    assert env_meet(g1) == g1


def test_env_eq_flavored():
    g1 = {"x": (A, it("a -> b"))}
    g2 = {"x": (it("a -> b"), A)}
    assert env_eq(g1, g2, Flavor.AC)
    assert not env_eq(g1, g2, Flavor.A)
    assert not env_eq(g1, {"y": (A,)}, Flavor.ACI)


def test_translate_examples():
    # each domain member becomes its own arrow, right-nested
    src = it("(a -> b) & a -> b")
    assert translate(src, Target.SIMPLE) == Arrow(Arrow(A, B), Arrow(A, B))
    assert translate(src, Target.LINEAR) == Lolli(Lolli(A, B), Lolli(A, B))
    assert translate(src, Target.ORDERED) == LolliR(LolliR(A, B), LolliR(A, B))
    assert translate(A, Target.SIMPLE) == A
    nested = it("(a & b -> a) -> c")
    assert translate(nested, Target.SIMPLE) == Arrow(Arrow(A, Arrow(B, A)), C)
    # the simple target curries each distinct member once, as ACI expansion
    # binds it once; the others curry every member
    dup = it("((a & a -> a) -> b) -> b")
    assert translate(dup, Target.SIMPLE) == Arrow(Arrow(Arrow(A, A), B), B)
    assert translate(dup, Target.LINEAR) == Lolli(Lolli(Lolli(A, Lolli(A, A)), B), B)


def brute_translate(t, arrow, dedup=False):
    # independent oracle: textual fold over an explicit member stack; with
    # dedup a member repeated further left is dropped (first occurrence wins)
    if isinstance(t, TVar):
        return t
    stack = list(t.doms)
    out = brute_translate(t.cod, arrow, dedup)
    while stack:
        m = stack.pop()
        if not (dedup and m in stack):
            out = arrow(brute_translate(m, arrow, dedup), out)
    return out


tvars = st.sampled_from(["a", "b", "c"]).map(TVar)
inter_types = st.recursive(
    tvars,
    lambda sub: st.tuples(st.lists(sub, min_size=1, max_size=3), sub).map(
        lambda p: InterArrow(tuple(p[0]), p[1])
    ),
    max_leaves=7,
)


@given(inter_types)
def test_translate_matches_oracle(ty):
    assert translate(ty, Target.SIMPLE) == brute_translate(ty, Arrow, dedup=True)
    assert translate(ty, Target.LINEAR) == brute_translate(ty, Lolli)
    assert translate(ty, Target.ORDERED) == brute_translate(ty, LolliR)


@given(inter_types, inter_types)
def test_inter_eq_refinement(x, y):
    if inter_eq(x, y, Flavor.A):
        assert inter_eq(x, y, Flavor.AC)
    if inter_eq(x, y, Flavor.AC):
        assert inter_eq(x, y, Flavor.ACI)


# ---- flavor equalities against their normalize-both-sides definitions ----


def _normal_form(t, flavor):
    """Oracle: rebuild every arrow, sorting (AC) or sorting and deduplicating
    (ACI) its members."""
    if isinstance(t, TVar):
        return t
    members = [_normal_form(m, flavor) for m in t.doms]
    if flavor is Flavor.ACI:
        members = sorted(set(members), key=type_key)
    elif flavor is Flavor.AC:
        members = sorted(members, key=type_key)
    return InterArrow(tuple(members), _normal_form(t.cod, flavor))


def _list_eq_oracle(xs, ys, flavor):
    xs = [_normal_form(x, flavor) for x in xs]
    ys = [_normal_form(y, flavor) for y in ys]
    if flavor is Flavor.A:
        return xs == ys
    if flavor is Flavor.AC:
        return sorted(xs, key=type_key) == sorted(ys, key=type_key)
    return set(xs) == set(ys)


def _types_to_depth(depth):
    if depth == 0:
        return tvars
    sub = _types_to_depth(depth - 1)
    arrows = st.tuples(st.lists(sub, min_size=1, max_size=3), sub).map(
        lambda p: InterArrow(tuple(p[0]), p[1])
    )
    return st.one_of(tvars, arrows)


types_to_depth_3 = _types_to_depth(3)


def _variant(draw, t):
    """t with each arrow's members permuted and, at random, one repeated:
    equal under ACI, often under AC, seldom under A."""
    if isinstance(t, TVar):
        return t
    members = draw(st.permutations([_variant(draw, m) for m in t.doms]))
    if draw(st.booleans()):
        members.append(draw(st.sampled_from(members)))
    return InterArrow(tuple(members), _variant(draw, t.cod))


def _partner(draw, t):
    """t itself, a variant of t, or an unrelated type."""
    kind = draw(st.sampled_from(["same", "variant", "other"]))
    if kind == "same":
        return t
    if kind == "variant":
        return _variant(draw, t)
    return draw(types_to_depth_3)


@given(st.data(), st.sampled_from(list(Flavor)))
def test_flavor_equalities_match_the_normal_form_definitions(data, flavor):
    draw = data.draw
    x = draw(types_to_depth_3)
    y = _partner(draw, x)
    assert normalize(x, flavor) == _normal_form(x, flavor)
    assert inter_eq(x, y, flavor) == (_normal_form(x, flavor) == _normal_form(y, flavor))

    xs = tuple(draw(st.lists(types_to_depth_3, min_size=1, max_size=3)))
    ys = [_partner(draw, m) for m in draw(st.permutations(xs))]
    if draw(st.booleans()):
        ys.append(draw(st.sampled_from(ys)))
    assert inter_list_eq(xs, ys, flavor) == _list_eq_oracle(xs, ys, flavor)

    ga = {v: xs for v in draw(st.lists(st.sampled_from("xy"), unique=True))}
    gb = {v: tuple(_partner(draw, m) for m in ms) for v, ms in ga.items()}
    if draw(st.booleans()):
        gb[draw(st.sampled_from("xyz"))] = ys
    want = ga.keys() == gb.keys() and all(
        _list_eq_oracle(ga[v], gb[v], flavor) for v in ga
    )
    assert env_eq(ga, gb, flavor) == want


def test_basis_rejects_duplicates():
    # the typing rules keep a derivation's names distinct, so a repeated
    # name is rejected where a basis comes from outside them, not by Basis
    dup = Basis((("x", A), ("x", B)))
    assert dup.vars() == ("x", "x")
    x = parse_term("x")
    with pytest.raises(ValueError, match="repeated basis variable"):
        decide(System.CURRY, x, dup)
    with pytest.raises(ValueError, match="repeated basis variable"):
        check_ordered(dup, x, A)
    with pytest.raises(ValueError, match="repeated basis variable"):
        infer_ordered(dup, x)
    doc = dumps(Basis((("x", A), ("y", B))))
    assert '"y"' in doc
    with pytest.raises(SerializeError, match="repeated basis variable"):
        loads(doc.replace('"y"', '"x"'))


# ---- set contexts ----


def set_ctx(groups):
    return SetExpCtx({x: dict(g) for x, g in groups.items()})


def test_ctx_union():
    a = set_ctx({"x": {"x1": A}})
    b = set_ctx({"x": {"x2": B}, "y": {"y1": C}})
    u = ctx_union(a, b)
    assert u.groups == {"x": {"x1": A, "x2": B}, "y": {"y1": C}}
    with pytest.raises(CollisionError):
        ctx_union(set_ctx({"x": {"x1": A}}), set_ctx({"x": {"x1": A}}))
    with pytest.raises(CollisionError):
        ctx_union(set_ctx({"x": {"x1": A}}), set_ctx({"y": {"x1": A}}))


def test_ctx_leq():
    small = set_ctx({"x": {"x1": A}})
    big = set_ctx({"x": {"x1": A, "x2": B}, "y": {"y1": C}})
    assert ctx_leq(small, big)
    assert not ctx_leq(big, small)
    assert ctx_leq(small, small)
    assert not ctx_leq(set_ctx({"x": {"x1": B}}), big)  # type must agree


def test_env_ctx_round_trip():
    env = {"x": (A, it("a -> b")), "z": (C,)}
    ctx = env_to_set_ctx(env, FreshSupply())
    assert set_ctx_to_env(ctx) == env
    assert list(ctx.groups["x"]) == ["x1", "x2"]


# Members the flavors tell apart: ACI identifies a & a -> b with a -> b,
# AC and ACI identify a & b -> b with b & a -> b.
_MATCH_POOL = [it(s) for s in ("a", "b", "a -> b", "a & a -> b", "a & b -> b", "b & a -> b")]


@st.composite
def ctx_pairs(draw):
    owners = draw(st.lists(st.sampled_from("xyz"), unique=True, max_size=3))
    members = st.lists(st.sampled_from(_MATCH_POOL), max_size=4)
    a, b = SetExpCtx(), SetExpCtx()
    for x in owners:
        tys_a = draw(members)
        # mostly a reordering of a's group, so that renamings exist
        tys_b = draw(st.one_of(st.permutations(tys_a), members))
        a.groups[x] = {f"{x}{i}": ty for i, ty in enumerate(tys_a)}
        b.groups[x] = {f"{x}_{i}": ty for i, ty in enumerate(tys_b)}
    return a, b


def _brute_force_renamings(a, b, flavor):
    groups_a = {x: g for x, g in a.groups.items() if g}
    groups_b = {x: g for x, g in b.groups.items() if g}
    if set(groups_a) != set(groups_b):
        return []
    per_owner = []
    for x, ga in groups_a.items():
        gb = groups_b[x]
        if len(ga) != len(gb):
            return []
        per_owner.append(
            [
                dict(zip(ga, perm))
                for perm in itertools.permutations(gb)
                if all(inter_eq(ga[ya], gb[yb], flavor) for ya, yb in zip(ga, perm))
            ]
        )
    return [
        {ya: yb for piece in combo for ya, yb in piece.items()}
        for combo in itertools.product(*per_owner)
    ]


@given(ctx_pairs(), st.sampled_from(list(Flavor)))
def test_ctx_match_yields_exactly_the_brute_force_renamings(pair, flavor):
    a, b = pair
    got = [tuple(sorted(r.items())) for r in ctx_match(a, b, flavor)]
    want = {tuple(sorted(r.items())) for r in _brute_force_renamings(a, b, flavor)}
    assert len(got) == len(set(got))
    assert set(got) == want


def test_ctx_to_basis_set_flavor_translates():
    ctx = set_ctx({"x": {"x1": it("a & b -> c")}})
    basis = ctx_to_basis(ctx, Target.SIMPLE)
    assert basis.entries == (("x1", Arrow(A, Arrow(B, C))),)


# ---- list contexts ----


def ot(src):
    return parse_ordered_type(src)


def list_ctx(groups):
    return ListExpCtx([(x, list(g)) for x, g in groups])


def test_ctx_append_new_owner():
    a = list_ctx([("x", [("x1", ot("a"))])])
    b = list_ctx([("y", [("y1", ot("b"))])])
    assert ctx_append(a, b).groups == [
        ("x", [("x1", ot("a"))]),
        ("y", [("y1", ot("b"))]),
    ]


def test_ctx_append_splices_shared_owner():
    # derived by hand from the join clauses: the incoming group lands
    # immediately after the owner's existing bindings, not at the end
    a = list_ctx([("x", [("x1", ot("a"))]), ("z", [("z1", ot("b"))])])
    b = list_ctx([("x", [("x2", ot("c"))])])
    assert ctx_append(a, b).groups == [
        ("x", [("x1", ot("a")), ("x2", ot("c"))]),
        ("z", [("z1", ot("b"))]),
    ]


def test_ctx_append_empty_identity():
    a = list_ctx([("x", [("x1", ot("a"))])])
    assert ctx_append(a, ListExpCtx()).groups == a.groups
    assert ctx_append(ListExpCtx(), a).groups == a.groups


def test_ctx_append_collision():
    a = list_ctx([("x", [("x1", ot("a"))])])
    b = list_ctx([("x", [("x1", ot("a"))])])
    with pytest.raises(CollisionError):
        ctx_append(a, b)


def oracle_append(a, b):
    """Literal transcription of the three join clauses, recursing on the
    right operand."""
    if not b.groups:
        return a.copy()
    (x, s2), rest = b.groups[0], ListExpCtx(b.groups[1:])
    owners = a.owners()
    if x in owners:
        merged = ListExpCtx(
            [(ox, og + list(s2) if ox == x else list(og)) for ox, og in a.groups]
        )
        return oracle_append(merged, rest)
    return oracle_append(ListExpCtx(a.groups + [(x, list(s2))]), rest)


def test_ctx_append_matches_oracle():
    # enumerate small list contexts over two owners and compare joins
    pool_types = [ot("a"), ot("a -o_r b")]
    fresh = itertools.count(1)

    def contexts():
        for owners in [(), ("x",), ("y",), ("x", "y"), ("y", "x")]:
            for sizes in itertools.product([1, 2], repeat=len(owners)):
                groups = []
                for owner, n in zip(owners, sizes):
                    groups.append(
                        (owner, [(f"{owner}{next(fresh)}", pool_types[i % 2]) for i in range(n)])
                    )
                yield ListExpCtx(groups)

    all_ctxs = list(contexts())
    checked = 0
    for a, b in itertools.product(all_ctxs, repeat=2):
        if set(a.binding_vars()) & set(b.binding_vars()):
            continue
        got = ctx_append(a, b)
        want = oracle_append(a, b)
        assert got.groups == want.groups, (a.groups, b.groups)
        checked += 1
    assert checked > 50


def test_ctx_to_basis_list_flavor_keeps_order():
    ctx = list_ctx([("z", [("z2", ot("a -o_r b")), ("z1", ot("a"))])])
    basis = ctx_to_basis(ctx, Target.ORDERED)
    assert basis.entries == (("z2", ot("a -o_r b")), ("z1", ot("a")))


@dataclass(frozen=True)
class _Node:
    premises: tuple = ()


def test_check_tree_walks_a_passing_root_once_per_key():
    leaf = _Node()
    root = _Node((leaf, _Node()))
    seen = []

    def check(n):
        seen.append(n)

    assert check_tree(root, check, "k") and len(seen) == 3
    assert check_tree(root, check, "k") and len(seen) == 3
    # another key walks again, and a premise holds no record of its own
    assert check_tree(root, check, "other") and len(seen) == 6
    assert check_tree(leaf, check, "k") and len(seen) == 7
    # the record is not a field: it changes neither equality nor hashing
    assert root == _Node((_Node(), _Node())) and hash(root) == hash(_Node((_Node(), _Node())))


def test_check_tree_records_no_failure():
    bad = _Node()
    root = _Node((_Node(), bad))
    seen = []

    def check(n):
        seen.append(n)
        return "bad node" if n is bad else None

    first = check_tree(root, check, "k")
    assert not first and first.path == (1,) and first.reason == "bad node"
    assert check_tree(root, check, "k") == first and len(seen) == 4
