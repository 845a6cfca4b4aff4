"""Type languages and the algebra connecting them.

Four type languages share a variable constructor: simple types (->), linear
types (-o), ordered types (-o_l / -o_r), and intersection types, whose arrows
carry a nonempty list of domain members. One data shape stores all
intersection flavors; flavor semantics (set / multiset / sequence) live in
`normal_members`, `normalize` and the equality helpers.

Environments map identifiers to nonempty intersection-member lists. Expansion
contexts come in two shapes: a set context maps owners to {fresh var: type}
groups; a list context keeps owners and their groups in a fixed order.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from ._node import node


# The type classes answer == by identity first: derivations share their type
# objects, so most comparisons the checkers make are of an object with itself.
# Otherwise each __eq__ is the one dataclass would generate, and since it is
# defined in the class body, dataclass still generates __hash__.


def _eq_dom_cod(self, other):
    if self is other:
        return True
    if other.__class__ is self.__class__:
        return (self.dom, self.cod) == (other.dom, other.cod)
    return NotImplemented


@node
class TVar:
    name: str

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented


@node
class Arrow:
    dom: "SimpleType"
    cod: "SimpleType"

    __eq__ = _eq_dom_cod


@node
class Lolli:
    dom: "LinearType"
    cod: "LinearType"

    __eq__ = _eq_dom_cod


@node
class LolliL:
    dom: "OrderedType"
    cod: "OrderedType"

    __eq__ = _eq_dom_cod


@node
class LolliR:
    dom: "OrderedType"
    cod: "OrderedType"

    __eq__ = _eq_dom_cod


@node
class InterArrow:
    doms: tuple["InterType", ...]
    cod: "InterType"

    def __post_init__(self):
        if not self.doms:
            raise ValueError("arrow domain needs at least one member")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return (self.doms, self.cod) == (other.doms, other.cod)
        return NotImplemented


SimpleType = TVar | Arrow
LinearType = TVar | Lolli
OrderedType = TVar | LolliL | LolliR
InterType = TVar | InterArrow
Type = SimpleType | LinearType | OrderedType | InterType


class Flavor(enum.Enum):
    ACI = "aci"
    AC = "ac"
    A = "a"

    # members are singletons that compare by identity, so they may hash by
    # it too, in C rather than through Enum.__hash__
    __hash__ = object.__hash__


def letter_names() -> Iterator[str]:
    """Type-variable names a, b, ..., z, a1, b1, ..., z1, a2, ..."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    yield from letters
    for i in itertools.count(1):
        for c in letters:
            yield f"{c}{i}"


def type_key(t: InterType):
    """Structural sort key: variables by name, arrows after variables."""
    match t:
        case TVar(n):
            return (0, n)
        case InterArrow(doms, cod):
            return (1, tuple(type_key(d) for d in doms), type_key(cod))
    raise TypeError(t)


def normal_members(members, flavor: Flavor) -> tuple[InterType, ...]:
    """A member list's flavor normal form: its members normalized and
    sorted under AC, also deduplicated under ACI, unchanged under A."""
    if flavor is Flavor.A:
        return tuple(members)
    out = [normalize(m, flavor) for m in members]
    if flavor is Flavor.ACI:
        out = set(out)
    return tuple(sorted(out, key=type_key))


def normalize(t: InterType, flavor: Flavor) -> InterType:
    """Canonical form per flavor: every domain list in its normal form
    (`normal_members`); under A that is t itself."""
    if flavor is Flavor.A or isinstance(t, TVar):
        return t
    if isinstance(t, InterArrow):
        return InterArrow(normal_members(t.doms, flavor), normalize(t.cod, flavor))
    raise TypeError(t)


def inter_eq(a: InterType, b: InterType, flavor: Flavor) -> bool:
    """Equality under a flavor.  Types equal as given are equal under every
    flavor, so normal forms are built only when they differ under AC/ACI."""
    if a == b:
        return True
    return flavor is not Flavor.A and normalize(a, flavor) == normalize(b, flavor)


def inter_list_eq(xs, ys, flavor: Flavor) -> bool:
    """Equality of intersection-member lists under a flavor: sequences for A,
    multisets for AC, sets for ACI."""
    xs, ys = tuple(xs), tuple(ys)
    if xs == ys:
        return True
    if flavor is Flavor.A:
        return False
    return normal_members(xs, flavor) == normal_members(ys, flavor)


# ---- environments ----

TypeEnv = dict[str, tuple[InterType, ...]]


def env_meet(*envs: TypeEnv) -> TypeEnv:
    """Pointwise meet: concatenate intersection lists, left argument first."""
    out: TypeEnv = {}
    for env in envs:
        for x, members in env.items():
            out[x] = out.get(x, ()) + tuple(members)
    return out


def env_eq(a: TypeEnv, b: TypeEnv, flavor: Flavor) -> bool:
    if a.keys() != b.keys():
        return False
    return all(inter_list_eq(a[x], b[x], flavor) for x in a)


# ---- translation into the target languages ----


class Target(enum.Enum):
    SIMPLE = "simple"
    LINEAR = "linear"
    ORDERED = "ordered"

    __hash__ = object.__hash__  # as Flavor's


_ARROW_OF = {
    Target.SIMPLE: Arrow,
    Target.LINEAR: Lolli,
    Target.ORDERED: LolliR,
}


def dedup_members(members) -> list[InterType]:
    """Distinct members in first-occurrence order, in one pass.  Each
    member of a longer list is hashed into a dict that lives only for the
    call, since infer renames type variables in place; hashing walks the
    whole type, so a single member is not hashed."""
    if len(members) < 2:
        return list(members)
    return list(dict.fromkeys(members))


def translate(t: InterType, target: Target) -> Type:
    """Curry each domain member into its own arrow of the target language.
    The simple target, which ACI expansion types its output in, curries
    each distinct member once, as the expansion binds it once.  The
    codomain chain is walked in a loop and curried from its end."""
    chain = []
    while isinstance(t, InterArrow):
        chain.append(t.doms)
        t = t.cod
    if not isinstance(t, TVar):
        raise TypeError(t)
    arrow = _ARROW_OF[target]
    out: Type = t
    for doms in reversed(chain):
        if target is Target.SIMPLE:
            doms = dedup_members(doms)
        for d in reversed(doms):
            out = arrow(translate(d, target), out)
    return out


# ---- bases ----


class _NamesSlot:
    """Basis's slot for its names, which is not a field: the first vars()
    call fills it in."""

    __slots__ = ("_names",)


@node
class Basis(_NamesSlot):
    """Ordered assumption list.  Its names must be pairwise distinct: the
    typing rules keep them so, and `check_distinct` checks a basis that
    comes from outside them."""

    entries: tuple[tuple[str, Type], ...] = ()

    def vars(self) -> tuple[str, ...]:
        names = getattr(self, "_names", None)
        if names is None:
            names = tuple(x for x, _ in self.entries)
            object.__setattr__(self, "_names", names)
        return names


def check_distinct(basis: Basis) -> None:
    """Raise ValueError when a name repeats in the basis."""
    names = basis.vars()
    if len(set(names)) != len(names):
        raise ValueError(f"repeated basis variable in {list(names)}")


# ---- derivation trees: nodes with a `premises` tuple, in every system ----
# Their walkers share one explicit-stack traversal, so a derivation's depth
# is bounded by memory, not by the recursion limit.


def preorder(root, right_first: bool = True) -> list:
    """Every node of the tree under root, each before its premises.

    By default the premises come right to left; reversed, the list is the
    left-to-right post-order in which a recursive walk finishes its nodes.
    With right_first=False they come left to right, in the order in which
    a recursive walk enters them."""
    nodes = []
    stack = [root]
    while stack:
        n = stack.pop()
        nodes.append(n)
        stack += n.premises if right_first else n.premises[::-1]
    return nodes


@dataclass(frozen=True)
class CheckResult:
    """A derivation replayed against its rules; a failure carries the
    premise path to the node that breaks its rule, and the reason."""

    ok: bool
    path: tuple[int, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


_OK = CheckResult(True)


def check_tree(root, check, key) -> CheckResult:
    """check(node), the reason the node breaks its rule or None, on every
    node in the order a recursive check finishes them: left to right,
    premises first.  Only the first failure works out its path.

    The trees are frozen, so a pass stays true: it is recorded on root
    under key, which names the check, and a root that has passed under
    key is not walked again.  A failure is recorded nowhere."""
    if has_passed(root, key):
        return _OK
    nodes = preorder(root)
    for k in range(len(nodes) - 1, -1, -1):
        reason = check(nodes[k])
        if reason:
            # replay the traversal up to nodes[k], carrying premise paths
            stack = [(root, ())]
            for _ in range(k + 1):
                n, path = stack.pop()
                stack += [(p, path + (i,)) for i, p in enumerate(n.premises)]
            return CheckResult(False, path, reason)
    record_pass(root, key)
    return _OK


class PassSlot:
    """Base of the derivation node classes: the slot for check_tree's pass
    record, which is not a field."""

    __slots__ = ("_passed",)


def has_passed(root, key) -> bool:
    """Whether root's pass under key is recorded (see check_tree)."""
    return key in getattr(root, "_passed", ())


def record_pass(root, key) -> None:
    """Record that the frozen tree under root passes the check named key,
    in the slot PassSlot declares, which is not a field, so equality and
    hashing ignore it.  Only a check's owner records a pass it has not walked."""
    object.__setattr__(root, "_passed", (*getattr(root, "_passed", ()), key))


def fold(root, build):
    """build(node, premises) over the tree under root, where premises holds
    the results for node.premises; each node's result is built after its
    premises' results, in left-to-right post-order."""
    out: list = []
    for n in reversed(preorder(root)):
        k = len(out) - len(n.premises)
        out[k:] = [build(n, tuple(out[k:]))]
    return out[0]


# ---- expansion contexts ----


class CollisionError(ValueError):
    """Two context operands share an expansion-variable name."""


@dataclass
class SetExpCtx:
    """Owners in insertion order; each owner holds fresh-variable bindings in
    insertion order. Insertion order is bookkeeping only: set contexts compare
    and combine as sets."""

    groups: dict[str, dict[str, InterType]] = field(default_factory=dict)

    def owners(self) -> list[str]:
        return list(self.groups)

    def binding_vars(self) -> list[str]:
        return [y for group in self.groups.values() for y in group]

    def copy(self) -> "SetExpCtx":
        return SetExpCtx({x: dict(g) for x, g in self.groups.items()})


@dataclass
class ListExpCtx:
    """Owner groups in a significant order; bindings hold target-language
    (ordered) types."""

    groups: list[tuple[str, list[tuple[str, Type]]]] = field(default_factory=list)

    def owners(self) -> list[str]:
        return [x for x, _ in self.groups]

    def binding_vars(self) -> list[str]:
        return [y for _, g in self.groups for y, _ in g]

    def copy(self) -> "ListExpCtx":
        return ListExpCtx([(x, list(g)) for x, g in self.groups])


ExpansionContext = SetExpCtx | ListExpCtx


def ctx_union(a: SetExpCtx, b: SetExpCtx) -> SetExpCtx:
    """Join set contexts; owner groups merge, expansion variables must differ."""
    shared = set(a.binding_vars()) & set(b.binding_vars())
    if shared:
        raise CollisionError(f"shared expansion variables: {sorted(shared)}")
    out = a.copy()
    for x, group in b.groups.items():
        tgt = out.groups.setdefault(x, {})
        tgt.update(group)
    return out


def ctx_append(a: ListExpCtx, b: ListExpCtx) -> ListExpCtx:
    """Join list contexts left to right. A group whose owner already appears
    splices immediately after that owner's existing bindings; a new owner
    appends at the end."""
    shared = set(a.binding_vars()) & set(b.binding_vars())
    if shared:
        raise CollisionError(f"shared expansion variables: {sorted(shared)}")
    out = a.copy()
    for x, group in b.groups:
        for ox, og in out.groups:
            if ox == x:
                og.extend(group)
                break
        else:
            out.groups.append((x, list(group)))
    return out


def ctx_leq(a: SetExpCtx, b: SetExpCtx) -> bool:
    """Pointwise containment of owner groups, bindings compared by
    (variable, type) pairs."""
    for x, group in a.groups.items():
        other = b.groups.get(x)
        if other is None:
            return False
        for y, ty in group.items():
            if y not in other or other[y] != ty:
                return False
    return True


def env_to_set_ctx(env: TypeEnv, supply) -> SetExpCtx:
    """One fresh variable per intersection member, indexed per owner."""
    ctx = SetExpCtx()
    for x, members in env.items():
        group: dict[str, InterType] = {}
        for ty in members:
            group[supply.fresh(x)] = ty
        ctx.groups[x] = group
    return ctx


def set_ctx_to_env(ctx: SetExpCtx) -> TypeEnv:
    """Forget the fresh names; inverse of env_to_set_ctx up to renaming."""
    return {x: tuple(group.values()) for x, group in ctx.groups.items() if group}


def ctx_to_basis(ctx: ExpansionContext, target: Target) -> Basis:
    """Flatten a context into an assumption list. Set contexts translate each
    binding's type; list contexts already hold target types and keep their
    exact order."""
    entries: list[tuple[str, Type]] = []
    if isinstance(ctx, SetExpCtx):
        for x, group in ctx.groups.items():
            for y, ty in group.items():
                entries.append((y, translate(ty, target)))
    else:
        for _x, group in ctx.groups:
            entries.extend(group)
    return Basis(tuple(entries))


def set_ctx_eq(a: SetExpCtx, b: SetExpCtx, flavor: Flavor) -> bool:
    """Literal equality as sets: same owners, same named bindings, types equal
    under the flavor."""
    if set(a.groups) != set(b.groups):
        return False
    for x, group in a.groups.items():
        other = b.groups[x]
        if set(group) != set(other):
            return False
        if not all(inter_eq(group[y], other[y], flavor) for y in group):
            return False
    return True


def ctx_match(a: ExpansionContext, b: ExpansionContext, flavor: Flavor):
    """Renamings of a's expansion variables onto b's that respect owners and
    types. Used to compare independently produced contexts.

    Set contexts: each owner's bindings are bucketed by their type's
    flavor-normal form, and the renamings are the bucket-wise bijections,
    yielded lazily, each once."""
    if isinstance(a, ListExpCtx) != isinstance(b, ListExpCtx):
        return
    if isinstance(a, ListExpCtx):
        if a.owners() != b.owners():
            return
        ren: dict[str, str] = {}
        for (_, ga), (_, gb) in zip(a.groups, b.groups):
            if len(ga) != len(gb):
                return
            for (ya, ta), (yb, tb) in zip(ga, gb):
                if ta != tb:
                    return
                ren[ya] = yb
        yield ren
        return
    # (owner, normal type) -> b's variables in that bucket; empty owner
    # groups contribute no bucket, so they match absent owners
    buckets: dict[tuple[str, InterType], list[str]] = {}
    for x, gb in b.groups.items():
        for yb, tb in gb.items():
            buckets.setdefault((x, normalize(tb, flavor)), []).append(yb)
    wanted = [
        (ya, (x, normalize(ta, flavor)))
        for x, ga in a.groups.items()
        for ya, ta in ga.items()
    ]
    if Counter(key for _, key in wanted) != {
        key: len(ys) for key, ys in buckets.items()
    }:
        return
    ren = {}
    used: set[str] = set()

    def assign(i: int):
        # each of a's variables takes an unused b variable of its bucket
        if i == len(wanted):
            yield dict(ren)
            return
        ya, key = wanted[i]
        for yb in buckets[key]:
            if yb not in used:
                used.add(yb)
                ren[ya] = yb
                yield from assign(i + 1)
                used.discard(yb)

    yield from assign(0)
