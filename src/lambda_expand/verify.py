"""Exhaustive small-term corpora and a cross-module property matrix.

The rest of the package states what single functions do; this module states
what they do *to each other*: typability against normalization, the decision
procedures against the syntactic term classes, expansion against its target
checkers and context laws, the reduction diagrams, and the substitution and
distribution identities that tie the context algebra together.

Everything here is deterministic.  Corpora are either exhaustive
enumerations of all terms up to a size cap (one representative per
alpha-equivalence class) or explicit golden lists.  Each property maps a
subject to a verdict — ``ok``, ``vacuous`` (premise unmet), ``collected``
(an anomaly the contract expects to exist and wants counted), or ``fail``.
A property reads the subject's ``Facts``: its term class, leftmost
reduction, inference, and per flavor its expansion and beta-diagram report,
each worked out the first time a property asks.  ``run_matrix`` goes
subject by subject, runs the requested properties on one record and drops
it, and returns reports, one per property in the requested order, that
serialize to JSON.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

from .terms import (
    Abs,
    App,
    FreshSupply,
    Term,
    TermClass,
    Var,
    all_names,
    alpha_eq,
    alpha_eq_renamed,
    classify,
    count_free_occurrences,
    free_vars,
    simultaneous_substitute,
    size,
)
from .reduction import ReduceResult, Strategy, beta_step, reduce
from .typelang import (
    Flavor,
    InterArrow,
    InterType,
    ListExpCtx,
    SetExpCtx,
    Target,
    TVar,
    TypeEnv,
    ctx_match,
    ctx_to_basis,
    ctx_union,
    ctx_append,
    env_eq,
    env_meet,
    env_to_set_ctx,
    set_ctx_to_env,
    translate,
)
from .systems import System, check_derivation, decide
from .intersection import InterDerivation, check_inter, infer, subject_reduce
from .expansion import (
    DiagramReport,
    ExpansionError,
    ExpansionResult,
    OrderViolation,
    expand,
    verify_beta_diagram_lambdai,
    verify_whd_diagram,
)

__all__ = [
    "CAP",
    "CapExceeded",
    "enumerate_terms",
    "enumerate_types",
    "enumerate_environments",
    "Corpus",
    "enumerated_corpus",
    "golden_corpus",
    "FILTERS",
    "Facts",
    "Verdict",
    "PropertyReport",
    "PROPERTIES",
    "run_matrix",
    "summarize",
    "reports_to_json",
    "env_union_distributes",
    "collapse_distributes",
    "substitution_composes",
]


# --------------------------------------------------------------------------
# term enumeration

CAP = 9
"""Hard ceiling on enumeration size (constructor count).  Counts grow fast
enough that anything beyond this stops being a "desk check" and starts being
a batch job."""


class CapExceeded(ValueError):
    """Requested an enumeration larger than the size cap."""


def enumerate_terms(max_size: int, closed_only: bool = True) -> list[Term]:
    """Every term of size at most ``max_size``, one per alpha class.

    Size is the constructor count (variables, abstractions and applications
    all cost one).  Binders are named ``x1, x2, ...`` by nesting depth and
    free variables ``v1, v2, ...`` in order of first occurrence, so the
    naming is canonical: two distinct results are never alpha-equivalent,
    and every alpha class of the right size has exactly one representative.
    """
    if max_size > CAP:
        raise CapExceeded(f"max_size {max_size} exceeds the enumeration cap {CAP}")

    def gen(n: int, depth: int, frees: int) -> Iterator[tuple[Term, int]]:
        # Yields (term, frees') with the free-variable counter threaded
        # left to right, which pins first-occurrence naming.
        if n == 1:
            for k in range(1, depth + 1):
                yield Var(f"x{k}"), frees
            if not closed_only:
                for j in range(1, frees + 1):
                    yield Var(f"v{j}"), frees
                yield Var(f"v{frees + 1}"), frees + 1
            return
        for body, f2 in gen(n - 1, depth + 1, frees):
            yield Abs(f"x{depth + 1}", body), f2
        for i in range(1, n - 1):
            for fun, f1 in gen(i, depth, frees):
                for arg, f2 in gen(n - 1 - i, depth, f1):
                    yield App(fun, arg), f2

    out: list[Term] = []
    for n in range(1, max_size + 1):
        out.extend(t for t, _ in gen(n, 0, 0))
    return out


def enumerate_types(
    max_depth: int, max_arity: int, atoms: tuple[str, ...] = ("a", "b")
) -> list[InterType]:
    """All intersection types over ``atoms`` with bounded shape.

    Atoms have depth one; an arrow is one deeper than its deepest part and
    carries between one and ``max_arity`` domain members.
    """
    current: list[InterType] = [TVar(a) for a in atoms]
    for _ in range(max_depth - 1):
        grown = list(current)
        for n in range(1, max_arity + 1):
            for doms in itertools.product(current, repeat=n):
                for cod in current:
                    grown.append(InterArrow(tuple(doms), cod))
        current = list(dict.fromkeys(grown))
    return current


def enumerate_environments(
    variables: tuple[str, ...], types: Iterable[InterType], max_arity: int
) -> Iterator[TypeEnv]:
    """Every environment over ``variables`` whose member lists draw from
    ``types`` with at most ``max_arity`` members each; variables may also be
    absent entirely."""
    pool = list(types)
    options: list[tuple[InterType, ...] | None] = [None]
    for n in range(1, max_arity + 1):
        options.extend(itertools.product(pool, repeat=n))
    for combo in itertools.product(options, repeat=len(variables)):
        yield {v: ms for v, ms in zip(variables, combo) if ms is not None}


# --------------------------------------------------------------------------
# corpora

@dataclass(frozen=True)
class Corpus:
    """A named list of subject terms, in a fixed order."""

    name: str
    terms: tuple[Term, ...]

    def __len__(self) -> int:
        return len(self.terms)


FILTERS: dict[str, Callable[[Term], bool]] = {
    "lambda-i": lambda t: classify(t).is_lambda_i,
    "affine": lambda t: classify(t).is_affine,
    "linear": lambda t: classify(t).is_linear,
    "typable": lambda t: infer(t) is not None,
}
"""Named corpus filters; "typable" means intersection-typable within the
default fuel, which for terms this small is the same as normalizing."""


def enumerated_corpus(
    max_size: int,
    closed_only: bool = True,
    keep: str | None = None,
    name: str | None = None,
) -> Corpus:
    """Exhaustive corpus up to ``max_size``, optionally through a named
    filter from ``FILTERS``."""
    terms: Iterable[Term] = enumerate_terms(max_size, closed_only=closed_only)
    if keep is not None:
        terms = filter(FILTERS[keep], terms)
    shape = "closed" if closed_only else "open"
    label = name or f"{keep or 'all'}-{shape}-le-{max_size}"
    return Corpus(label, tuple(terms))


def golden_corpus(name: str, terms: Iterable[Term]) -> Corpus:
    """Corpus from an explicit list of subject terms."""
    return Corpus(name, tuple(terms))


# --------------------------------------------------------------------------
# what the properties know about one subject

class Facts:
    """One subject and the facts the properties ask about it.

    Each fact is worked out the first time a property asks and kept until
    the record is dropped.  A computation that raises keeps nothing, so
    every property that asks meets the same exception.
    """

    def __init__(self, term: Term) -> None:
        self.term = term
        self._per_flavor: dict[tuple[Callable, Flavor], object] = {}

    @staticmethod
    def of(subject: Term | Facts) -> Facts:
        """The record of a subject; a bare term gets a fresh one."""
        return subject if isinstance(subject, Facts) else Facts(subject)

    @cached_property
    def term_class(self) -> TermClass:
        return classify(self.term)

    @cached_property
    def leftmost(self) -> ReduceResult:
        return reduce(self.term, Strategy.LEFTMOST)

    @cached_property
    def derivation(self) -> InterDerivation | None:
        return infer(self.term)

    def expansion(self, flavor: Flavor) -> ExpansionResult:
        """The derivation's expansion; it needs a derivation."""
        return self._flavored(expand, flavor)

    def beta_diagram(self, flavor: Flavor) -> DiagramReport:
        """The beta-diagram report at the verifier's default fuel, drawn from
        the record's expansion; it needs a derivation."""
        return self._flavored(verify_beta_diagram_lambdai, flavor, self.expansion(flavor))

    def _flavored(self, compute: Callable, flavor: Flavor, *given: object):
        key = (compute, flavor)
        if key not in self._per_flavor:
            self._per_flavor[key] = compute(self.derivation, *given, flavor)
        return self._per_flavor[key]


# --------------------------------------------------------------------------
# verdicts and reports

_STATUSES = ("ok", "vacuous", "collected", "fail")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property on one subject.

    ``vacuous`` means the property's premise did not apply; ``collected``
    means an anomaly that the contract expects to occur and wants counted
    rather than hidden (it does not fail the report on its own).
    """

    subject: Term
    status: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class PropertyReport:
    """All verdicts of one property over one corpus."""

    prop: str
    corpus: str
    verdicts: tuple[Verdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def tally(self, status: str) -> int:
        return sum(1 for v in self.verdicts if v.status == status)

    def failures(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "fail"]

    def collected(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "collected"]

    def to_dict(self) -> dict:
        from .syntax import render_term

        return {
            "property": self.prop,
            "corpus": self.corpus,
            "instances": len(self.verdicts),
            "ok": self.tally("ok"),
            "vacuous": self.tally("vacuous"),
            "collected": [
                {"term": render_term(v.subject), "note": v.note}
                for v in self.collected()
            ],
            "failures": [
                {"term": render_term(v.subject), "note": v.note}
                for v in self.failures()
            ],
            "passed": self.ok,
        }


def run_matrix(
    corpus: Corpus, properties: Iterable[str] | None = None
) -> tuple[PropertyReport, ...]:
    """Run every requested property over every corpus term.

    The run goes subject by subject: one ``Facts`` record serves all the
    requested properties of a subject and is dropped before the next.  The
    reports come one per property, in the requested order.  The result
    depends only on the corpus and the property list; reruns produce
    identical reports.  A property that raises on a subject gets a
    ``fail`` verdict there whose note names the exception, and the run
    goes on.
    """
    ids = list(properties) if properties is not None else list(PROPERTIES)
    unknown = [p for p in ids if p not in PROPERTIES]
    if unknown:
        raise KeyError(f"unknown properties: {unknown}")
    fns = [PROPERTIES[pid] for pid in ids]
    columns: list[list[Verdict]] = [[] for _ in ids]
    for t in corpus.terms:
        facts = Facts(t)
        for fn, column in zip(fns, columns):
            column.append(_run_property(fn, facts))
    return tuple(
        PropertyReport(pid, corpus.name, tuple(column))
        for pid, column in zip(ids, columns)
    )


def _run_property(fn, facts: Facts) -> Verdict:
    try:
        return Verdict(facts.term, *fn(facts))
    except Exception as e:
        return Verdict(facts.term, "fail", f"{type(e).__name__}: {e}")


def summarize(reports: Iterable[PropertyReport]) -> str:
    """Fixed-width text table, one row per report."""
    rows = [("property", "corpus", "cases", "ok", "vacuous", "collected", "fail")]
    for r in reports:
        rows.append(
            (
                r.prop,
                r.corpus,
                str(len(r.verdicts)),
                str(r.tally("ok")),
                str(r.tally("vacuous")),
                str(r.tally("collected")),
                str(r.tally("fail")),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def reports_to_json(reports: Iterable[PropertyReport]) -> str:
    return json.dumps({"reports": [r.to_dict() for r in reports]})


# --------------------------------------------------------------------------
# context-algebra identities

def env_union_distributes(g1: TypeEnv, g2: TypeEnv) -> tuple[bool, str]:
    """Drawing fresh variables for two environments separately and joining
    the results matches drawing for their meet, up to renaming."""
    reserved = set(g1) | set(g2)
    supply = FreshSupply(reserved)
    left = ctx_union(env_to_set_ctx(g1, supply), env_to_set_ctx(g2, supply))
    right = env_to_set_ctx(env_meet(g1, g2), FreshSupply(reserved))
    for _ in ctx_match(left, right, Flavor.AC):
        return True, ""
    return False, "union of the drawn contexts differs from drawing for the meet"


def collapse_distributes(g1: TypeEnv, g2: TypeEnv) -> tuple[bool, str]:
    """Collapsing two disjointly drawn contexts back onto their owners
    commutes with joining them first."""
    reserved = set(g1) | set(g2)
    supply = FreshSupply(reserved)
    a1 = env_to_set_ctx(g1, supply)
    a2 = env_to_set_ctx(g2, supply)
    lhs = env_meet(set_ctx_to_env(a1), set_ctx_to_env(a2))
    rhs = set_ctx_to_env(ctx_union(a1, a2))
    if env_eq(lhs, rhs, Flavor.AC):
        return True, ""
    return False, "meet of the collapses differs from collapsing the union"


# --------------------------------------------------------------------------
# substitution composition (two routes to an expansion of a contractum)

def substitution_composes(subject: Term | Facts, flavor: Flavor) -> tuple[str, str]:
    """Compare two routes from a top-level redex to an expansion of its
    contractum, starting from the subject's derivation.

    Route one expands the body and the argument premises separately with a
    shared supply and substitutes each drawn variable of the bound name by
    its own copy of the expanded argument, joining the leftover contexts.
    Route two contracts the redex first, transports the derivation, and
    expands the result.  The two must agree up to renaming of the drawn
    variables.
    """
    facts = Facts.of(subject)
    match facts.term:
        case App(fun=Abs(), arg=_):
            pass
        case _:
            return "vacuous", "not a top-level redex"
    d = facts.derivation
    if d is None:
        return "vacuous", "no derivation"
    if flavor is Flavor.A and not facts.term_class.is_lambda_i:
        return "vacuous", "the ordered route is stated on lambda-I subjects"
    redex_fun = d.premises[0]
    args = list(d.premises[1:])
    body = redex_fun.premises[0]
    x = d.subject.fun.binder
    supply = FreshSupply(all_names(d.subject))

    try:
        rb = expand(body, flavor, supply=supply)
    except OrderViolation as exc:
        return "collected", f"order violation expanding the body: {exc}"

    try:
        if flavor is Flavor.A:
            composed = _compose_ordered(rb, x, args, supply)
        else:
            composed = _compose_set(rb, x, args, flavor, supply)
    except OrderViolation as exc:
        return "collected", f"order violation expanding an argument: {exc}"
    if isinstance(composed, str):
        return "collected", composed
    rhs_term, rhs_ctx = composed

    reduct = beta_step(d.subject, ())
    d2 = subject_reduce(d, reduct, ())
    try:
        r2 = expand(d2, flavor)
    except OrderViolation as exc:
        return "collected", f"order violation on the direct route: {exc}"

    if rb.ty != r2.ty:
        return "fail", "the two routes give different result types"
    # some renaming of the contexts carries route one onto route two
    renamings = ctx_match(rhs_ctx, r2.context, flavor)
    if any(alpha_eq_renamed(rhs_term, ren, r2.expanded) for ren in renamings):
        return "ok", ""
    return "fail", "substituting expanded parts differs from expanding the reduct"


def _compose_set(
    rb, x: str, args: list[InterDerivation], flavor: Flavor, supply: FreshSupply
) -> tuple[Term, SetExpCtx]:
    """Set-context composition: pair each drawn variable of ``x`` with an
    argument premise of the same type, expand, substitute, join."""
    xgroup = dict(rb.context.groups.get(x, {}))
    rest = SetExpCtx({v: dict(g) for v, g in rb.context.groups.items() if v != x})
    pool: list[InterDerivation | None] = list(args)
    bindings: list[tuple[str, Term]] = []
    ctxs: list[SetExpCtx] = []
    for y, ty in xgroup.items():
        for i, p in enumerate(pool):
            if p is not None and p.ty == ty:
                pool[i] = None
                ra = expand(p, flavor, supply=supply)
                bindings.append((y, ra.expanded))
                ctxs.append(ra.context)
                break
        else:
            raise ExpansionError(f"no argument premise at the type drawn for {y}")
    rhs_term = simultaneous_substitute(rb.expanded, bindings)
    rhs_ctx = rest
    for c in ctxs:
        rhs_ctx = ctx_union(rhs_ctx, c)
    return rhs_term, rhs_ctx


def _compose_ordered(
    rb, x: str, args: list[InterDerivation], supply: FreshSupply
) -> tuple[Term, ListExpCtx] | str:
    """Ordered composition: splice the argument contexts at the position of
    the group the bound name owns.  Returns a note instead when the body's
    context does not present that group contiguously."""
    groups = [(v, list(g)) for v, g in rb.context.groups]
    idxs = [i for i, (v, _) in enumerate(groups) if v == x]
    if len(idxs) != 1:
        return (
            "the bound name's drawn variables are not one contiguous group, "
            "so the spliced form is not defined on this instance"
        )
    idx = idxs[0]
    entries = groups[idx][1]
    if len(entries) != len(args):
        raise ExpansionError("drawn-variable count differs from premise count")
    bindings: list[tuple[str, Term]] = []
    arg_ctxs: list[ListExpCtx] = []
    for (y, oty), p in zip(entries, args):
        if translate(p.ty, Target.ORDERED) != oty:
            raise ExpansionError(f"premise type does not match the type drawn for {y}")
        ra = expand(p, Flavor.A, supply=supply)
        bindings.append((y, ra.expanded))
        arg_ctxs.append(ra.context)
    rhs_term = simultaneous_substitute(rb.expanded, bindings)
    rhs_ctx = ListExpCtx([(v, list(g)) for v, g in groups[:idx]])
    for c in arg_ctxs:
        rhs_ctx = ctx_append(rhs_ctx, c)
    rhs_ctx = ctx_append(rhs_ctx, ListExpCtx([(v, list(g)) for v, g in groups[idx + 1 :]]))
    return rhs_term, rhs_ctx


# --------------------------------------------------------------------------
# per-term properties

_FLAVOR_LABEL = {Flavor.ACI: "aci", Flavor.AC: "ac", Flavor.A: "ordered"}


def _typable_iff_normalizing(f: Facts) -> tuple[str, str]:
    d = f.derivation
    normalizes = f.leftmost.status == "normal-form"
    if (d is not None) == normalizes:
        return "ok", ""
    return (
        "fail",
        f"inference {'succeeded' if d is not None else 'failed'} but leftmost "
        f"reduction {'terminated' if normalizes else 'did not terminate'}",
    )


def _inference_replay_checks(f: Facts) -> tuple[str, str]:
    d = f.derivation
    if d is None:
        return "vacuous", "no derivation"
    if not alpha_eq(d.subject, f.term):
        return "fail", "inference changed the subject"
    if set(d.environment()) != set(free_vars(d.subject)):
        return "fail", "environment does not cover exactly the free names"
    for flavor in (Flavor.ACI, Flavor.AC, Flavor.A):
        res = check_inter(d, flavor)
        if not res.ok:
            return "fail", f"{_FLAVOR_LABEL[flavor]} check: {res.reason}"
    if f.leftmost.status != "normal-form":
        return "fail", "typable subject did not normalize"
    return "ok", ""


def _decision_matches(f: Facts, system: System) -> tuple[str, str]:
    wanted = f.term_class.is_affine if system is System.AFFINE else f.term_class.is_linear
    got = decide(system, f.term)
    if (got is not None) != wanted:
        verb = "accepted" if got is not None else "rejected"
        return "fail", f"{system.value} decision {verb} a term the class says otherwise"
    if got is not None:
        res = check_derivation(got)
        if not res.ok:
            return "fail", f"returned derivation fails its checker: {res.reason}"
        if not alpha_eq(got.subject, f.term):
            return "fail", "decision changed the subject"
    return "ok", ""


_TARGETS = {Flavor.ACI: Target.SIMPLE, Flavor.AC: Target.LINEAR, Flavor.A: Target.ORDERED}


def _flavored_or_verdict(f: Facts, flavor: Flavor, fact: Callable[[Flavor], object]):
    """Shared premise: a per-flavor fact of the record (its expansion or
    beta-diagram report), or an early verdict."""
    if f.derivation is None:
        return "vacuous", "no derivation"
    if flavor is Flavor.A and not f.term_class.is_lambda_i:
        return "vacuous", "ordered expansion needs a lambda-I subject"
    try:
        return fact(flavor)
    except OrderViolation as exc:
        return "collected", f"order violation: {exc}"


def _expansion_checks(f: Facts, flavor: Flavor) -> tuple[str, str]:
    r = _flavored_or_verdict(f, flavor, f.expansion)
    if isinstance(r, tuple):
        return r
    lambda_i = f.term_class.is_lambda_i
    res = check_derivation(r.induced)
    if not res.ok:
        return "fail", f"induced derivation fails its checker: {res.reason}"
    if r.ty != translate(f.derivation.ty, _TARGETS[flavor]):
        return "fail", "result type is not the translated source type"
    if r.induced.basis != ctx_to_basis(r.context, _TARGETS[flavor]):
        return "fail", "induced basis does not render the context"
    if not alpha_eq(r.induced.subject, r.expanded):
        return "fail", "induced derivation is not about the expanded term"
    if flavor is not Flavor.A and lambda_i:
        if r.strict is None:
            return "fail", "lambda-I subject lost its strict derivation"
        strict_res = check_derivation(r.strict)
        if not strict_res.ok:
            return "fail", f"strict derivation fails: {strict_res.reason}"
    want = classify(r.expanded)
    if flavor is Flavor.ACI and lambda_i and not want.is_lambda_i:
        return "fail", "expansion of a lambda-I subject left lambda-I"
    if flavor is Flavor.AC and not want.is_affine:
        return "fail", "multiset expansion produced a non-affine term"
    if flavor is Flavor.A and not want.is_linear:
        return "fail", "ordered expansion produced a non-linear term"
    return "ok", ""


def _expansion_context_laws(f: Facts, flavor: Flavor) -> tuple[str, str]:
    r = _flavored_or_verdict(f, flavor, f.expansion)
    if isinstance(r, tuple):
        return r
    d = f.derivation
    drawn = env_to_set_ctx(d.environment(), FreshSupply(all_names(d.subject)))
    if not any(True for _ in ctx_match(r.context, drawn, flavor)):
        return "fail", "context differs from drawing fresh names for the environment"
    if not env_eq(set_ctx_to_env(r.context), d.environment(), flavor):
        return "fail", "collapsing the context does not give back the environment"
    return "ok", ""


def _expansion_occurrences(f: Facts, flavor: Flavor) -> tuple[str, str]:
    r = _flavored_or_verdict(f, flavor, f.expansion)
    if isinstance(r, tuple):
        return r
    subject = f.derivation.subject
    if flavor is Flavor.A:
        groups = [(v, [y for y, _ in g]) for v, g in r.context.groups]
    else:
        groups = [(v, list(g)) for v, g in r.context.groups.items()]
    seen: dict[str, int] = {}
    for owner, names in groups:
        seen[owner] = seen.get(owner, 0) + len(names)
        for y in names:
            c = count_free_occurrences(r.expanded, y)
            if flavor is Flavor.ACI:
                if c < 1:
                    return "fail", f"drawn variable {y} vanished from the expansion"
            elif c != 1:
                return "fail", f"drawn variable {y} occurs {c} times, wanted exactly 1"
    for owner in free_vars(subject):
        if owner not in seen:
            return "fail", f"free name {owner} drew no variables"
    for owner, k in seen.items():
        occ = count_free_occurrences(subject, owner)
        if occ == 0:
            return "fail", f"{owner} owns drawn variables but never occurs"
        if k < occ:
            return "fail", f"{owner}: {k} drawn variables for {occ} occurrences"
    return "ok", ""


def _whd_diagram(f: Facts, flavor: Flavor) -> tuple[str, str]:
    if f.derivation is None:
        return "vacuous", "no derivation"
    rep = verify_whd_diagram(f.derivation, flavor, fuel=1000)
    if rep.ok:
        return "ok", ""
    bad = next(s for s in rep.steps if not s.ok)
    return "fail", bad.reason or "weak-head step did not close"


def _beta_diagram_li(f: Facts, flavor: Flavor) -> tuple[str, str]:
    if not f.term_class.is_lambda_i:
        return "vacuous", "not a lambda-I term"
    rep = _flavored_or_verdict(f, flavor, f.beta_diagram)
    if isinstance(rep, tuple):
        return rep
    if rep.ok:
        return "ok", ""
    bad = next(s for s in rep.steps if not s.ok)
    return "fail", bad.reason or "beta step did not close"


def _beta_diagram_unrestricted(f: Facts, flavor: Flavor) -> tuple[str, str]:
    rep = _flavored_or_verdict(f, flavor, f.beta_diagram)
    if isinstance(rep, tuple):
        return rep
    if rep.ok:
        return "ok", ""
    if f.term_class.is_lambda_i:
        bad = next(s for s in rep.steps if not s.ok)
        return "fail", bad.reason or "beta step did not close on a lambda-I term"
    return "collected", "erasing step does not preserve the context, as documented"


def _linear_steps_bounded(f: Facts) -> tuple[str, str]:
    if not f.term_class.is_linear:
        return "vacuous", "not a linear term"
    bound = size(f.term)
    r = f.leftmost
    if r.status != "normal-form":
        return "fail", "linear term did not normalize"
    steps = len(r.trace)
    if steps > bound:
        return "fail", f"{steps} steps for size {bound}"
    return "ok", ""


def _property(check: Callable[..., tuple[str, str]], *args):
    """A registry entry: ``check`` on the subject's record, which a bare
    term gets fresh."""
    return lambda subject: check(Facts.of(subject), *args)


PROPERTIES: dict[str, Callable[[Term | Facts], tuple[str, str]]] = {
    "typable-iff-leftmost-normalizes": _property(_typable_iff_normalizing),
    "inference-replay-checks": _property(_inference_replay_checks),
    "affine-decision-matches-term-class": _property(_decision_matches, System.AFFINE),
    "linear-decision-matches-term-class": _property(_decision_matches, System.LINEAR),
    "expansion-checks-aci": _property(_expansion_checks, Flavor.ACI),
    "expansion-checks-ac": _property(_expansion_checks, Flavor.AC),
    "expansion-checks-ordered": _property(_expansion_checks, Flavor.A),
    "expansion-context-laws-aci": _property(_expansion_context_laws, Flavor.ACI),
    "expansion-context-laws-ac": _property(_expansion_context_laws, Flavor.AC),
    "expansion-occurrences-aci": _property(_expansion_occurrences, Flavor.ACI),
    "expansion-occurrences-ac": _property(_expansion_occurrences, Flavor.AC),
    "expansion-occurrences-ordered": _property(_expansion_occurrences, Flavor.A),
    "whd-diagram-aci": _property(_whd_diagram, Flavor.ACI),
    "whd-diagram-ac": _property(_whd_diagram, Flavor.AC),
    "beta-diagram-li-aci": _property(_beta_diagram_li, Flavor.ACI),
    "beta-diagram-li-ac": _property(_beta_diagram_li, Flavor.AC),
    "beta-diagram-li-ordered": _property(_beta_diagram_li, Flavor.A),
    "beta-diagram-unrestricted-aci": _property(_beta_diagram_unrestricted, Flavor.ACI),
    "beta-diagram-unrestricted-ac": _property(_beta_diagram_unrestricted, Flavor.AC),
    "substitution-composes-aci": _property(substitution_composes, Flavor.ACI),
    "substitution-composes-ac": _property(substitution_composes, Flavor.AC),
    "substitution-composes-ordered": _property(substitution_composes, Flavor.A),
    "linear-leftmost-steps-bounded": _property(_linear_steps_bounded),
}
"""Registry of executable properties, keyed by what each one claims."""
