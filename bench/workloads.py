"""The four workloads: their inputs, their operations and the checks on
each operation's output.

A workload builds its inputs once (``build``) and then yields the same list
of operations for every round (``operations``). An operation is a callable
that returns ``(ok, output)``: ``ok`` is False when the program reports that
it could not do what was asked (a ``fail`` verdict, a rejected derivation, a
refused expansion); an exception also counts as a failed operation. The
output of every operation that did not fail goes through ``check``, which
returns a list of problems (empty when the output is right).

Every lambda_expand function is reached through its module at call time
(``intersection.infer``, not a name bound at import), so the tracer's
stand-ins are the ones called in a traced run.
"""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref

from lambda_expand import cli, expansion, intersection, reduction, syntax, systems, typelang, verify


@dataclass
class Operation:
    label: str
    run: Callable[[], tuple[bool, Any]]
    check: Callable[[Any], list[str]] = lambda out: []


class Workload:
    # labels of operations that fail today because of a known fault
    expected_failures: frozenset = frozenset()
    # distinct subject terms a round feeds to the program
    subjects = 0

    def build(self) -> None:
        raise NotImplementedError

    def expected(self, label: str) -> bool:
        """Whether the operation is one that fails today."""
        return label in self.expected_failures

    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def describe(self, label: str) -> str:
        return label

    def final_checks(self) -> list[str]:
        """Checks on the inputs themselves, run once after the rounds."""
        return []


# --------------------------------------------------------------------------
# cli-examples: the README's worked examples and acceptance criterion 1

OMEGA = "(\\x. x x)(\\x. x x)"
ORDERED_BASES = (
    "z1: a -o_r b, z2: a",
    "z2: a, z1: a -o_l b",
    "z2: a, z1: a -o_r b",
    "z1: a -o_l b, z2: a",
)


def _run_cli(argv: list[str]) -> tuple[bool, tuple[int, str, str]]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return True, (code, out.getvalue(), err.getvalue())


def _typed_line(line: str, want_term: str, want_type: str) -> list[str]:
    """``term : type`` with the term alpha-equal to want_term and the type
    equal to want_type up to renaming."""
    if " : " not in line:
        return [f"no typed term in {line!r}"]
    term_text, type_text = line.rsplit(" : ", 1)
    problems = []
    if ref.parse_term(term_text) != ref.parse_term(want_term):
        problems.append(f"term {term_text!r} is not alpha-equal to {want_term!r}")
    if not ref.types_match(ref.parse_type(type_text), ref.parse_type(want_type)):
        problems.append(f"type {type_text!r} does not match {want_type!r}")
    return problems


def _expect(code: int, *line_checks):
    """Check of a CLI result: the exit code, then each (line index, check)."""
    def check(result) -> list[str]:
        got, out, err = result
        if got != code:
            return [f"exit code {got}, documented {code}; stderr {err.strip()!r}"]
        lines = out.splitlines()
        problems = []
        for index, line_check in line_checks:
            if index >= len(lines):
                problems.append(f"output has no line {index}: {out!r}")
            else:
                problems.extend(line_check(lines[index]))
        return problems

    return check


def _equals(text: str):
    return lambda line: [] if line == text else [f"{line!r} is not {text!r}"]


def _alpha(text: str):
    return lambda line: (
        [] if ref.parse_term(line) == ref.parse_term(text) else [f"{line!r} is not alpha-equal to {text!r}"]
    )


def _typed(term: str, ty: str):
    return lambda line: _typed_line(line, term, ty)


def _valid(term: str, ty: str):
    def check(line: str) -> list[str]:
        if not line.startswith("valid: "):
            return [f"{line!r} is not a valid judgment"]
        return _typed_line(line[len("valid: "):], term, ty)

    return check


def _check_reduce_trace(result) -> list[str]:
    code, out, _ = result
    lines = out.splitlines()
    start = ref.parse_term("(\\x. x x) (\\y. y)")
    want, steps = ref.normalize(start)
    if code != 0:
        return [f"exit code {code}, documented 0"]
    if lines[-1] != f"[normal-form after {steps} steps]":
        return [f"last line {lines[-1]!r}, want {steps} steps to a normal form"]
    problems = []
    cur = start
    for line in lines[1:-1]:
        cur = ref.leftmost_step(cur)
        if not line.startswith("-> ") or ref.parse_term(line[3:]) != cur:
            problems.append(f"step {line!r} is not the leftmost reduct")
    if cur != want:
        problems.append("trace does not end in the normal form")
    return problems


def _check_omega(result) -> list[str]:
    code, _, err = result
    if code != 2:
        return [f"exit code {code} on a term without normal form, documented 2"]
    if "no derivation within fuel 10000" not in err:
        return [f"stderr {err!r} does not report the fuel"]
    return []


def _check_json_infer(result) -> list[str]:
    code, out, _ = result
    if code != 0:
        return [f"exit code {code}, documented 0"]
    doc = json.loads(out)
    value = doc.get("value", {})
    problems = []
    if doc.get("schema") != "lambda-expand/v1":
        problems.append(f"schema {doc.get('schema')!r}")
    if value.get("kind") != "inter-derivation":
        problems.append(f"value kind {value.get('kind')!r}")
    elif ref.from_json(value["subject"]) != ref.parse_term("\\x. x x"):
        problems.append("subject is not \\x. x x")
    elif not ref.types_match(ref.type_from_json(value["type"]), ref.parse_type("a & (a -> b) -> b")):
        problems.append("type does not match a & (a -> b) -> b")
    return problems


class CliExamples(Workload):
    def build(self) -> None:
        ac_term = "(\\f. f (\\x. x x) (f (\\x.x)))(\\x.x)"
        ac_expanded = (
            "(\\f1 f2 f3. f1 (\\x1 x2. x1 x2) (f2 (\\x. x)) (f3 (\\x. x)))"
            " (\\x. x) (\\x. x) (\\x. x)"
        )
        self.commands = [
            ("parse", ["parse", "λx. x x"], _expect(0, (0, _alpha("\\x. x x")))),
            ("reduce", ["reduce", "(\\x. x x) (\\y. y)"], _check_reduce_trace),
            ("check-linear", ["check", "--system", "linear", "\\x. \\y. x"],
             _expect(1, (0, _equals("invalid")))),
        ]
        for i, basis in enumerate(ORDERED_BASES):
            code = 0 if i < 2 else 1
            lines = [(0, _valid("(\\x. x z2) z1", "b"))] if code == 0 else [(0, _equals("invalid"))]
            self.commands.append((
                f"check-ordered-{i + 1}",
                ["check", "--system", "ordered", "--basis", basis, "--type", "b", "(\\x. x z2) z1"],
                _expect(code, *lines),
            ))
        self.commands += [
            ("infer-self-application", ["infer", "--system", "intersection", "\\x. x x"],
             _expect(0, (0, _typed("\\x. x x", "a & (a -> b) -> b")))),
            ("infer-redex", ["infer", "--system", "intersection", "(\\x. x x)(\\x. x)"],
             _expect(0, (0, _typed("(\\x. x x)(\\x. x)", "a -> a")))),
            ("infer-omega", ["infer", "--system", "intersection", OMEGA], _check_omega),
            ("expand-aci", ["expand", "--flavor", "aci", "--type", "a -> a", "(\\x. x x)(\\x. x)"],
             _expect(0, (0, _typed("(\\x2 x3. x2 x3) (\\x4. x4) (\\x5. x5)", "a -> a")),
                     (1, _equals("context: {}")))),
            ("expand-ac", ["expand", "--flavor", "ac", "--type", "a -> a", ac_term],
             _expect(0, (0, _typed(ac_expanded, "a -o a")))),
            ("expand-ordered", ["expand", "--flavor", "ordered", "--type", "b", "(\\x. x z) z"],
             _expect(0, (0, _typed("(\\x1. x1 z1) z2", "b")),
                     (1, _equals("context: [z: [z2: a -o_r b, z1: a]]")),
                     (2, _equals("derivation (ordered): ok")))),
            ("infer-json", ["infer", "--system", "intersection", "--format", "json", "\\x. x x"],
             _check_json_infer),
        ]
        self.subjects = len({argv[-1] for _, argv, _ in self.commands})

    def operations(self) -> list[Operation]:
        return [
            Operation(label, lambda argv=argv: _run_cli(argv), check)
            for label, argv, check in self.commands
        ]


# --------------------------------------------------------------------------
# church-numerals: arithmetic whose terms grow during reduction


def _church(n: int) -> str:
    return "(\\f x. " + "f (" * n + "x" + ")" * n + ")"


PLUS = "(\\m n f x. m f (n f x))"
MULT = "(\\m n f. m (n f))"
# label, term, the numeral it computes
CHURCH_TERMS = (
    ("plus-4-4", f"{PLUS} {_church(4)} {_church(4)}", 8),
    ("mult-3-4", f"{MULT} {_church(3)} {_church(4)}", 12),
    ("pow-3-3", f"{_church(3)} {_church(3)}", 27),
    ("pow-2-4", f"{_church(4)} {_church(2)}", 16),
    ("pow-3-4", f"{_church(4)} {_church(3)}", 81),
    ("two-two-two", f"{_church(2)} {_church(2)} {_church(2)}", 16),
)
FLAVORS = (("aci", "SIMPLE"), ("ac", "LINEAR"), ("ordered", "ORDERED"))


class ChurchNumerals(Workload):
    expected_failures = frozenset(
        # infer's derivation of 2 2 2 spells its root argument premises
        # apart from the subject's argument, so every check rejects it
        [f"two-two-two/check-{f}" for f, _ in FLAVORS]
        + [f"two-two-two/expand-{f}" for f, _ in FLAVORS]
        # the induced derivation is checked recursively, past the
        # interpreter's recursion limit
        + ["pow-3-4/expand-aci", "pow-3-4/expand-ac"]
    )

    def build(self) -> None:
        self.terms = [(label, syntax.parse_term(src), n) for label, src, n in CHURCH_TERMS]
        self.subjects = len(self.terms)

    def operations(self) -> list[Operation]:
        ops = []
        for label, term, n in self.terms:
            # the derivation infer returned this round, for the later ops
            state: dict[str, Any] = {}
            ops.append(Operation(f"{label}/reduce", lambda t=term: _reduce(t),
                                 lambda r, t=term, n=n: _check_normal_form(r, t, n)))
            ops.append(Operation(f"{label}/infer", lambda t=term, s=state: _infer(t, s),
                                 lambda d, t=term: _check_subject(d, t)))
            for flavor, _ in FLAVORS:
                ops.append(Operation(f"{label}/check-{flavor}",
                                     lambda s=state, f=flavor: _check_inter(s, f)))
            for flavor, target in FLAVORS:
                ops.append(Operation(f"{label}/expand-{flavor}",
                                     lambda s=state, f=flavor: _expand(s, f),
                                     lambda r, s=state, f=flavor, g=target: _check_expansion(r, s, f, g)))
        return ops


def _flavor(name: str):
    return {"aci": typelang.Flavor.ACI, "ac": typelang.Flavor.AC, "ordered": typelang.Flavor.A}[name]


def _reduce(t):
    r = reduction.reduce(t)
    return r.status == "normal-form", r


def _check_normal_form(r, t, n: int) -> list[str]:
    want, steps = ref.normalize(ref.from_program(t))
    got = ref.from_program(r.term)
    problems = []
    if got != want:
        problems.append("normal form differs from the reference normalizer's")
    if got != ref.numeral(n):
        problems.append(f"normal form is not the numeral {n}")
    if len(r.trace) != steps:
        problems.append(f"{len(r.trace)} leftmost steps, the reference takes {steps}")
    return problems


def _infer(t, state: dict):
    state["d"] = d = intersection.infer(t)
    return d is not None, d


def _check_subject(d, t) -> list[str]:
    if ref.from_program(d.subject) != ref.from_program(t):
        return ["derivation subject is not alpha-equal to the input"]
    return []


def _check_inter(state: dict, flavor: str):
    d = state.get("d")
    if d is None:
        return False, "no derivation"
    res = intersection.check_inter(d, _flavor(flavor))
    return res.ok, res


def _expand(state: dict, flavor: str):
    """Expansion and the check of its induced derivation. The ordered
    flavor's OrderViolation is a documented refusal, not a failure."""
    d = state.get("d")
    if d is None:
        return False, "no derivation"
    try:
        r = expansion.expand(d, _flavor(flavor))
    except expansion.OrderViolation as exc:
        return flavor == "ordered", exc
    except expansion.ExpansionError as exc:
        return False, exc
    return systems.check_derivation(r.induced).ok, r


def _check_expansion(r, state: dict, flavor: str, target: str) -> list[str]:
    if isinstance(r, expansion.OrderViolation):
        return []
    problems = []
    if r.ty != typelang.translate(state["d"].ty, typelang.Target[target]):
        problems.append("type is not the translated source type")
    expanded = ref.from_program(r.expanded)
    if ref.from_program(r.induced.subject) != expanded:
        problems.append("induced derivation is not about the expanded term")
    if flavor == "ac":
        if not ref.is_affine(expanded):
            problems.append("AC expansion is not affine")
        if ref.normalize(expanded)[0] is None:
            problems.append("AC expansion does not normalize")
    return problems


# --------------------------------------------------------------------------
# matrix-open7: every property over every open term up to size 7

MATRIX_SIZE = 7
# (property, subject) pairs that fail today
MATRIX_FAILURES = {
    # subject_reduce reorders the binder's domain, so the two set-flavor
    # expansions differ in the order of their lambda prefix
    (p, "\\x1. (\\x2. x2 x1) x1")
    for p in ("beta-diagram-li-aci", "beta-diagram-li-ac",
              "beta-diagram-unrestricted-aci", "beta-diagram-unrestricted-ac")
} | {
    # subject_reduce at a non-leftmost redex raises ReplayError
    (p, "(\\x1. (\\x2. x1) x1) v1")
    for p in ("beta-diagram-unrestricted-aci", "beta-diagram-unrestricted-ac")
}


class MatrixOpen7(Workload):
    def build(self) -> None:
        self.terms = verify.enumerate_terms(MATRIX_SIZE, closed_only=False)
        self.subjects = len(self.terms)

    def describe(self, label: str) -> str:
        prop, i = label.rsplit("/", 1)
        return f"{prop} on {ref.show(ref.from_program(self.terms[int(i)]))}"

    def expected(self, label: str) -> bool:
        prop, i = label.rsplit("/", 1)
        subject = ref.from_program(self.terms[int(i)])
        return any(prop == p and subject == ref.parse_term(text) for p, text in MATRIX_FAILURES)

    def operations(self) -> list[Operation]:
        return [
            Operation(f"{prop}/{i}",
                      lambda p=prop, t=t: _verdict(p, t),
                      lambda v, p=prop, t=t: _check_verdict(p, t, v))
            for prop in verify.PROPERTIES
            for i, t in enumerate(self.terms)
        ]

    def final_checks(self) -> list[str]:
        sizes = [ref.size(ref.from_program(t)) for t in self.terms]
        return [
            f"{sizes.count(n)} enumerated terms of size {n}, the recurrence counts {ref.count_terms(n)}"
            for n in range(1, MATRIX_SIZE + 1)
            if sizes.count(n) != ref.count_terms(n)
        ] + ([] if len(sizes) == len(set(map(ref.from_program, self.terms)))
             else ["the enumeration repeats an alpha class"])


def _verdict(prop: str, t):
    status, note = verify.PROPERTIES[prop](t)
    return status != "fail", (status, note)


def _check_verdict(prop: str, t, verdict) -> list[str]:
    status, _ = verdict
    if status not in ("ok", "vacuous", "collected"):
        return [f"unknown status {status!r}"]
    if prop == "inference-replay-checks":
        typable = status != "vacuous"
        normalizes = ref.normalize(ref.from_program(t))[0] is not None
        if typable != normalizes:
            return [f"typable={typable} but the reference normalizer says normalizes={normalizes}"]
    return []


# --------------------------------------------------------------------------
# context-algebra: the distribution laws over enumerated environment pairs

# (variables, pool: (type depth, member arity, first k types), arity):
# the three dimensions of acceptance criterion 5, with the arity-three
# dimension drawing from the two atoms instead of four depth-2 types so
# that a round stays under half a second (the criterion's 7,225 pairs take
# about 30 s)
CONTEXT_DIMENSIONS = (
    (("x", "y", "z"), (1, 1, 3), 1),
    (("x",), (2, 2, 2), 3),
    (("x",), (2, 3, None), 1),
)


class ContextAlgebra(Workload):
    def build(self) -> None:
        self.pairs = []
        self.expected_pairs = 0
        for variables, (depth, type_arity, first), arity in CONTEXT_DIMENSIONS:
            pool = verify.enumerate_types(depth, type_arity)[:first]
            envs = list(verify.enumerate_environments(variables, pool, arity))
            self.pairs.extend(itertools.product(envs, repeat=2))
            pool_size = ref.count_types(depth, type_arity)
            if first is not None:
                pool_size = min(pool_size, first)
            self.expected_pairs += ref.count_environments(len(variables), pool_size, arity) ** 2

    def operations(self) -> list[Operation]:
        return [
            Operation(f"pair/{i}", lambda g1=g1, g2=g2: _laws(g1, g2))
            for i, (g1, g2) in enumerate(self.pairs)
        ]

    def final_checks(self) -> list[str]:
        if len(self.pairs) != self.expected_pairs:
            return [f"{len(self.pairs)} environment pairs, the formula counts {self.expected_pairs}"]
        return []


def _laws(g1, g2):
    union, why_union = verify.env_union_distributes(g1, g2)
    collapse, why_collapse = verify.collapse_distributes(g1, g2)
    return union and collapse, (why_union, why_collapse)


WORKLOADS = {
    "cli-examples": CliExamples,
    "church-numerals": ChurchNumerals,
    "matrix-open7": MatrixOpen7,
    "context-algebra": ContextAlgebra,
}
