"""The package-level acceptance gate.

Each test exercises one clause of the package contract end to end — the
worked examples through the command line, the exhaustive sweeps through the
verification matrix, the context-algebra identities over enumerated inputs —
and prints a single PASS or FAIL line.  Run with ``pytest -s
tests/test_acceptance.py`` to watch the lines stream; a plain ``pytest`` run
still enforces everything.
"""

import io
import itertools
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from lambda_expand.cli import main
from lambda_expand.expansion import verify_beta_diagram_lambdai
from lambda_expand.intersection import infer
from lambda_expand.syntax import parse_inter_type, parse_ordered_type, parse_term
from lambda_expand.terms import Abs, App, alpha_eq, classify
from lambda_expand.typelang import Flavor, ListExpCtx, ctx_append, inter_eq
from lambda_expand.verify import (
    collapse_distributes,
    enumerate_environments,
    enumerate_terms,
    enumerate_types,
    enumerated_corpus,
    env_union_distributes,
    golden_corpus,
    run_matrix,
    substitution_composes,
    summarize,
)


@contextmanager
def criterion(label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}  [{time.perf_counter() - started:.1f}s]")


@contextmanager
def under(seconds):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"took {elapsed:.2f}s, limit {seconds:.0f}s"


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().rstrip("\n"), err.getvalue().rstrip("\n")


def test_criterion_1_worked_examples_through_the_cli():
    with criterion("1: worked examples reproduce through the CLI, under a second each"):
        # a duplicated argument unfolds into two abstractions over one use each
        with under(1.0):
            code, out, _ = cli(
                "expand", "--flavor", "aci", "--type", "a -> a", "(\\x. x x)(\\x. x)"
            )
            assert code == 0
            term_text, ty_text = out.splitlines()[0].rsplit(" : ", 1)
            assert ty_text == "a -> a"
            assert alpha_eq(
                parse_term(term_text), parse_term("(\\x1 x2. x1 x2)(\\x. x)(\\x. x)")
            )
            assert "context: {}" in out

        # a twice-used function argument triples, once per call site type
        with under(1.0):
            code, out, _ = cli(
                "expand", "--flavor", "ac", "--type", "a -> a",
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

        # sequence-shaped context: the copies of z arrive in discharge order
        with under(1.0):
            code, out, _ = cli("expand", "--flavor", "ordered", "--type", "b", "(\\x. x z) z")
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "(\\x1. x1 z1) z2 : b"
            assert lines[1] == "context: [z: [z2: a -o_r b, z1: a]]"
            assert lines[2] == "derivation (ordered): ok"

        # the four assumption orderings: two admit a derivation, two do not
        with under(1.0):
            verdicts = [
                cli(
                    "check", "--system", "ordered", "--basis", basis,
                    "--type", "b", "(\\x. x z2) z1",
                )[0]
                for basis in (
                    "z1: a -o_r b, z2: a",
                    "z2: a, z1: a -o_l b",
                    "z2: a, z1: a -o_r b",
                    "z1: a -o_l b, z2: a",
                )
            ]
            assert verdicts == [0, 0, 1, 1]

        # inference: self-application, a normalizing redex, and a loop
        with under(1.0):
            code, out, _ = cli("infer", "--system", "intersection", "\\x. x x")
            assert code == 0
            got = parse_inter_type(out.splitlines()[0].split(" : ", 1)[1])
            assert inter_eq(got, parse_inter_type("(a & (a -> b)) -> b"), Flavor.AC)

            code, out, _ = cli("infer", "--system", "intersection", "(\\x. x x)(\\x. x)")
            assert code == 0
            assert out.splitlines()[0].endswith(" : a -> a")

            code, _, err = cli("infer", "--system", "intersection", "(\\x. x x)(\\x. x x)")
            assert code == 2 and "fuel" in err


def test_criterion_2_characterization_of_every_closed_term_to_size_7():
    with criterion(
        "2: decision procedures and inference characterize every closed term of size <= 7"
    ):
        with under(300.0):
            corpus = enumerated_corpus(7, closed_only=True)
            assert len(corpus.terms) == 201  # count certified by the oracle tests
            reports = run_matrix(
                corpus,
                [
                    "affine-decision-matches-term-class",
                    "linear-decision-matches-term-class",
                    "typable-iff-leftmost-normalizes",
                    "inference-replay-checks",
                ],
            )
            bad = [r for r in reports if not r.ok]
            assert not bad, summarize(bad)


def test_criterion_3_expansion_of_every_typable_term_to_size_6():
    with criterion(
        "3: expansion checks, context laws, and occurrence bounds on every typable term of size <= 6"
    ):
        corpus = enumerated_corpus(6, closed_only=False, keep="typable")
        reports = run_matrix(
            corpus,
            [
                "expansion-checks-aci",
                "expansion-checks-ac",
                "expansion-checks-ordered",
                "expansion-context-laws-aci",
                "expansion-context-laws-ac",
                "expansion-occurrences-aci",
                "expansion-occurrences-ac",
                "expansion-occurrences-ordered",
            ],
        )
        bad = [r for r in reports if not r.ok]
        assert not bad, summarize(bad)

        # The sequence-context flavor may refuse terms whose variable groups
        # cannot stay contiguous; those instances are counted, never failed,
        # and none of them may touch the worked examples.
        ordered = next(r for r in reports if r.prop == "expansion-checks-ordered")
        assert ordered.tally("fail") == 0
        worked = {
            "expansion-checks-aci": "(\\x. x x)(\\x. x)",
            "expansion-checks-ac": "(\\f. f (\\x. x x) (f (\\x.x)))(\\x.x)",
            "expansion-checks-ordered": "(\\x. x z) z",
        }
        for prop, text in worked.items():
            rep, = run_matrix(golden_corpus("worked-examples", [parse_term(text)]), [prop])
            assert rep.tally("ok") == 1, summarize([rep])


def test_criterion_4_reduction_diagrams_close():
    with criterion(
        "4: reduction diagrams close on every typable term of size <= 6;"
        " the erasing counterexample fails as documented"
    ):
        corpus = enumerated_corpus(6, closed_only=False, keep="typable")
        reports = run_matrix(
            corpus,
            [
                "whd-diagram-aci",
                "whd-diagram-ac",
                "beta-diagram-li-aci",
                "beta-diagram-li-ac",
                "beta-diagram-li-ordered",
            ],
        )
        bad = [r for r in reports if not r.ok]
        assert not bad, summarize(bad)

        # Negative control: a step that erases a binder.  Its expansion must
        # NOT reach the reduct's expansion over the same context.
        control = parse_term("\\x. (\\y. z) x x")
        assert not classify(control).is_lambda_i
        for flavor in (Flavor.ACI, Flavor.AC):
            rep = verify_beta_diagram_lambdai(infer(control), flavor, fuel=1000)
            assert not rep.ok, f"erasing step unexpectedly closed under {flavor}"
        for prop in ("beta-diagram-unrestricted-aci", "beta-diagram-unrestricted-ac"):
            rep, = run_matrix(golden_corpus("erasing-control", [control]), [prop])
            assert rep.tally("collected") == 1


def test_criterion_5_context_algebra_identities():
    with criterion(
        "5: distribution, substitution-composition, and append identities over enumerated inputs"
    ):
        # Distribution laws.  The full environment space at the caps (three
        # variables x arity three x the 30-type depth-2 pool) is beyond
        # exhausting, so each dimension is pushed to its cap in turn while
        # the others stay small enough to cross completely.
        dimensions = [
            # three variables, single-member entries, atoms and one arrow
            (("x", "y", "z"), enumerate_types(1, 1)[:3], 1),
            # one variable, members drawn three at a time from depth-2 types
            (("x",), enumerate_types(2, 2)[:4], 3),
            # one variable, every depth-2 type with up to three-way members
            (("x",), enumerate_types(2, 3), 1),
        ]
        for variables, pool, arity in dimensions:
            envs = list(enumerate_environments(variables, pool, arity))
            for g1, g2 in itertools.product(envs, repeat=2):
                ok, why = env_union_distributes(g1, g2)
                assert ok, (g1, g2, why)
                ok, why = collapse_distributes(g1, g2)
                assert ok, (g1, g2, why)

        # Substitution composes with expansion on every small redex.
        redexes = [
            t
            for t in enumerate_terms(6, closed_only=False)
            if isinstance(t, App) and isinstance(t.fun, Abs)
        ]
        assert len(redexes) == 48
        tallies = {"ok": 0, "vacuous": 0, "collected": 0, "fail": 0}
        for t, flavor in itertools.product(redexes, (Flavor.ACI, Flavor.AC, Flavor.A)):
            status, note = substitution_composes(t, flavor)
            tallies[status] += 1
            assert status != "fail", (t, flavor.name, note)
        assert tallies["ok"] >= 100  # the sweep is not vacuously green

        # The context-join clauses against a literal recursive transcription.
        fresh = itertools.count(1)
        pool = [parse_ordered_type("a"), parse_ordered_type("a -o_r b")]

        def contexts():
            for owners in [(), ("x",), ("y",), ("x", "y"), ("y", "x")]:
                for sizes in itertools.product([1, 2], repeat=len(owners)):
                    yield ListExpCtx(
                        [
                            (
                                owner,
                                [
                                    (f"{owner}{next(fresh)}", pool[i % 2])
                                    for i in range(n)
                                ],
                            )
                            for owner, n in zip(owners, sizes)
                        ]
                    )

        def oracle_append(a, b):
            if not b.groups:
                return a.copy()
            (x, s2), rest = b.groups[0], ListExpCtx(b.groups[1:])
            if x in a.owners():
                merged = ListExpCtx(
                    [(ox, og + list(s2) if ox == x else list(og)) for ox, og in a.groups]
                )
                return oracle_append(merged, rest)
            return oracle_append(ListExpCtx(a.groups + [(x, list(s2))]), rest)

        all_ctxs = list(contexts())
        compared = 0
        for a, b in itertools.product(all_ctxs, repeat=2):
            if set(a.binding_vars()) & set(b.binding_vars()):
                continue
            assert ctx_append(a, b).groups == oracle_append(a, b).groups
            compared += 1
        assert compared > 50


def test_criterion_6_linear_terms_normalize_within_their_size():
    with criterion(
        "6: every linear term of size <= 9 normalizes in at most size-many leftmost steps"
    ):
        corpus = enumerated_corpus(9, closed_only=False, keep="linear")
        assert len(corpus.terms) == 573
        rep, = run_matrix(corpus, ["linear-leftmost-steps-bounded"])
        assert rep.ok, summarize([rep])
        assert rep.tally("ok") == len(corpus.terms)  # the filter leaves none vacuous
