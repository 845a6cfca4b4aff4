"""Tests of the benchmark's reference computations and tracing.

Run from the root of the repository:

    python3 -m pytest -q bench
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def church(n: int) -> str:
    return "(\\f x. " + "f (" * n + "x" + ")" * n + ")"


PLUS = "(\\m n f x. m f (n f x))"
MULT = "(\\m n f. m (n f))"
OMEGA = "(\\x. x x)(\\x. x x)"


@pytest.mark.parametrize("max_size, total", [(6, 268), (7, 1033), (8, 4227), (9, 18175)])
def test_open_terms_up_to_each_size(max_size, total):
    assert sum(ref.count_terms(n) for n in range(1, max_size + 1)) == total


def test_closed_terms_up_to_size_7():
    # the figure acceptance criterion 2 certifies for closed terms
    assert sum(ref.count_terms(n, closed_only=True) for n in range(1, 8)) == 201


@pytest.mark.parametrize("m, n", list(itertools.product(range(4), range(4))))
def test_church_arithmetic(m, n):
    def value(src):
        nf, _ = ref.normalize(ref.parse_term(src))
        return nf

    assert value(f"{PLUS} {church(m)} {church(n)}") == ref.numeral(m + n)
    assert value(f"{MULT} {church(m)} {church(n)}") == ref.numeral(m * n)
    # applying the numeral m to n gives n to the power m; 0 n is only
    # eta-equal to the numeral 1
    if m > 0:
        assert value(f"{church(m)} {church(n)}") == ref.numeral(n ** m)


def test_leftmost_steps_of_the_benchmark_terms():
    steps = {
        f"{PLUS} {church(4)} {church(4)}": 6,
        f"{MULT} {church(3)} {church(4)}": 9,
        f"{church(3)} {church(3)}": 26,
        f"{church(4)} {church(2)}": 30,
        f"{church(4)} {church(3)}": 80,
        f"{church(2)} {church(2)} {church(2)}": 42,
    }
    for src, want in steps.items():
        assert ref.normalize(ref.parse_term(src))[1] == want, src


def test_omega_never_normalizes():
    omega = ref.parse_term(OMEGA)
    # Omega's only redex is its root, and contracting it gives Omega back
    assert ref.leftmost_step(omega) == omega
    assert ref.normalize(omega, fuel=500) == (None, 500)


def test_reduct_of_the_readme_example():
    t = ref.parse_term("(\\x. x x) (\\y. y)")
    assert ref.leftmost_step(t) == ref.parse_term("(\\y. y) (\\y1. y1)")
    assert ref.normalize(t) == (ref.parse_term("\\y1. y1"), 2)


def test_substitution_avoids_capture():
    # (\x y. x) y  ->  \y1. y, not the identity
    t = ref.parse_term("(\\x y. x) y")
    assert ref.normalize(t)[0] == ref.parse_term("\\z. y")


def test_alpha_equality_and_printing():
    assert ref.parse_term("\\x. x") == ref.parse_term("λy. y")
    assert ref.parse_term("\\x y. x") != ref.parse_term("\\x y. y")
    for text in ("\\x1. (\\x2. x2 x1) x1", "(\\x1. (\\x2. x1) x1) v1", "v1 v2 (v1 v2)"):
        assert ref.show(ref.parse_term(text)) == text


def test_affine():
    assert ref.is_affine(ref.parse_term("\\x y. x"))
    assert ref.is_affine(ref.parse_term("(\\x1 x2. x1 x2) (\\x. x) z"))
    assert not ref.is_affine(ref.parse_term("\\x. x x"))
    assert not ref.is_affine(ref.parse_term("z z"))


def test_types_match_up_to_renaming_and_member_order():
    want = ref.parse_type("a & (a -> b) -> b")
    assert ref.types_match(ref.parse_type("(c -> d) & c -> d"), want)
    assert not ref.types_match(ref.parse_type("a & (a -> b) -> a"), want)
    assert not ref.types_match(ref.parse_type("a -> a"), ref.parse_type("a -> b"))
    assert ref.types_match(ref.parse_type("a -o a"), ref.parse_type("b -o b"))
    assert not ref.types_match(ref.parse_type("a -o a"), ref.parse_type("a -> a"))


def test_environment_counts():
    assert ref.count_types(1, 1) == 2
    assert ref.count_types(2, 3) == 30  # the depth-2 pool of criterion 5
    assert ref.count_environments(1, 4, 3) ** 2 == 7225  # its arity-3 dimension
    for variables, pool, arity in [(3, 2, 1), (1, 2, 3), (1, 30, 1), (2, 3, 2)]:
        options = 1 + sum(len(list(itertools.product(range(pool), repeat=k)))
                          for k in range(1, arity + 1))
        brute = len(list(itertools.product(range(options), repeat=variables)))
        assert ref.count_environments(variables, pool, arity) == brute


def test_counts_match_the_program():
    from lambda_expand import verify

    sizes = [ref.size(ref.from_program(t)) for t in verify.enumerate_terms(7, closed_only=False)]
    assert [sizes.count(n) for n in range(1, 8)] == [ref.count_terms(n) for n in range(1, 8)]
    assert len(verify.enumerate_types(2, 3)) == ref.count_types(2, 3)


def test_traced_beta_steps_match_the_reference():
    """On church-numerals every term is reduced twice a round (by the reduce
    operation and inside infer), so the traced beta_step calls are twice the
    reference's leftmost steps summed over the terms."""
    import run
    import workloads
    from lambda_expand.verify import PROPERTIES
    from tracer import Tracer

    tracer = Tracer()
    run.install_tracer(tracer, PROPERTIES)
    try:
        workload = workloads.ChurchNumerals()
        workload.build()
        tally = run.Tally(workload)
        tally.run_round(workload.operations())
    finally:
        tracer.unpatch()
    steps = sum(ref.normalize(ref.parse_term(src))[1] for _, src, _ in workloads.CHURCH_TERMS)
    assert tracer.calls["reduction.beta_step"] == 2 * steps
    assert not tally.problems and not tally.unexpected
    assert tally.failed == len(workload.expected_failures)


def test_benchmark_json_lists_every_reported_metric():
    import run
    from lambda_expand.verify import PROPERTIES

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.layer_names(PROPERTIES)
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
