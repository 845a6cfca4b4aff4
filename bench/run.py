#!/usr/bin/env python3
"""Benchmark for lambda_expand, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-examples --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout. One process runs one
workload, single-threaded, in rounds: every round runs the workload's whole
list of operations, so the share of failed operations is the same in every
run. Rounds repeat until the next one would end after ``--seconds``, and at
least until three rounds and 100 operations ran. Each operation's output is checked
against a computation made apart from the program (``reference.py``) or a
property the paper's method must have; the checks run outside the timed
region. Times are reported at a reference machine speed (see
CALIBRATION_REFERENCE_S).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced round, then builds the inputs again and runs one round with every
traced function wrapped (``tracer.py``), and reports the per-layer metrics
and the tracing overhead; its spans go to ``bench/out/``.

All inputs are fixed enumerations or fixed lists, so ``--seed`` selects
nothing; it is recorded with the result. The last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("cli-examples", "church-numerals", "matrix-open7", "context-algebra")
# every run times at least this many operations and rounds, however short
# --seconds is: a p90 needs ten operations beyond it, and a median of three
# rounds damps the drift in machine speed a single long round shows
MIN_OPERATIONS = 100
MIN_ROUNDS = 3

# (metric name, module, function) of every traced function. expand
# dispatches to one function per flavor, and the diagram verifiers call
# those directly, so expansion is traced there, split by flavor.
TRACED = (
    ("reduction.reduce", "reduction", "reduce"),
    ("reduction.beta_step", "reduction", "beta_step"),
    ("terms.canonicalize", "terms", "canonicalize"),
    ("terms.substitute", "terms", "substitute"),
    ("terms.free_vars", "terms", "free_vars"),
    ("intersection.infer", "intersection", "infer"),
    ("intersection.check_inter", "intersection", "check_inter"),
    ("intersection.subject_reduce", "intersection", "subject_reduce"),
    ("intersection.match_requested", "intersection", "match_requested"),
    ("expansion.expand.aci", "expansion", "expand_aci"),
    ("expansion.expand.ac", "expansion", "expand_ac"),
    ("expansion.expand.ordered", "expansion", "expand_ordered"),
    ("expansion.verify_whd_diagram", "expansion", "verify_whd_diagram"),
    ("expansion.verify_beta_diagram_lambdai", "expansion", "verify_beta_diagram_lambdai"),
    ("typelang.ctx_match", "typelang", "ctx_match"),
    ("typelang.env_to_set_ctx", "typelang", "env_to_set_ctx"),
    ("typelang.ctx_union", "typelang", "ctx_union"),
    ("systems.check_derivation", "systems", "check_derivation"),
    ("systems.decide", "systems", "decide"),
    ("systems.check_ordered", "systems", "check_ordered"),
    ("systems.infer_ordered", "systems", "infer_ordered"),
    ("syntax.parse_term", "syntax", "parse_term"),
    ("syntax.render_term", "syntax", "render_term"),
    ("syntax.render_type", "syntax", "render_type"),
    ("serialize.to_jsonable", "serialize", "to_jsonable"),
    ("cli.main", "cli", "main"),
    ("verify.enumerate_terms", "verify", "enumerate_terms"),
)


# The speed of a shared machine drifts: the same round ran anywhere from
# 0.68 s to 1.27 s within half a minute, and the CPU time moved with it.
# So every round also times a fixed pure-Python task of the benchmark's own
# (normalizing the Church numeral 3^5 with the reference normalizer) at its
# start, at its end and after each CALIBRATE_EVERY seconds of operations,
# and scales its times by CALIBRATION_REFERENCE_S over the median of those
# timings: the times are reported at the speed at which that task takes
# CALIBRATION_REFERENCE_S, about its median time on a 2-core machine with
# Python 3.11.7. The raw times are kept in the run's file under bench/out/.
CALIBRATE_EVERY = 0.25
CALIBRATION_REFERENCE_S = 0.014
CALIBRATION_TERM = reference.parse_term("(\\f x. f (f (f (f (f x))))) (\\f x. f (f (f x)))")


def calibrate() -> float:
    started = time.perf_counter()
    reference.reduce_leftmost(CALIBRATION_TERM)
    return time.perf_counter() - started


def speed_scale(calibrations: list[float]) -> float:
    return CALIBRATION_REFERENCE_S / statistics.median(calibrations)


def process_age() -> float:
    """Seconds since this process started (Linux; the start is known to a
    clock tick)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class Tally:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.round_walls: list[float] = []
        self.failures: set[str] = set()
        self.unexpected: dict[str, str] = {}
        self.problems: dict[str, list[str]] = {}
        self.raw_walls: list[float] = []
        self.scales: list[float] = []

    def run_round(self, operations) -> float:
        """Run every operation once; returns the time spent in them, scaled
        to the reference speed by the calibrations made during the round."""
        clock = time.perf_counter
        latencies = []
        calibrations = [calibrate()]
        since = 0.0
        for op in operations:
            if since >= CALIBRATE_EVERY:
                calibrations.append(calibrate())
                since = 0.0
            started = clock()
            try:
                ok, out = op.run()
            except Exception as exc:  # a crash is a failed operation
                ok, out = False, exc
            elapsed = clock() - started
            since += elapsed
            latencies.append(elapsed)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.add(op.label)
                if not self.workload.expected(op.label):
                    self.unexpected[op.label] = f"{type(out).__name__}: {out}"[:300]
                continue
            try:
                problems = op.check(out)
            except Exception as exc:  # output the reference cannot read
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.problems[op.label] = problems
        calibrations.append(calibrate())
        scale = speed_scale(calibrations)
        self.raw_walls.append(sum(latencies))
        self.scales.append(scale)
        self.latencies.extend(x * scale for x in latencies)
        self.round_walls.append(sum(latencies) * scale)
        return self.round_walls[-1]

    def correct(self, final_problems: list[str]) -> bool:
        return not (self.problems or self.unexpected or final_problems)

    def report(self, final_problems: list[str]) -> None:
        describe = self.workload.describe
        for label, why in sorted(self.unexpected.items())[:20]:
            print(f"UNEXPECTED FAILURE {describe(label)}: {why}", file=sys.stderr)
        for label, problems in sorted(self.problems.items())[:20]:
            print(f"WRONG OUTPUT {describe(label)}: {'; '.join(problems)}", file=sys.stderr)
        for problem in final_problems:
            print(f"WRONG INPUTS: {problem}", file=sys.stderr)
        known = sorted(self.failures - set(self.unexpected))
        if known:
            print(f"known faults ({len(known)} operations):", file=sys.stderr)
            for label in known:
                print(f"  {describe(label)}", file=sys.stderr)


def timed_run(workload, operations, seconds: int) -> tuple[Tally, dict]:
    tally = Tally(workload)
    min_rounds = max(MIN_ROUNDS, math.ceil(MIN_OPERATIONS / len(operations)))
    setup_s = process_age()
    setup_s *= speed_scale([calibrate() for _ in range(3)])
    started = time.perf_counter()
    longest = 0.0
    while True:
        round_started = time.perf_counter()
        tally.run_round(operations)
        longest = max(longest, time.perf_counter() - round_started)
        if len(tally.round_walls) >= min_rounds and (
            time.perf_counter() - started + longest > seconds
        ):
            break
        gc.collect()
    deciles = statistics.quantiles(tally.latencies, n=10)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(tally.round_walls), "s"),
        "op_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def install_tracer(tracer, PROPERTIES) -> None:
    for name, module, function in TRACED:
        mod = importlib.import_module(f"lambda_expand.{module}")
        tracer.patch("lambda_expand", mod, function, name)
    for prop in list(PROPERTIES):
        tracer.patch_dict(PROPERTIES, prop, f"verify.{prop}")


def layer_names(PROPERTIES) -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for name, _, _ in TRACED:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    names += [
        ("reduction.steps_per_s", "1/s"),
        ("intersection.infer.per_subject", "calls/subject"),
        ("typelang.ctx_match.yields", "count"),
    ]
    names += [(f"verify.{prop}.wall_s", "s") for prop in PROPERTIES]
    names.append(("trace.overhead_s", "s"))
    return names


def traced_run(workload, operations, PROPERTIES, spans_path) -> tuple[Tally, dict]:
    from tracer import Tracer

    tally = Tally(workload)
    tally.run_round(operations)
    gc.collect()
    tracer = Tracer()
    install_tracer(tracer, PROPERTIES)
    workload.build()
    tally.run_round(workload.operations())
    untraced, traced = tally.round_walls
    scale = tally.scales[-1]  # to the reference speed, as the end-to-end times

    def calls(name):
        return tracer.calls.get(name, 0)

    values = {}
    for name, _ in layer_names(PROPERTIES):
        fn, _, what = name.rpartition(".")
        if what == "calls":
            values[name] = calls(fn)
        elif what == "self_s":
            values[name] = tracer.self_time.get(fn, 0.0) * scale
    step_time = tracer.total.get("reduction.beta_step", 0.0) * scale
    values["reduction.steps_per_s"] = calls("reduction.beta_step") / step_time if step_time else 0.0
    values["intersection.infer.per_subject"] = (
        calls("intersection.infer") / workload.subjects if workload.subjects else 0.0
    )
    values["typelang.ctx_match.yields"] = tracer.yields.get("typelang.ctx_match", 0)
    for prop in PROPERTIES:
        values[f"verify.{prop}.wall_s"] = tracer.total.get(f"verify.{prop}", 0.0) * scale
    values["trace.overhead_s"] = traced - untraced
    metrics = {name: (values[name], unit) for name, unit in layer_names(PROPERTIES)}
    tracer.write(spans_path)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lambda_expand" / "__init__.py").is_file():
        print(f"error: no lambda_expand package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the CLI reads its default fuel from here; the documented default is 10,000
    os.environ.pop("LEXP_FUEL", None)

    import workloads
    from lambda_expand.verify import PROPERTIES

    workload = workloads.WORKLOADS[args.workload]()
    workload.build()
    operations = workload.operations()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics = traced_run(workload, operations, PROPERTIES, OUT / f"{stem}.spans.json")
    else:
        tally, metrics = timed_run(workload, operations, args.seconds)
    final_problems = workload.final_checks()
    tally.report(final_problems)

    result = {
        "correct": tally.correct(final_problems),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(tally.round_walls),
        "operations_per_round": len(operations),
        "round_walls_s": tally.round_walls,
        "raw_round_walls_s": tally.raw_walls,
        "scales": tally.scales,
        "failed_operations": sorted(tally.failures),
        "unexpected_failures": tally.unexpected,
        "wrong_outputs": tally.problems,
        "wrong_inputs": final_problems,
        "result": result,
    }
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump(details, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
