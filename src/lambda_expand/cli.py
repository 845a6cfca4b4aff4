"""Command-line surface: parse, check, infer, expand, reduce, verify, enumerate.

One subcommand per verb; the subject term comes from the positional argument
or stdin.  Output formats are ``text`` (the same grammar the parser reads),
``json`` (schema-stamped documents from :mod:`.serialize`), and ``dot``
(derivation graphs).  The environment variable ``LEXP_FUEL`` overrides the
default step budget wherever a fuel applies.

Exit codes: 0 success or typable; 1 not typable or no result at the request;
2 inconclusive (fuel or the ordered search budget ran out, the replay could
not rebuild a derivation, or the input nests past the recursion limit);
3 usage or syntax errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .reduction import Strategy, reduce
from .syntax import (
    ParseError,
    parse_inter_type,
    parse_linear_type,
    parse_ordered_type,
    parse_simple_type,
    parse_term,
    render_members,
    render_term,
    render_type,
)
from .systems import (
    SizeBoundExceeded,
    System,
    check_ordered,
    decide,
    infer_curry,
    infer_ordered,
)
from .typelang import Basis, Flavor, ListExpCtx, SetExpCtx, normal_members, normalize

EXIT_OK = 0
EXIT_ABSENT = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

DEFAULT_FUEL = 10_000

_FLAVORS = {"aci": Flavor.ACI, "ac": Flavor.AC, "a": Flavor.A, "ordered": Flavor.A}
_TYPE_PARSERS = {
    System.CURRY: parse_simple_type,
    System.RELEVANT: parse_simple_type,
    System.AFFINE: parse_linear_type,
    System.LINEAR: parse_linear_type,
    System.ORDERED: parse_ordered_type,
}


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The `lexp` parser, built on the first call and shared after it: parsing
    keeps no state in the parser, and every error raises `UsageError`."""
    p = _Parser(prog="lexp", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, formats=("text", "json", "dot")) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("term", nargs="?", help="term text; stdin when omitted")
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--unicode", action="store_true", help="emit unicode connectives")
        return sp

    add("parse", "parse a term and print it back", formats=("text", "json"))

    check = add("check", "judge a term in a named type system")
    check.add_argument("--system", required=True, choices=[s.value for s in System])
    check.add_argument("--type", dest="type_", metavar="TYPE", help="expected result type")
    check.add_argument(
        "--basis",
        help="comma-separated `name: type` assumptions, in order (required for ordered)",
    )

    inf = add("infer", "infer a type for a term")
    inf.add_argument("--system", required=True, choices=["curry", "intersection"])
    inf.add_argument("--flavor", choices=["aci", "ac", "a"], default="aci",
                     help="intersection flavor: checks the derivation and canonicalizes"
                          " the displayed types (aci sorts and dedups members, ac sorts,"
                          " a keeps occurrence order)")

    exp = add("expand", "translate shared variables into distinct fresh ones")
    exp.add_argument("--flavor", required=True, choices=["aci", "ac", "ordered"])
    exp.add_argument("--orientation", choices=["right", "mixed"], default="right")
    exp.add_argument("--type", dest="type_", metavar="TYPE",
                     help="expand at this (intersection) type instead of the principal one")

    red = add("reduce", "beta-reduce and print the trace", formats=("text", "json"))
    red.add_argument("--strategy", choices=[s.value for s in Strategy], default="leftmost")
    red.add_argument("--fuel", type=int, default=None)

    ver = sub.add_parser("verify", help="run the property matrix over a corpus",
                         description="run the property matrix over an enumerated corpus")
    ver.add_argument("--corpus", default="open:5",
                     help="closed:N or open:N, optionally :FILTER (lambda-i, affine, linear, typable)")
    ver.add_argument("--props", default="all", help="comma-separated property ids, or `all`")
    ver.add_argument("--format", choices=("text", "json"), default="text")

    enum = sub.add_parser("enumerate", help="list every term up to a size",
                          description="list every term up to a size, one per alpha class")
    enum.add_argument("--max-size", type=int, required=True)
    enum.add_argument("--open", action="store_true", help="include open terms")
    enum.add_argument("--format", choices=("text", "json"), default="text")
    enum.add_argument("--unicode", action="store_true")

    return p


# --------------------------------------------------------------------------
# shared plumbing

def _input_term(args):
    src = args.term if args.term is not None else sys.stdin.read()
    return parse_term(src)


def _fuel(args) -> int:
    fuel = getattr(args, "fuel", None)
    source = "--fuel"
    if fuel is None:
        env = os.environ.get("LEXP_FUEL")
        if env is None:
            return DEFAULT_FUEL
        source = "LEXP_FUEL"
        try:
            fuel = int(env)
        except ValueError:
            raise UsageError("LEXP_FUEL must be an integer") from None
    if fuel < 0:
        raise UsageError(f"{source} must not be negative")
    return fuel


def _env_lines(env, unicode: bool, flavor: Flavor | None = None) -> list[str]:
    return [
        f"  {x}: {render_members(normal_members(members, flavor) if flavor else members, unicode)}"
        for x, members in env
    ]


def _context_text(ctx, unicode: bool) -> str:
    if isinstance(ctx, SetExpCtx):
        inner = ", ".join(
            f"{owner}: {{{', '.join(f'{y}: {render_type(ty, unicode)}' for y, ty in group.items())}}}"
            for owner, group in ctx.groups.items()
        )
        return "{" + inner + "}"
    if isinstance(ctx, ListExpCtx):
        inner = ", ".join(
            f"{owner}: [{', '.join(f'{y}: {render_type(ty, unicode)}' for y, ty in group)}]"
            for owner, group in ctx.groups
        )
        return "[" + inner + "]"
    raise TypeError(ctx)


def _stamped(payload: dict) -> str:
    from . import serialize

    return json.dumps({"schema": serialize.SCHEMA, **payload})


def _raised_by(module: str, name: str) -> tuple[type[Exception], ...]:
    """The exception class `name` of this package's `module` as a 1-tuple,
    or () (which an except clause never matches) when no subcommand has
    imported that module, since then none of its code ran to raise it."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return () if mod is None else (getattr(mod, name),)


def _parse_basis(spec: str, system: System) -> Basis:
    """The `--basis` argument as a basis; a syntax error in a type is
    reported at its line and column within the argument."""
    parse_ty = _TYPE_PARSERS[system]
    entries = []
    start = 0  # offset of the current entry within spec
    for part in spec.split(","):
        if ":" not in part:
            raise UsageError(f"basis entry {part.strip()!r} is not `name: type`")
        name, ty_src = part.split(":", 1)
        name = name.strip()
        if not name:
            raise UsageError("basis entry with an empty name")
        if any(name == seen for seen, _ in entries):
            raise UsageError(f"basis names {name!r} twice")
        try:
            entries.append((name, parse_ty(ty_src)))
        except ParseError as exc:
            before = spec[: start + part.index(":") + 1]
            line = before.count("\n") + exc.line
            col = exc.col + (len(before) - before.rfind("\n") - 1 if exc.line == 1 else 0)
            raise ParseError(f"{exc.message} in the basis entry for {name!r}", line, col) from None
        start += len(part) + 1
    return Basis(tuple(entries))


# --------------------------------------------------------------------------
# commands: each imports serialize, expansion and intersection where it uses
# them, so a subcommand that does not starts without them

def _cmd_parse(args) -> int:
    t = _input_term(args)
    if args.format == "json":
        from . import serialize

        print(serialize.dumps(t))
    else:
        print(render_term(t, args.unicode))
    return EXIT_OK


def _cmd_check(args) -> int:
    system = System(args.system)
    t = _input_term(args)
    requested = _TYPE_PARSERS[system](args.type_) if args.type_ else None
    basis = _parse_basis(args.basis, system) if args.basis else None

    if system is System.ORDERED:
        if basis is None:
            raise UsageError("the ordered system judges assumptions in order: pass --basis")
        if requested is not None:
            ok = check_ordered(basis, t, requested)
            ty = requested if ok else None
        else:
            ty = infer_ordered(basis, t)
            ok = ty is not None
        if args.format == "json":
            from . import serialize

            print(_stamped({"valid": ok, "type": None if ty is None else serialize.to_jsonable(ty)}))
        elif ok:
            print(f"valid: {render_term(t, args.unicode)} : {render_type(ty, args.unicode)}")
        else:
            print("invalid")
        return EXIT_OK if ok else EXIT_ABSENT

    if basis is None and requested is not None:
        raise UsageError("--type needs --basis (which fixes the assumptions)")
    try:
        d = decide(system, t, basis, requested)
    except _raised_by("expansion", "ExpansionError") as exc:  # past decide's gate
        print(f"internal error: decision witness cannot be built: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:  # a free variable without a basis entry
        raise UsageError(str(exc)) from None
    if d is None:
        print("invalid")
        return EXIT_ABSENT

    from . import serialize

    if args.format == "json":
        print(serialize.dumps(d))
    elif args.format == "dot":
        print(serialize.to_dot(d))
    else:
        print(f"valid: {render_term(d.subject, args.unicode)} : {render_type(d.ty, args.unicode)}")
    return EXIT_OK


def _cmd_infer(args) -> int:
    from . import serialize
    from .intersection import check_inter, infer

    t = _input_term(args)
    if args.system == "curry":
        ty = infer_curry(t)
        if ty is None:
            print("not typable in the unrestricted system")
            return EXIT_ABSENT
        if args.format == "json":
            print(serialize.dumps(ty))
        elif args.format == "dot":
            raise UsageError("dot output needs a derivation; use --system intersection")
        else:
            print(render_type(ty, args.unicode))
        return EXIT_OK

    fuel = _fuel(args)
    flavor = _FLAVORS[args.flavor]
    d = infer(t, fuel)
    if d is None:
        print(f"no derivation within fuel {fuel}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    res = check_inter(d, flavor)
    if not res.ok:
        print(f"internal error: inferred derivation fails its checker: {res.reason}",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if args.format == "json":
        print(serialize.dumps(d))
    elif args.format == "dot":
        print(serialize.to_dot(d))
    else:
        shown = normalize(d.ty, flavor)
        print(f"{render_term(d.subject, args.unicode)} : {render_type(shown, args.unicode)}")
        for line in _env_lines(d.env, args.unicode, flavor):
            print(line)
    return EXIT_OK


def _cmd_expand(args) -> int:
    from . import serialize
    from .expansion import ExpansionError, expand
    from .intersection import infer, match_requested

    t = _input_term(args)
    fuel = _fuel(args)
    flavor = _FLAVORS[args.flavor]
    d = infer(t, fuel)
    if d is None:
        print(f"no derivation within fuel {fuel}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if args.type_ is not None:
        requested = parse_inter_type(args.type_)
        d = match_requested(d, requested, flavor)
        if d is None:
            print("the term is not typable at the requested type", file=sys.stderr)
            return EXIT_ABSENT
    try:
        r = expand(d, flavor, orientation=args.orientation)
    except ExpansionError as exc:  # includes order violations
        print(f"no expansion: {exc}", file=sys.stderr)
        return EXIT_ABSENT

    if args.format == "json":
        print(serialize.dumps(r))
    elif args.format == "dot":
        print(serialize.to_dot(r.induced))
    else:
        print(f"{render_term(r.expanded, args.unicode)} : {render_type(r.ty, args.unicode)}")
        print(f"context: {_context_text(r.context, args.unicode)}")
        # expand raises ExpansionError unless both derivations pass their checker
        print(f"derivation ({r.induced.system.value}): ok")
        if r.strict is not None:
            print(f"strict derivation ({r.strict.system.value}): ok")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    t = _input_term(args)
    r = reduce(t, Strategy(args.strategy), fuel=_fuel(args))
    if args.format == "json":
        from . import serialize

        print(_stamped({
            "status": r.status,
            "start": serialize.to_jsonable(r.trace.start),
            "steps": [render_term(s.result, args.unicode) for s in r.trace.steps],
            "result": serialize.to_jsonable(r.term),
        }))
    else:
        print(render_term(r.trace.start, args.unicode))
        for step in r.trace.steps:
            print(f"-> {render_term(step.result, args.unicode)}")
        print(f"[{r.status} after {len(r.trace)} steps]")
    return EXIT_INCONCLUSIVE if r.status == "fuel-exhausted" else EXIT_OK


def _parse_corpus_spec(spec: str):
    parts = spec.split(":")
    if len(parts) not in (2, 3) or parts[0] not in ("closed", "open"):
        raise UsageError(f"corpus {spec!r}; want closed:N or open:N with optional :FILTER")
    try:
        max_size = int(parts[1])
    except ValueError:
        raise UsageError(f"corpus size {parts[1]!r} is not an integer") from None
    if max_size < 0:
        raise UsageError("corpus size must not be negative")
    keep = parts[2] if len(parts) == 3 else None
    if keep is not None and keep not in ("lambda-i", "affine", "linear", "typable"):
        raise UsageError(f"unknown corpus filter {keep!r}")
    return max_size, parts[0] == "closed", keep


def _cmd_verify(args) -> int:
    # imported here so the other subcommands start without it
    from .verify import CapExceeded, PROPERTIES, enumerated_corpus, reports_to_json, run_matrix, summarize

    max_size, closed, keep = _parse_corpus_spec(args.corpus)
    try:
        corpus = enumerated_corpus(max_size, closed_only=closed, keep=keep)
    except CapExceeded as exc:
        raise UsageError(str(exc)) from None
    if args.props == "all":
        props = None
    else:
        props = [p.strip() for p in args.props.split(",") if p.strip()]
        if not props:
            raise UsageError(f"--props {args.props!r} names no property")
        unknown = [p for p in props if p not in PROPERTIES]
        if unknown:
            raise UsageError(f"unknown properties: {', '.join(unknown)}")
    reports = run_matrix(corpus, props)
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        print(summarize(reports))
        for rep in reports:
            for v in rep.failures()[:20]:
                print(f"FAIL {rep.prop}: {render_term(v.subject)} -- {v.note}")
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_ABSENT


def _cmd_enumerate(args) -> int:
    from .verify import CapExceeded, enumerate_terms

    if args.max_size < 0:
        raise UsageError("--max-size must not be negative")
    try:
        terms = enumerate_terms(args.max_size, closed_only=not args.open)
    except CapExceeded as exc:
        raise UsageError(str(exc)) from None
    rendered = [render_term(t, args.unicode) for t in terms]
    if args.format == "json":
        print(_stamped({"max_size": args.max_size, "terms": rendered}))
    else:
        for line in rendered:
            print(line)
    return EXIT_OK


_COMMANDS = {
    "parse": _cmd_parse,
    "check": _cmd_check,
    "infer": _cmd_infer,
    "expand": _cmd_expand,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _raised_by("serialize", "SerializeError") as exc:
        print(f"serialization error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SizeBoundExceeded, RecursionError, *_raised_by("intersection", "ReplayError")) as exc:
        print(f"inconclusive: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
