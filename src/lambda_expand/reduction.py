"""Beta reduction: positioned single steps, strategies, bounded runs."""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field

from .terms import Abs, App, Term, canonicalize, substitute

# A redex position is a path from the root: "left" into an application's
# function, "right" into its argument, "under" into an abstraction body.
RedexPosition = tuple[str, ...]


class NotARedexError(ValueError):
    pass


class FuelExhausted(Exception):
    """A run spent its fuel without landing on a final form."""


class Strategy(enum.Enum):
    LEFTMOST = "leftmost"
    WEAK_HEAD = "weak-head"


@dataclass(frozen=True, slots=True)
class TraceStep:
    position: RedexPosition
    result: Term


@dataclass
class ReductionTrace:
    start: Term
    steps: list[TraceStep] = field(default_factory=list)

    def __len__(self):
        return len(self.steps)

    def final(self) -> Term:
        return self.steps[-1].result if self.steps else self.start


@dataclass
class ReduceResult:
    trace: ReductionTrace
    status: str  # "normal-form" | "weak-head-nf" | "fuel-exhausted"
    term: Term


def redex_positions(t: Term) -> Iterator[RedexPosition]:
    """Every redex position, leftmost-outermost first, found lazily: the
    first costs only the walk to it.

    The walk runs on an explicit stack, so a term's depth is bounded by
    memory, and on every step of `reduce`: it dispatches with isinstance,
    and keeps each path as a linked (step, parent) pair so a node costs one
    small tuple however deep it is.
    """
    stack: list[tuple[Term, tuple | None]] = [(t, None)]
    while stack:
        t, link = stack.pop()
        if isinstance(t, App):
            if isinstance(t.fun, Abs):
                path: list[str] = []
                up = link
                while up is not None:
                    step, up = up
                    path.append(step)
                yield tuple(reversed(path))
            stack.append((t.arg, ("right", link)))
            stack.append((t.fun, ("left", link)))
        elif isinstance(t, Abs):
            stack.append((t.body, ("under", link)))


def _contract(t: Term, position: RedexPosition) -> Term:
    if isinstance(t, App) and isinstance(t.fun, Abs):
        return substitute(t.fun.body, t.fun.binder, t.arg)
    raise NotARedexError(f"no redex at {position}")


def beta_step(t: Term, position: RedexPosition) -> Term:
    """Contract the redex at `position`; the result is canonicalized.

    The contractum comes out of `substitute` canonical, so at the root it is
    the result as is.  Elsewhere the path is walked down and rebuilt in
    loops, and the rebuilt term is canonicalized, which returns it as
    itself when it keeps the binder convention.
    """
    if not position:
        return _contract(t, position)
    spine: list[Term] = []
    for step in position:
        spine.append(t)
        if step == "left" and isinstance(t, App):
            t = t.fun
        elif step == "right" and isinstance(t, App):
            t = t.arg
        elif step == "under" and isinstance(t, Abs):
            t = t.body
        else:
            raise NotARedexError(f"path {position} leaves the term")
    out = _contract(t, position)
    for step, node in zip(reversed(position), reversed(spine)):
        if step == "left":
            out = App(out, node.arg)
        elif step == "right":
            out = App(node.fun, out)
        else:
            out = Abs(node.binder, out)
    return canonicalize(out)


def weak_head_position(t: Term) -> RedexPosition | None:
    """Position of the head redex of (\\x. M) N N1 ... Nk, if any."""
    path_len = 0
    spine = t
    while isinstance(spine, App) and isinstance(spine.fun, App):
        spine = spine.fun
        path_len += 1
    if isinstance(spine, App) and isinstance(spine.fun, Abs):
        return ("left",) * path_len
    return None


def weak_head_step(t: Term) -> tuple[Term, RedexPosition] | None:
    """One weak-head step; None exactly on weak-head normal forms."""
    pos = weak_head_position(t)
    if pos is None:
        return None
    return beta_step(t, pos), pos


def _next_position(t: Term, strategy: Strategy) -> RedexPosition | None:
    if strategy is Strategy.LEFTMOST:
        return next(redex_positions(t), None)
    return weak_head_position(t)


_FINAL_STATUS = {Strategy.LEFTMOST: "normal-form", Strategy.WEAK_HEAD: "weak-head-nf"}


def steps(
    t: Term, strategy: Strategy = Strategy.LEFTMOST, fuel: int = 10_000
) -> Iterator[tuple[RedexPosition, Term]]:
    """Each step of a strategy run from t, as (position, result), for at
    most `fuel` steps.  The run ends when it lands on a final form; once
    `fuel` steps are taken without landing on one it raises FuelExhausted.

    Under LEFTMOST each step locates only the leftmost-outermost redex,
    the first that `redex_positions` yields; it does not list every redex
    of the term.
    """
    for _ in range(fuel):
        pos = _next_position(t, strategy)
        if pos is None:
            return
        t = beta_step(t, pos)
        yield pos, t
    # fuel spent; the last step may still have landed on a final form
    if _next_position(t, strategy) is not None:
        raise FuelExhausted


def reduce(t: Term, strategy: Strategy = Strategy.LEFTMOST, fuel: int = 10_000) -> ReduceResult:
    """Run a strategy for at most `fuel` steps, keeping every step in the
    trace. Fuel exhaustion is reported as its own status: it is
    inconclusive, not a verdict on the term.  A run that meets a term again
    still runs to its fuel, so the trace shows every step it was given.
    """
    trace = ReductionTrace(start=t)
    status = _FINAL_STATUS[strategy]
    try:
        for pos, result in steps(t, strategy, fuel):
            trace.steps.append(TraceStep(pos, result))
    except FuelExhausted:
        status = "fuel-exhausted"
    return ReduceResult(trace, status, trace.final())
