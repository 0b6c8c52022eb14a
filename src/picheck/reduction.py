"""Communication steps, step traces, and bounded reachability probes.

A step contracts an unguarded output against an unguarded input on the same
subject, modulo congruence.  Redexes are found on normal forms after exposing
unguarded replications (one copy each per exposure level); one level is
enough to reveal every single-step redex, since a redex needs one unguarded
prefix from each of at most two components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import verdicts
from .congruence import (
    EqBudget,
    NormalForm,
    canonical_state,
    expose,
    struct_eq_bounded,
    to_normal_form,
)
from .syntax import (
    NIL,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Process,
    Repl,
    Restrict,
    Success,
    free_names,
    has_replication,
    is_async,
    memo,
    par_all,
    substitute,
    term_size,
)
from .verdicts import Outcome, Verdict


@dataclass(frozen=True)
class RedexDescriptor:
    """Which communication fired: channel, transmitted name, receiving binder."""

    subject: Name
    sent: Name
    binder: Name
    subject_restricted: bool
    inert: bool


@dataclass(frozen=True)
class TraceStep:
    source: Process
    target: Process
    redex: RedexDescriptor


@dataclass(frozen=True)
class Trace:
    start: Process
    steps: tuple[TraceStep, ...] = ()

    @property
    def end(self) -> Process:
        return self.steps[-1].target if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)


def _rebuild(restricted: frozenset, comps: list[Process]) -> Process:
    comps = [c for c in comps if c != NIL]
    used = frozenset().union(*(free_names(c) for c in comps)) if comps else frozenset()
    term = par_all(comps)
    for w in sorted(restricted & used, key=Name.sort_key, reverse=True):
        term = Restrict(w, term)
    return term


def _contract(nf: NormalForm, i: int, j: int) -> Process:
    out = nf.components[i]
    inp = nf.components[j]
    rest = [c for k, c in enumerate(nf.components) if k != i and k != j]
    rest.append(out.cont)
    rest.append(substitute(inp.cont, inp.binder, out.obj))
    return _rebuild(nf.restricted, rest)


def _inert_ok(nf: NormalForm, i: int, j: int) -> bool:
    """A step is inert when it is the only thing its restricted channel can
    ever do: output carries no continuation, the channel is used by exactly
    the two reacting prefixes, and it vanishes from the result.  No other
    component may have the channel free, which also rules out any third
    unguarded prefix on it."""
    out = nf.components[i]
    inp = nf.components[j]
    v = out.subject
    if v not in nf.restricted or out.cont != NIL:
        return False
    for k, c in enumerate(nf.components):
        if k != i and k != j and v in free_names(c):
            return False
    return v not in free_names(substitute(inp.cont, inp.binder, out.obj))


@memo
def reduct_candidates(p: Process) -> tuple[tuple[Process, RedexDescriptor], ...]:
    """All one-step reducts modulo congruence, deduplicated by canonical state.

    Pairs every unguarded output with every unguarded input on the same
    subject, in ``p`` and then in ``p`` with its unguarded replications
    exposed once, which is enough (see the module docstring).
    """
    results = []
    seen = set()
    exposed = expose(p)
    for variant in (p,) if exposed == p else (p, exposed):
        nf = to_normal_form(variant)
        outs = [(i, c) for i, c in enumerate(nf.components) if isinstance(c, Output)]
        ins = [(j, c) for j, c in enumerate(nf.components) if isinstance(c, Input)]
        for i, out in outs:
            for j, inp in ins:
                if out.subject != inp.subject:
                    continue
                q = _contract(nf, i, j)
                key = canonical_state(q)
                if key in seen:
                    continue
                seen.add(key)
                rd = RedexDescriptor(
                    subject=out.subject,
                    sent=out.obj,
                    binder=inp.binder,
                    subject_restricted=out.subject in nf.restricted,
                    inert=_inert_ok(nf, i, j),
                )
                results.append((q, rd))
    return tuple(results)


def inert_reducts(p: Process) -> tuple[tuple[Process, RedexDescriptor], ...]:
    """Inert steps available on an asynchronous term, without any unfolding."""
    if not is_async(p):
        raise ValueError("inert steps are defined on asynchronous terms only")
    nf = to_normal_form(p)
    results = []
    seen = set()
    for i, out in enumerate(nf.components):
        if not isinstance(out, Output):
            continue
        for j, inp in enumerate(nf.components):
            if not isinstance(inp, Input) or inp.subject != out.subject:
                continue
            if not _inert_ok(nf, i, j):
                continue
            q = _contract(nf, i, j)
            key = canonical_state(q)
            if key in seen:
                continue
            seen.add(key)
            rd = RedexDescriptor(
                subject=out.subject,
                sent=out.obj,
                binder=inp.binder,
                subject_restricted=True,
                inert=True,
            )
            results.append((q, rd))
    return tuple(results)


def has_success(p: Process) -> bool:
    """True when a success leaf sits at an unguarded position."""
    match p:
        case Success():
            return True
        case Par(left=l, right=r):
            return has_success(l) or has_success(r)
        case Restrict(body=body) | Repl(body=body):
            return has_success(body)
    return False


def _contains_success(p: Process) -> bool:
    """Success leaf anywhere, guarded or not.  Reduction steps never create
    one, so a term without any can never reach an unguarded one."""
    return p._ok


def reduces_to(
    p: Process,
    q: Process,
    *,
    step_budget: int = 64,
    eq_budget: EqBudget | None = None,
    state_cap: int = 10000,
) -> Verdict:
    """Can p reach a term congruent to q?  Holds with a trace witness;
    Violated only when the whole reachable graph was seen and every
    equivalence test was definite."""
    eq_budget = eq_budget or EqBudget()
    fn_q = free_names(q)

    def goal(t: Process) -> Outcome:
        # Congruence preserves free names, so a mismatch is a definite no.
        if free_names(t) != fn_q:
            return Outcome.VIOLATED
        return struct_eq_bounded(t, q, eq_budget).outcome

    graph = explore(p, goal=goal, step_budget=step_budget, state_cap=state_cap)
    return _goal_verdict(graph, (p, q))


def may_succeed(
    p: Process,
    *,
    step_budget: int = 64,
    state_cap: int = 10000,
) -> Verdict:
    """Can p reach a state with an unguarded success leaf?"""
    if not _contains_success(p):
        return verdicts.violated(witness=p, states=0, depth=0)

    def goal(t: Process) -> Outcome:
        return Outcome.HOLDS if has_success(t) else Outcome.VIOLATED

    graph = explore(p, goal=goal, step_budget=step_budget, state_cap=state_cap)
    return _goal_verdict(graph, p)


def _goal_verdict(graph: ReductionGraph, witness) -> Verdict:
    """Holds with the trace to the state the goal accepted; Violated only
    when the whole reachable graph was seen and every answer was definite."""
    n_states = len(graph.states)
    if graph.found is not None:
        trace = graph.trace_to(graph.found)
        return verdicts.holds(witness=trace, steps=len(trace), states=n_states)
    if graph.truncated or graph.inconclusive:
        return verdicts.inconclusive(witness=witness, states=n_states, depth=graph.depth)
    return verdicts.violated(witness=witness, states=n_states, depth=graph.depth)


def growth_cap(p: Process) -> int:
    """Size past which a search from ``p`` stops expanding a state.  Only
    replication grows a term, so a state twice as large (plus 16) signals
    runaway growth; callers read a cut state as unknown, never as an answer."""
    return 2 * term_size(p) + 16


def diverges_bounded(
    p: Process,
    *,
    budget: int = 16,
    state_cap: int = 10000,
) -> Verdict:
    """Bounded divergence probe.

    Holds with a looping trace when some reduction path revisits a canonical
    state; Violated when every path provably terminates within the budget;
    Inconclusive otherwise.  Replication-free terms always resolve: each step
    consumes two prefixes, so the budget is raised to the term's size, which
    bounds its prefix count.  A state larger than ``growth_cap(p)`` is not
    expanded but counted unknown.
    """
    grows = has_replication(p)
    if not grows:
        budget = max(budget, term_size(p) + 1)
    status: dict[Process, object] = {}
    path_keys: set[Process] = set()
    path_steps: list[TraceStep] = []
    visited = 0
    cap_hit = False

    def dfs(t: Process, key: Process, remaining: int) -> str:
        nonlocal visited, cap_hit
        if key in path_keys:
            return "div"
        st = status.get(key)
        if st == "term":
            return "term"
        if isinstance(st, int) and st >= remaining:
            return "unknown"
        succs = reduct_candidates(t)
        if not succs:
            status[key] = "term"
            return "term"
        if grows and term_size(t) > growth_cap(p):
            return "unknown"
        if remaining == 0:
            status[key] = 0
            return "unknown"
        visited += 1
        if visited > state_cap:
            cap_hit = True
            return "unknown"
        path_keys.add(key)
        any_unknown = False
        for q, rd in succs:
            path_steps.append(TraceStep(t, q, rd))
            result = dfs(q, canonical_state(q), remaining - 1)
            if result == "div":
                return "div"
            path_steps.pop()
            if result == "unknown":
                any_unknown = True
        path_keys.discard(key)
        if any_unknown:
            # The entry status was None or below ``remaining``, and no deeper
            # call writes a key on the path.
            status[key] = remaining
            return "unknown"
        status[key] = "term"
        return "term"

    result = dfs(p, canonical_state(p), budget)
    if result == "div":
        return verdicts.holds(witness=Trace(p, tuple(path_steps)), depth=budget)
    if result == "term" and not cap_hit:
        return verdicts.violated(witness=p, depth=budget, states=visited)
    return verdicts.inconclusive(witness=p, depth=budget, states=visited)


@dataclass
class ReductionGraph:
    """Bounded forward exploration: canonical states, edges, truncation flag.

    ``parents`` maps each state to the (parent state, redex) that first
    reached it, None for the root.  ``found`` is the first state a goal
    accepted, and ``inconclusive`` whether the goal ever answered
    Inconclusive.
    """

    root: Process
    states: dict
    edges: dict
    parents: dict
    truncated: bool = False
    depth: int = 0
    found: Process | None = None
    inconclusive: bool = False

    def trace_to(self, key: Process) -> Trace:
        """The steps that first reached ``key`` from the root."""
        states = self.states
        steps = []
        while (link := self.parents[key]) is not None:
            parent, rd = link
            steps.append(TraceStep(states[parent], states[key], rd))
            key = parent
        steps.reverse()
        return Trace(states[self.root], tuple(steps))


def explore(
    p: Process,
    *,
    goal: Callable[[Process], Outcome] | None = None,
    step_budget: int = 64,
    state_cap: int = 10000,
    size_cap: int | None = None,
) -> ReductionGraph:
    """Breadth-first exploration up to the budgets.

    ``goal``, when given, is asked about each state when it is first
    reached, and the search stops at the first state it Holds on, leaving
    the rest of the graph unexplored.  ``size_cap`` stops expanding states
    larger than that many nodes (marking the graph truncated): only
    replication can grow a term, so runaway growth signals an infinite
    graph, and cutting it early never changes a definite answer because
    every caller treats a truncated graph as Inconclusive."""
    root = canonical_state(p)
    states: dict[Process, Process] = {root: p}
    edges: dict[Process, tuple] = {}
    parents: dict[Process, tuple | None] = {root: None}
    graph = ReductionGraph(root, states, edges, parents)
    if goal is not None and _accepts(graph, goal, root):
        return graph
    truncated = False
    frontier = [root]
    depth = 0
    while frontier and depth < step_budget:
        nxt = []
        for k in frontier:
            if size_cap is not None and term_size(states[k]) > size_cap:
                truncated = True
                edges[k] = ()
                continue
            succ_keys = []
            for q, rd in reduct_candidates(states[k]):
                qk = canonical_state(q)
                succ_keys.append(qk)
                if qk not in states:
                    if len(states) >= state_cap:
                        truncated = True
                        continue
                    states[qk] = q
                    parents[qk] = (k, rd)
                    if goal is not None and _accepts(graph, goal, qk):
                        graph.truncated, graph.depth = truncated, depth + 1
                        return graph
                    nxt.append(qk)
            edges[k] = tuple(dict.fromkeys(succ_keys))
        frontier = nxt
        depth += 1
    graph.truncated, graph.depth = truncated or bool(frontier), depth
    return graph


def _accepts(graph: ReductionGraph, goal: Callable[[Process], Outcome], key: Process) -> bool:
    """Ask ``goal`` about a newly reached state; True when it Holds."""
    outcome = goal(graph.states[key])
    if outcome is Outcome.HOLDS:
        graph.found = key
        return True
    if outcome is Outcome.INCONCLUSIVE:
        graph.inconclusive = True
    return False
