"""Communication steps, step traces, and bounded reachability probes.

A step contracts an unguarded output against an unguarded input on the same
subject, modulo congruence.  Redexes are found on normal forms after exposing
unguarded replications (one copy each per exposure level); one level is
enough to reveal every single-step redex, since a redex needs one unguarded
prefix from each of at most two components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    Restrict,
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


def _steps(
    variants: tuple[Process, ...], inert_only: bool
) -> tuple[tuple[Process, RedexDescriptor], ...]:
    """Contract every unguarded output against every unguarded input on the
    same subject, in each variant's normal form in turn, keeping one reduct
    per canonical state.  ``inert_only`` drops non-inert pairs before they
    are contracted."""
    results = []
    seen = set()
    for variant in variants:
        nf = to_normal_form(variant)
        for i, out in enumerate(nf.components):
            if not isinstance(out, Output):
                continue
            for j, inp in enumerate(nf.components):
                if not isinstance(inp, Input) or inp.subject != out.subject:
                    continue
                if inert_only and not _inert_ok(nf, i, j):
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
                    inert=inert_only or _inert_ok(nf, i, j),
                )
                results.append((q, rd))
    return tuple(results)


@memo
def reduct_candidates(p: Process) -> tuple[tuple[Process, RedexDescriptor], ...]:
    """All one-step reducts modulo congruence, deduplicated by canonical state.

    Pairs every unguarded output with every unguarded input on the same
    subject, in ``p`` and then in ``p`` with its unguarded replications
    exposed once, which is enough (see the module docstring).
    """
    exposed = expose(p)
    return _steps((p,) if exposed == p else (p, exposed), inert_only=False)


def inert_reducts(p: Process) -> tuple[tuple[Process, RedexDescriptor], ...]:
    """Inert steps available on an asynchronous term, without any unfolding."""
    if not is_async(p):
        raise ValueError("inert steps are defined on asynchronous terms only")
    return _steps((p,), inert_only=True)


def has_success(p: Process) -> bool:
    """True when a success leaf sits at an unguarded position."""
    return p._barb


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
    # Reduction steps never create a success leaf, so a term without one,
    # guarded or not, can never reach an unguarded one.
    if not p._ok:
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
    """Bounded divergence probe: is there an infinite reduction from ``p``?

    A replication-free term never diverges: each step consumes two prefixes
    and nothing unfolds.  Any other term is explored within ``state_cap``
    states and ``growth_cap(p)`` nodes per state, until every state up to
    ``budget`` steps from ``p`` has had its successors listed (one level
    more than ``budget``, so that a last state with no successors does not
    truncate the graph).  The graph's states are congruence classes and its
    edges are steps between them, so a cycle in the explored edges is a real
    infinite reduction: Holds, with a trace from ``p`` that comes back to a
    state met earlier on it.  When the graph is complete and acyclic, it is
    finite and every path in it ends: Violated.  Otherwise Inconclusive.
    """
    if not has_replication(p):
        return verdicts.violated(witness=p, states=0, depth=0)
    graph = explore(p, step_budget=budget + 1, state_cap=state_cap, size_cap=growth_cap(p))
    n_states = len(graph.states)
    loop = _cycle(graph.edges, graph.root)
    if loop is not None:
        states = graph.states
        steps = []
        for k, qk in zip(loop, loop[1:]):
            rd = next(rd for q, rd in reduct_candidates(states[k]) if canonical_state(q) == qk)
            steps.append(TraceStep(states[k], states[qk], rd))
        return verdicts.holds(witness=Trace(p, tuple(steps)), steps=len(steps), states=n_states)
    if graph.truncated:
        return verdicts.inconclusive(witness=p, states=n_states, depth=graph.depth)
    return verdicts.violated(witness=p, states=n_states, depth=graph.depth)


def _cycle(edges: dict, root: Process) -> list[Process] | None:
    """Keys of a path from ``root`` whose last key occurs earlier on it, or
    None when no cycle is reachable.  ``path`` holds the keys being
    expanded and ``done`` those from which no cycle is reachable."""
    path = [root]
    on_path = {root}
    succs = [iter(edges.get(root, ()))]
    done = set()
    while succs:
        for k in succs[-1]:
            if k in on_path:
                return path + [k]
            if k not in done:
                path.append(k)
                on_path.add(k)
                succs.append(iter(edges.get(k, ())))
                break
        else:
            done.add(path[-1])
            on_path.discard(path.pop())
            succs.pop()
    return None


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
