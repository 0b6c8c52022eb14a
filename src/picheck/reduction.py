"""Communication steps, step traces, and bounded reachability probes.

A step contracts an unguarded output against an unguarded input on the same
subject, modulo congruence.  Redexes are found on the standard form
(``flatten`` of the alpha form) of the term and of the term with its
unguarded replications exposed once, one copy each.

One level of exposure shows whether a step exists: a redex needs one
unguarded prefix from each of at most two components, and two copies of
``P`` react on a free channel only when ``P`` has an unguarded output and
input on it, a redex of its own.  It does not give every reduct.  A step
between two copies of ``P`` gives a reduct that no step inside one copy
gives only when the reacting output and input, on a free channel, lie in
one group of ``P``'s components linked by restricted names (groups as
``congruence._level_key`` forms them); in every other case the leftovers
regroup into one whole copy, and ``P | !P == !P``.  So
``!new x. (y!x.0 | y(z).x!z.0)`` has a second reduct, where one copy sends
its ``x`` to the other copy's input, which ``reduct_candidates`` misses.

Most terms cannot step at all, and a term's barbs say so without a
standard form: ``_barbs`` gives the free subjects of its unguarded outputs
and inputs, whether two of its unguarded prefixes form a redex, and
whether one could be inert.  ``can_step`` reads the redex bit, and
``reduct_candidates`` and ``inert_reducts`` read the barbs first and answer
``()`` at once when there is nothing to contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection

from . import verdicts
from .congruence import (
    UNFOLDS,
    canonical_state,
    expose,
    flatten,
    rebuild,
    struct_eq_bounded,
)
from .syntax import (
    EMPTY,
    NIL,
    Input,
    Name,
    Output,
    Par,
    Process,
    Repl,
    Restrict,
    alpha_canonical,
    free_names,
    has_replication,
    interned,
    is_async,
    memo,
    substitute,
    term_size,
)
from .verdicts import Outcome, Verdict

# Default budgets of the searches: steps from the start, states kept, and
# steps of the divergence and success probes.  STATE_CAP is the one state
# cap: every search of every criterion runs under it.
STEP_BUDGET = 64
STATE_CAP = 10000
PROBE_BUDGET = 16


@dataclass(frozen=True)
class RedexDescriptor:
    """Which communication fired: channel and transmitted name, and whether
    the step is inert."""

    subject: Name
    sent: Name
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

    def __len__(self) -> int:
        return len(self.steps)


def _contract(restricted: Collection[Name], comps: list[Process], i: int, j: int) -> Process:
    out = comps[i]
    inp = comps[j]
    rest = [c for k, c in enumerate(comps) if k != i and k != j]
    rest.append(out.cont)
    rest.append(substitute(inp.cont, inp.binder, out.obj))
    return rebuild(restricted, rest)


def _inert_ok(restricted: Collection[Name], comps: list[Process], i: int, j: int) -> bool:
    """A step is inert when it is the only thing its restricted channel can
    ever do: output carries no continuation, the channel is used by exactly
    the two reacting prefixes, and it vanishes from the result.  No other
    component may have the channel free, which also rules out any third
    unguarded prefix on it."""
    out = comps[i]
    inp = comps[j]
    v = out.subject
    if v not in restricted or out.cont is not NIL:
        return False
    for k, c in enumerate(comps):
        if k != i and k != j and v in free_names(c):
            return False
    return v not in free_names(substitute(inp.cont, inp.binder, out.obj))


def _steps(
    variants: tuple[Process, ...], inert_only: bool
) -> tuple[tuple[Process, RedexDescriptor], ...]:
    """Contract every unguarded output against every unguarded input on the
    same subject, in each variant's standard form in turn, keeping one
    reduct per canonical state.  ``inert_only`` drops non-inert pairs before
    they are contracted."""
    results = []
    seen = set()
    for variant in variants:
        restricted, comps = flatten(alpha_canonical(variant))
        for i, out in enumerate(comps):
            if not isinstance(out, Output):
                continue
            for j, inp in enumerate(comps):
                if not isinstance(inp, Input) or inp.subject != out.subject:
                    continue
                if inert_only and not _inert_ok(restricted, comps, i, j):
                    continue
                q = _contract(restricted, comps, i, j)
                key = canonical_state(q)
                if key in seen:
                    continue
                seen.add(key)
                rd = RedexDescriptor(
                    subject=out.subject,
                    sent=out.obj,
                    inert=inert_only or _inert_ok(restricted, comps, i, j),
                )
                results.append((q, rd))
    return tuple(results)


_NO_BARBS = interned((EMPTY, EMPTY, False, False))


@memo
def _barbs(p: Process) -> tuple[frozenset, frozenset, bool, bool]:
    """The barbs of ``p`` (Milner & Sangiorgi, "Barbed bisimulation", ICALP
    1992) and what they imply: ``(outs, ins, step, inert)``, interned.

    ``outs`` and ``ins`` are the free subjects of the unguarded outputs and
    inputs: they pass through ``|`` and ``!``, and through ``new w`` minus
    ``w``.  ``step`` is true exactly when ``p`` has a one-step reduct, and a
    false ``inert`` means that ``p`` has no inert step.

    Why ``step`` is exact.  A redex pairs an unguarded output and an
    unguarded input on one channel in one scope.  Neither prefix is under
    the other, so their lowest common ancestor is a ``|``.  No ``new`` of
    the channel lies between that ``|`` and either prefix, or the two would
    be in different scopes, so the channel is an output subject of one side
    of the ``|`` and an input subject of the other.  Conversely, such a
    ``|`` holds a redex.  ``new`` and ``!`` pass the body's answer on:
    ``!P`` has a step exactly when ``P`` has one, since two copies of ``P``
    react on a free channel only if ``P`` already has an unguarded output
    and input on it, that is a redex of its own (see the module docstring).
    Prefixes and leaves have no redex.

    Why a false ``inert`` is safe.  ``_inert_ok`` needs the channel to be
    restricted in the standard form, so bound by a ``new w`` at an unguarded
    position outside any replication, and in that scope ``w`` is an output
    and an input subject of the body.  ``inert`` is true at such a ``new``,
    and ``|`` and ``new`` pass either side's answer up.  ``!`` passes the
    body's answer too, although no inert step is taken under a replication:
    answering true too often costs time, never an answer.

    The walk recurses along the term.  That is safe because every state a
    search builds is at most a small multiple of its start term's size (see
    ``growth_cap``), and a start term nested deeper than Python's recursion
    limit is already refused by the same recursion in ``alpha_canonical``.
    """
    match p:
        case Output(subject=x):
            return interned((interned(frozenset((x,))), EMPTY, False, False))
        case Input(subject=x):
            return interned((EMPTY, interned(frozenset((x,))), False, False))
        case Par(left=l, right=r):
            lo, li, ls, lt = _barbs(l)
            ro, ri, rs, rt = _barbs(r)
            step = ls or rs or not lo.isdisjoint(ri) or not ro.isdisjoint(li)
            return interned((interned(lo | ro), interned(li | ri), step, lt or rt))
        case Restrict(binder=w, body=body):
            barbs = outs, ins, step, inert = _barbs(body)
            if w not in outs and w not in ins:
                return barbs
            return interned(
                (interned(outs - {w}), interned(ins - {w}), step, inert or (w in outs and w in ins))
            )
        case Repl(body=body):
            return _barbs(body)
    return _NO_BARBS


def can_step(p: Process) -> bool:
    """True exactly when ``p`` has a one-step reduct; ``_barbs`` proves the
    bit exact, and reads it without a standard form."""
    return _barbs(p)[2]


@memo
def reduct_candidates(p: Process) -> tuple[tuple[Process, RedexDescriptor], ...]:
    """One-step reducts modulo congruence, deduplicated by canonical state.

    Pairs every unguarded output with every unguarded input on the same
    subject, in ``p`` and then in ``p`` with its unguarded replications
    exposed once.  That finds a step whenever ``p`` has one, but misses the
    reducts of steps between two copies of a replication whose body links
    the reacting prefixes by a restricted name (see the module docstring).
    A term whose barbs show no redex has none (see ``_barbs``), without a
    standard form.
    """
    if not can_step(p):
        return ()
    exposed = expose(p)
    return _steps((p,) if exposed == p else (p, exposed), inert_only=False)


@memo
def inert_reducts(p: Process) -> tuple[tuple[Process, RedexDescriptor], ...]:
    """Inert steps available on an asynchronous term, without any unfolding."""
    if not is_async(p):
        raise ValueError("inert steps are defined on asynchronous terms only")
    if not _barbs(p)[3]:
        return ()
    return _steps((p,), inert_only=True)


@memo
def inert_normal_form(p: Process) -> Process:
    """``p`` after inert steps, the first of ``inert_reducts`` each time,
    until none is left; ``p`` itself when it is not asynchronous.

    The chain ends: an inert step unfolds nothing and consumes two prefixes.
    Which inert step is taken does not matter up to ≡: ``_inert_ok`` leaves
    the reacting channel to the two prefixes alone, so an inert step and any
    other step commute (the diamond ``checker.check_inert_confluence``
    tests), and a terminating relation whose steps commute has one normal
    form up to ≡ (Groote & Sellink, "Confluence for process verification",
    TCS 1996)."""
    if not is_async(p):
        return p
    while steps := inert_reducts(p):
        p = steps[0][0]
    return p


def has_success(p: Process) -> bool:
    """True when a success leaf sits at an unguarded position."""
    return p._barb


def reduces_to(
    p: Process,
    q: Process,
    *,
    step_budget: int = STEP_BUDGET,
    eq_budget: int = UNFOLDS,
    state_cap: int = STATE_CAP,
) -> Verdict:
    """Can p reach a term congruent to q?  Holds with a trace witness;
    Violated only when the whole reachable graph was seen and every
    equivalence test was definite.  The search stops expanding a state
    larger than ``growth_cap(p)`` nodes, which can only turn an answer into
    Inconclusive (see ``explore``)."""

    def goal(t: Process) -> Outcome:
        return struct_eq_bounded(t, q, eq_budget).outcome

    graph = explore(p, goal=goal, step_budget=step_budget, state_cap=state_cap)
    return _goal_verdict(graph, (p, q))


def may_succeed(
    p: Process,
    *,
    step_budget: int = STEP_BUDGET,
    state_cap: int = STATE_CAP,
) -> Verdict:
    """Can p reach a state with an unguarded success leaf?  Holds with a
    trace witness; Violated only when the whole reachable graph was seen.
    The search stops expanding a state larger than ``growth_cap(p)`` nodes,
    which can only turn an answer into Inconclusive (see ``explore``)."""
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
    runaway growth; ``explore`` marks a graph with a cut state truncated,
    which every reader takes as unknown, never as an answer."""
    return 2 * term_size(p) + 16


def diverges_bounded(
    p: Process,
    *,
    budget: int = PROBE_BUDGET,
    state_cap: int = STATE_CAP,
) -> Verdict:
    """Bounded divergence probe: is there an infinite reduction from ``p``?

    A replication-free term never diverges: each step consumes two prefixes
    and nothing unfolds.  Any other term is explored within ``state_cap``
    states and ``growth_cap(p)`` nodes per state, as every search is, until
    every state up to ``budget`` steps from ``p`` has had its successors
    listed (one level more than ``budget``, so that a last state with no
    successors does not truncate the graph).  The graph's states are
    congruence classes and its edges are steps between them, so a cycle in
    the explored edges is a real infinite reduction, cut or not: Holds, with
    a trace from ``p`` that comes back to a state met earlier on it.  When
    the graph is complete and acyclic, it is finite and every path in it
    ends: Violated.  Otherwise a cut or a budget stopped the search:
    Inconclusive.
    """
    if not has_replication(p):
        return verdicts.violated(witness=p, states=0, depth=0)
    graph = explore(p, step_budget=budget + 1, state_cap=state_cap)
    n_states = len(graph.states)
    loop = _cycle(graph.edges, graph.root)
    if loop is not None:
        states, edges = graph.states, graph.edges
        steps = tuple(
            TraceStep(states[k], states[qk], edges[k][qk]) for k, qk in zip(loop, loop[1:])
        )
        return verdicts.holds(witness=Trace(p, steps), steps=len(steps), states=n_states)
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

    ``states`` maps each state's key, its ``canonical_state``, to the term
    first reached there.
    ``edges`` maps each expanded state to a dict from its successors' keys
    to the redex of the step.  ``parents`` maps each state to the (parent
    state, redex) that first reached it, None for the root.  ``found`` is
    the first state a goal accepted, and ``inconclusive`` whether the goal
    ever answered Inconclusive.
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
    step_budget: int = STEP_BUDGET,
    state_cap: int = STATE_CAP,
    stop_at_cut: bool = False,
    normalise: Callable[[Process], Process] | None = None,
) -> ReductionGraph:
    """Breadth-first exploration up to the budgets.

    ``goal``, when given, is asked about each state when it is first
    reached, and the search stops at the first state it Holds on, leaving
    the rest of the graph unexplored.  A state larger than ``growth_cap(p)``
    nodes is reached but not expanded, and the graph is marked truncated:
    only replication grows a term, so such a state signals runaway growth.
    The bound also keeps every state a small multiple of ``p``'s size, so
    no walk over a state nests deeper than one over ``p``.

    ``stop_at_cut`` returns the graph, marked truncated, as soon as the
    search reaches a state past the size bound or ``state_cap`` refuses a
    state; its states are those found so far.  The whole search would be
    truncated too: such a state is either expanded later, and cut, or left
    on the last frontier, and a refused state leaves the graph incomplete.
    So a caller that reads every truncated graph as unknown, and looks at
    nothing else in it, may stop there.

    Why a cut never makes an answer wrong.  Every state and edge in the
    graph is real, cut or not: a state is reached by a chain of real steps
    (``parents``), and an edge is a real step between congruence classes.
    So what a caller reads as Holds stays exact: a goal state reached with
    its trace, or a cycle among explored edges.  A Violated needs the whole
    reachable graph, and every caller reads a truncated graph as
    incomplete.  A cut only turns an answer into Inconclusive.

    Every reached state is keyed by its ``canonical_state``, so congruent
    states fold into one.

    ``normalise``, when given, replaces the root and every successor before
    it is keyed, as ``inert_normal_form`` does for op-soundness.  An edge
    then stands for its step followed by the normalising steps, and carries
    the redex of its step; the size bound stays ``growth_cap(p)``."""
    size_cap = growth_cap(p)
    if normalise is not None:
        p = normalise(p)
    root = canonical_state(p)
    states: dict[Process, Process] = {root: p}
    edges: dict[Process, dict[Process, RedexDescriptor]] = {}
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
            if term_size(states[k]) > size_cap:
                truncated = True
                edges[k] = {}
                continue
            succs = edges[k] = {}
            for q, rd in reduct_candidates(states[k]):
                if normalise is not None:
                    q = normalise(q)
                qk = canonical_state(q)
                succs[qk] = rd
                if qk not in states:
                    if len(states) >= state_cap:
                        truncated = True
                        if stop_at_cut:
                            graph.truncated, graph.depth = True, depth + 1
                            return graph
                        continue
                    states[qk] = q
                    parents[qk] = (k, rd)
                    if stop_at_cut and term_size(q) > size_cap:
                        graph.truncated, graph.depth = True, depth + 1
                        return graph
                    if goal is not None and _accepts(graph, goal, qk):
                        graph.truncated, graph.depth = truncated, depth + 1
                        return graph
                    nxt.append(qk)
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
