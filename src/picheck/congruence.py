"""Structural congruence: standard forms, canonical forms, bounded unfolding.

The congruence splits into a decidable core (par is a commutative monoid,
unused restrictions drop, scopes extrude, alpha) and the replication law
``!P == P | !P``.  The core is decided by one complete canonical form,
``deep_canon``: two terms are core-congruent exactly when their canonical
forms are equal.  The full relation is only semi-decided, by unfolding
replications a bounded number of times on both sides and comparing
canonical forms.

``flatten`` splits one level of a term into Milner's standard form
``new x~.(M1 | ... | Mn)`` ("The polyadic pi-calculus: a tutorial", 1993),
and ``rebuild`` puts such a level back together.  The canonical forms, the
redex loop and the lemma suite all read a level through them: ``deep_canon``
decodes every level through ``rebuild``, and ``canonical_state`` drops, in
one pass over the flattened top level, every copy standing beside its own
replication (``P | !P == !P``) and rebuilds what is left.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator

from . import verdicts
from .syntax import (
    NIL,
    SUCCESS,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Process,
    Repl,
    Restrict,
    Success,
    alpha_canonical,
    alpha_eq,
    free_names,
    fresh,
    has_replication,
    memo,
    par_all,
)
from .verdicts import Verdict

# Most terms ``unfold_replications`` returns for one side of a query.
MAX_CANDIDATES = 10000
# Default unfolding depth of ``struct_eq_bounded``, on each side.
UNFOLDS = 2


def flatten(q: Process) -> tuple[list[Name], list[Process]]:
    """Split a term into its restriction binders, in preorder, and its
    components: outputs, inputs, replications and success leaves, 0 dropped.

    Scope extrusion is unconditional, which is safe when the binders are
    distinct, as ``alpha_canonical`` makes them.  The components alone are
    right for any term.
    """
    restricted: list[Name] = []
    comps: list[Process] = []
    stack = [q]
    while stack:
        t = stack.pop()
        match t:
            case Nil():
                pass
            case Par(left=l, right=r):
                stack.append(r)
                stack.append(l)
            case Restrict(binder=b, body=body):
                restricted.append(b)
                stack.append(body)
            case _:
                comps.append(t)
    return restricted, comps


def rebuild(restricted: Iterable[Name], comps: Iterable[Process]) -> Process:
    """``new restricted. (comps)``, congruent to it: 0 components dropped,
    only the restrictions some component uses kept, least name outermost."""
    term = par_all([c for c in comps if c is not NIL])
    # Most decoded levels bind nothing; they skip the sort.
    if restricted:
        for w in sorted(free_names(term).intersection(restricted), key=Name.sort_key, reverse=True):
            term = Restrict(w, term)
    return term


# ------------------------------------------------------- canonical keys
#
# A key names nothing.  A name is keyed as (0, space, key) when free in the
# whole term, (1, level) when bound (de Bruijn levels: the binder's depth in
# the chain of binders above it), (2, colour) while colour refinement runs,
# and _MARK for the name a refinement round is asking about.  A component
# is (0,) for success, (1, subject, object, level) for an output,
# (2, subject, level) for an input, (3, level) for a replication.  A level
# is the sorted tuple of its groups, and a group is (number of restricted
# names, sorted component keys).

_MARK = (3,)


def _nk(n: Name, env: dict) -> tuple:
    return env.get(n) or (0, n.space, n.key)


def _comp_key(c: Process, env: dict, depth: int) -> tuple:
    match c:
        case Output(subject=s, obj=o, cont=k):
            return (1, _nk(s, env), _nk(o, env), _level_key(k, env, depth))
        case Input(subject=s, binder=b, cont=k):
            return (2, _nk(s, env), _level_key(k, {**env, b: (1, depth)}, depth + 1))
        case Repl(body=body):
            return (3, _level_key(body, env, depth))
        case Success():
            return (0,)
    raise TypeError(f"not a plain component: {c!r}")


def _level_key(q: Process, env: dict, depth: int) -> tuple:
    """Key of one nesting level.  Restricted names are split into groups
    linked by shared components and each group is keyed on its own, so
    disconnected copies never make the labelling search branch."""
    restricted, comps = flatten(q)
    keys = []
    groups: list[tuple[set, list]] = []
    for c in comps:
        ws = free_names(c).intersection(restricted)
        if not ws:
            keys.append((0, (_comp_key(c, env, depth),)))
            continue
        touching = [g for g in groups if not g[0].isdisjoint(ws)]
        groups = [g for g in groups if g[0].isdisjoint(ws)]
        names = set(ws).union(*(g[0] for g in touching))
        groups.append((names, [c] + [m for g in touching for m in g[1]]))
    keys += (_group_key(list(names), members, env, depth) for names, members in groups)
    return tuple(sorted(keys))


def _group_key(names: list[Name], comps: list[Process], env: dict, depth: int) -> tuple:
    """Least key of a group over the labellings of its restricted names that
    colour refinement (1-WL) with individualisation reaches, as graph
    canonisers do.  Refinement is invariant under renaming, so congruent
    groups reach the same set of keys."""
    k = len(names)
    inner = depth + k

    def keyed(labels: dict) -> tuple:
        e = {**env, **labels}
        return (k, tuple(sorted(_comp_key(c, e, inner) for c in comps)))

    if k == 1:
        return keyed({names[0]: (1, depth)})
    uses = {w: [c for c in comps if w in free_names(c)] for w in names}

    def refine(colour: dict) -> dict:
        # A name's new colour: its old one, then the keys of the components
        # using it, with it marked and the other names read as colours.
        while True:
            seen = {**env, **{w: (2, colour[w]) for w in names}}
            sig = {}
            for w in names:
                marked = {**seen, w: _MARK}
                sig[w] = (colour[w], tuple(sorted(_comp_key(c, marked, inner) for c in uses[w])))
            rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
            new = {w: rank[sig[w]] for w in names}
            # Stable once a round splits no cell or every name is alone.
            if len(rank) in (k, len(set(colour.values()))):
                return new
            colour = new

    def leaves(colour: dict) -> Iterator[tuple]:
        colour = refine(colour)
        cells: dict[int, list[Name]] = {}
        for w in names:
            cells.setdefault(colour[w], []).append(w)
        if len(cells) == k:
            yield keyed({w: (1, depth + colour[w]) for w in names})
            return
        target = min(c for c, ws in cells.items() if len(ws) > 1)
        for w in cells[target]:
            split = {v: 2 * c + 1 for v, c in colour.items()}
            split[w] -= 1
            yield from leaves(split)

    return min(leaves(dict.fromkeys(names, 0)))


def _decode_level(key: tuple, env: dict, depth: int, fresh_ids: Iterator[int]) -> Process:
    """The term a level key stands for: every group's binders first, then
    the components in key order, binders numbered in preorder.  ``env``
    maps the name keys in scope back to names."""
    binders = []
    scoped = []
    for k, comp_keys in key:
        names = [fresh(next(fresh_ids)) for _ in range(k)]
        binders += names
        labels = {(1, depth + i): w for i, w in enumerate(names)}
        scoped.append(({**env, **labels}, depth + k, comp_keys))
    comps = [_decode_comp(ck, e, d, fresh_ids) for e, d, comp_keys in scoped for ck in comp_keys]
    # No decoded component is 0, every group name is used, and fresh names
    # numbered in order sort least first, so ``rebuild`` keeps every binder
    # in this order.
    return rebuild(binders, comps)


def _decode_comp(key: tuple, env: dict, depth: int, fresh_ids: Iterator[int]) -> Process:
    match key:
        case (1, s, o, k):
            return Output(env[s], env[o], _decode_level(k, env, depth, fresh_ids))
        case (2, s, k):
            b = fresh(next(fresh_ids))
            return Input(env[s], b, _decode_level(k, {**env, (1, depth): b}, depth + 1, fresh_ids))
        case (3, k):
            return Repl(_decode_level(k, env, depth, fresh_ids))
    return SUCCESS


@memo
def deep_canon(p: Process) -> Process:
    """Canonical form under the decidable core congruence, applied at every
    nesting level: equal results hold exactly for core-congruent terms.

    Each level (the top, every prefix continuation, every replication body)
    is flattened into restricted names and components and given a name-free
    key (see ``_level_key``), which is decoded back into an alpha-canonical
    term.  Deciding the core is GI-complete, so labelling restricted names
    may branch, but only on names that colour refinement cannot tell apart.
    """
    q = alpha_canonical(p)
    free = free_names(q)
    base = max((n.key + 1 for n in free if n.is_fresh), default=0)
    env = {(0, n.space, n.key): n for n in free}
    return _decode_level(_level_key(q, {}, 0), env, 0, count(base))


@memo
def canonical_state(p: Process) -> Process:
    """Dedup key for reachability searches: the deep canonical form, with
    every top-level copy standing next to its own replication folded back
    (P | !P -> !P).  Exact on the core; key equality implies full
    structural congruence, while replication-congruent states deeper down
    or folded otherwise may stay apart (missed merges cost time, never
    correctness).

    One pass over the components of the deep canonical form drops each one
    that is alpha-equal to the body of some replication component.  Sound:
    each dropped copy points to a replication of it, and following those
    links ends at a kept replication, because each link strictly grows the
    term.  Applying P | !P == !P from that root down gives back the
    original term.  The kept components depend only on the components as
    a multiset, not on their order."""
    q = deep_canon(p)
    restricted, comps = flatten(q)
    bodies = [c.body for c in comps if isinstance(c, Repl)]
    if not bodies:
        return q
    kept = [c for c in comps if not any(alpha_eq(c, b) for b in bodies)]
    if len(kept) == len(comps):
        return q
    return deep_canon(rebuild(restricted, kept))


def struct_eq_s(p: Process, q: Process) -> bool:
    """Decidable congruence check: everything except the replication law."""
    return p == q or deep_canon(p) == deep_canon(q)


def _single_unfolds(p: Process) -> Iterator[Process]:
    """All results of one left-to-right replication unfolding, any position."""
    match p:
        case Nil() | Success():
            return
        case Repl(body=body):
            yield Par(body, p)
            for b2 in _single_unfolds(body):
                yield Repl(b2)
        case Par(left=l, right=r):
            for l2 in _single_unfolds(l):
                yield Par(l2, r)
            for r2 in _single_unfolds(r):
                yield Par(l, r2)
        case Output(subject=s, obj=o, cont=c):
            for c2 in _single_unfolds(c):
                yield Output(s, o, c2)
        case Input(subject=s, binder=b, cont=c):
            for c2 in _single_unfolds(c):
                yield Input(s, b, c2)
        case Restrict(binder=b, body=body):
            for b2 in _single_unfolds(body):
                yield Restrict(b, b2)


def unfold_replications(p: Process, depth: int) -> tuple[Process, ...]:
    """Terms reachable by at most ``depth`` single unfoldings, including ``p``.

    Deduplicates up to alpha, and stops at ``MAX_CANDIDATES`` terms.
    """
    seen = {alpha_canonical(p): p}
    frontier = [p]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            for t2 in _single_unfolds(t):
                k = alpha_canonical(t2)
                if k not in seen:
                    seen[k] = t2
                    nxt.append(t2)
                    if len(seen) >= MAX_CANDIDATES:
                        return tuple(seen.values())
        if not nxt:
            break
        frontier = nxt
    return tuple(seen.values())


def expose(p: Process) -> Process:
    """One simultaneous unfolding of every unguarded replication; congruent to ``p``."""
    match p:
        case Repl(body=body):
            return Par(expose(body), p)
        case Par(left=l, right=r):
            return Par(expose(l), expose(r))
        case Restrict(binder=b, body=body):
            return Restrict(b, expose(body))
        case _:
            return p


def struct_eq_bounded(p: Process, q: Process, unfolds: int = UNFOLDS) -> Verdict:
    """Semi-decision of full structural congruence.

    Violated when the free names differ, since congruence preserves them.
    Otherwise Holds on a match among the terms within ``unfolds`` single
    unfoldings of each side; Violated when both terms are replication-free
    (then the relation is decidable); otherwise a failed search is
    Inconclusive.
    """
    if free_names(p) != free_names(q):
        return verdicts.violated((p, q))
    if struct_eq_s(p, q):
        return verdicts.holds(unfolds=0)
    if not has_replication(p) and not has_replication(q):
        return verdicts.violated((p, q))
    left = unfold_replications(p, unfolds)
    right = unfold_replications(q, unfolds)
    examined = len(left) + len(right)
    right_keys = {deep_canon(t) for t in right}
    if any(deep_canon(a) in right_keys for a in left):
        return verdicts.holds(unfolds=unfolds, candidates=examined)
    return verdicts.inconclusive(witness=(p, q), unfolds=unfolds, candidates=examined)
