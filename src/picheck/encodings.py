"""Two classic translations of synchronous output into the asynchronous fragment.

Both replace a synchronous send with a handshake on fresh bookkeeping
channels; they differ in who creates the channel and how many exchanges the
handshake takes (three target steps per source step for the two-level
protocol, two for the direct one).  Everything except the two prefix forms
is translated homomorphically.  ``asyncify``, the nearest asynchronous
term, is a third walk by the same per-node clause dispatch.

The module also provides the apparatus the validity checker needs:
operator decomposition and per-operator target contexts, and deliberately
broken encoder variants used to confirm the checks can fail.  Each source
name is handled by itself in the target, so a source renaming acts on the
target unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .syntax import (
    NIL,
    SUCCESS,
    Hole,
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
    fresh_name,
    memo,
)

Clause = Callable[[Name, Name, Process, frozenset], Process]


class EncodingScheme(Enum):
    BOUDOL = "boudol"
    HONDA_TOKORO = "honda-tokoro"


def anchor_steps(scheme: EncodingScheme) -> int:
    """Target steps that one source communication expands into."""
    return 3 if scheme is EncodingScheme.BOUDOL else 2


def _fresh_pair(avoid: frozenset) -> tuple[Name, Name]:
    u = fresh_name(avoid)
    v = fresh_name(avoid | {u})
    return u, v


def _boudol_out(x: Name, y: Name, body: Process, extra: frozenset = frozenset()) -> Process:
    avoid = free_names(body) | {x, y} | extra
    u, v = _fresh_pair(avoid)
    return Restrict(
        u, Par(Output(x, u, NIL), Input(u, v, Par(Output(v, y, NIL), body)))
    )


def _boudol_in(x: Name, z: Name, body: Process, extra: frozenset = frozenset()) -> Process:
    avoid = free_names(body) | {x, z} | extra
    u, v = _fresh_pair(avoid)
    return Input(x, u, Restrict(v, Par(Output(u, v, NIL), Input(v, z, body))))


def _ht_out(x: Name, y: Name, body: Process, extra: frozenset = frozenset()) -> Process:
    avoid = free_names(body) | {x, y} | extra
    u = fresh_name(avoid)
    return Input(x, u, Par(Output(u, y, NIL), body))


def _ht_in(x: Name, z: Name, body: Process, extra: frozenset = frozenset()) -> Process:
    avoid = free_names(body) | {x, z} | extra
    u = fresh_name(avoid)
    return Restrict(u, Par(Output(x, u, NIL), Input(u, z, body)))


_OUT: dict[EncodingScheme, Clause] = {
    EncodingScheme.BOUDOL: _boudol_out,
    EncodingScheme.HONDA_TOKORO: _ht_out,
}
_IN: dict[EncodingScheme, Clause] = {
    EncodingScheme.BOUDOL: _boudol_in,
    EncodingScheme.HONDA_TOKORO: _ht_in,
}


def _encode_node(
    t: Process, go: Callable[[Process], Process], out_clause: Clause, in_clause: Clause
) -> Process:
    """One clause of the translation: ``t``'s operator around ``go`` of its
    subterms.  No clause passes an ``extra`` avoid set, so ``go(c)`` of a
    real scheme is the encoding of ``c`` itself."""
    match t:
        case Nil() | Success() | Hole():
            return t
        case Output(subject=x, obj=y, cont=c):
            return out_clause(x, y, go(c), frozenset())
        case Input(subject=x, binder=z, cont=c):
            return in_clause(x, z, go(c), frozenset())
        case Par(left=l, right=r):
            return Par(go(l), go(r))
        case Restrict(binder=b, body=body):
            return Restrict(b, go(body))
        case Repl(body=body):
            return Repl(go(body))
    raise TypeError(f"cannot encode {t!r}")


def _encode_with(p: Process, out_clause: Clause, in_clause: Clause) -> Process:
    """The translation by the given clauses, memoised nowhere."""

    def go(t: Process) -> Process:
        return _encode_node(t, go, out_clause, in_clause)

    return go(p)


# The real schemes recurse through themselves, so every subterm's encoding
# is kept on its node: a renamed or substituted term shares most subterms
# with the original, and their encodings are not redone.
@memo
def _boudol(p: Process) -> Process:
    return _encode_node(p, _boudol, _boudol_out, _boudol_in)


@memo
def _honda_tokoro(p: Process) -> Process:
    return _encode_node(p, _honda_tokoro, _ht_out, _ht_in)


def _async_out(x: Name, y: Name, body: Process, extra: frozenset) -> Process:
    send = Output(x, y, NIL)
    return send if body is NIL else Par(send, body)


def _keep_in(x: Name, z: Name, body: Process, extra: frozenset) -> Process:
    return Input(x, z, body)


@memo
def asyncify(p: Process) -> Process:
    """Nearest asynchronous term: output continuations run in parallel
    instead.  One more clause walk, homomorphic but for the output clause."""
    return _encode_node(p, asyncify, _async_out, _keep_in)


_TRANSLATORS = {EncodingScheme.BOUDOL: _boudol, EncodingScheme.HONDA_TOKORO: _honda_tokoro}


def translator(scheme: EncodingScheme) -> Callable[[Process], Process]:
    """The scheme's encoder as a function of one term; ``encode`` with the
    scheme already looked up."""
    return _TRANSLATORS[scheme]


def encode(p: Process, scheme: EncodingScheme) -> Process:
    """Translate a synchronous term into the asynchronous fragment.

    Bookkeeping names are the least fresh names avoiding the clause's free
    names, so the translation is deterministic and injective up to alpha.
    """
    return _TRANSLATORS[scheme](p)


def decompose(p: Process) -> tuple[Process, tuple[Process, ...]]:
    """Split a term into its root operator (holes for subterms) and the subterms."""
    match p:
        case Nil() | Success():
            return p, ()
        case Output(subject=x, obj=y, cont=c):
            return Output(x, y, Hole(0)), (c,)
        case Input(subject=x, binder=z, cont=c):
            return Input(x, z, Hole(0)), (c,)
        case Par(left=l, right=r):
            return Par(Hole(0), Hole(1)), (l, r)
        case Restrict(binder=b, body=body):
            return Restrict(b, Hole(0)), (body,)
        case Repl(body=body):
            return Repl(Hole(0)), (body,)
    raise TypeError(f"cannot decompose {p!r}")


@dataclass(frozen=True)
class Context:
    """A term with holes; names in ``capturing`` are meant to bind the plug."""

    term: Process
    capturing: frozenset


def context_for(op: Process, free_set: frozenset, scheme: EncodingScheme) -> Context:
    """The target context that mediates the encoding of ``op``.

    Compositionality asks for one context per operator and finite name set:
    filling it with encoded subterms (whose free names lie in ``free_set``)
    must reproduce the encoding of the composed term.  Binders written by
    the source operator keep their capturing role.
    """
    match op:
        case Nil() | Success():
            return Context(op, frozenset())
        case Output(subject=x, obj=y, cont=Hole() as h):
            return Context(_OUT[scheme](x, y, h, free_set), frozenset())
        case Input(subject=x, binder=z, cont=Hole() as h):
            return Context(_IN[scheme](x, z, h, free_set), frozenset({z}))
        case Par(left=Hole(), right=Hole()):
            return Context(op, frozenset())
        case Restrict(binder=b, body=Hole()):
            return Context(op, frozenset({b}))
        case Repl(body=Hole()):
            return Context(op, frozenset())
    raise ValueError(f"not an operator shape: {op!r}")


def fill(ctx: Context, args: tuple[Process, ...]) -> Process:
    """Plug arguments into the context's holes.

    Binders above a hole must either be declared capturing or avoid the
    argument's free names; anything else would silently change meaning, so
    it raises instead.
    """

    def go(t: Process, bound: frozenset) -> Process:
        match t:
            case Hole(index=i):
                arg = args[i]
                bad = bound & free_names(arg)
                if bad:
                    listed = ", ".join(str(n) for n in sorted(bad, key=Name.sort_key))
                    raise ValueError(f"context binders {listed} would capture the plug")
                return arg
            case Nil() | Success():
                return t
            case Output(subject=x, obj=y, cont=c):
                return Output(x, y, go(c, bound))
            case Input(subject=x, binder=z, cont=c):
                below = bound if z in ctx.capturing else bound | {z}
                return Input(x, z, go(c, below))
            case Par(left=l, right=r):
                return Par(go(l, bound), go(r, bound))
            case Restrict(binder=b, body=body):
                below = bound if b in ctx.capturing else bound | {b}
                return Restrict(b, go(body, below))
            case Repl(body=body):
                return Repl(go(body, bound))
        raise TypeError(f"cannot fill {t!r}")

    return go(ctx.term, frozenset())


class Mutation(Enum):
    """Deliberate encoder defects; each must be caught by some validity check."""

    DROP_FORWARDER = "drop-forwarder"
    SWAP_FRESH_ROLES = "swap-fresh-roles"
    REUSE_BOUND_NAME = "reuse-bound-name"
    SWAP_SCHEME_OUTPUT = "swap-scheme-output"


def _mutated_out(scheme: EncodingScheme, mutation: Mutation) -> Clause:
    def drop_forwarder(x, y, body, extra=frozenset()):
        avoid = free_names(body) | {x, y} | extra
        if scheme is EncodingScheme.BOUDOL:
            u, v = _fresh_pair(avoid)
            return Restrict(u, Par(Output(x, u, NIL), Input(u, v, body)))
        u = fresh_name(avoid)
        return Input(x, u, body)

    def swap_fresh_roles(x, y, body, extra=frozenset()):
        avoid = free_names(body) | {x, y} | extra
        if scheme is EncodingScheme.BOUDOL:
            # Forwarder answers on the handshake channel, not the fresh reply.
            u, v = _fresh_pair(avoid)
            return Restrict(
                u, Par(Output(x, u, NIL), Input(u, v, Par(Output(u, y, NIL), body)))
            )
        # Payload replaced by the bookkeeping name.
        u = fresh_name(avoid)
        return Input(x, u, Par(Output(u, u, NIL), body))

    def reuse_bound_name(x, y, body, extra=frozenset()):
        if scheme is EncodingScheme.BOUDOL:
            avoid = free_names(body) | {x, y} | extra
            v = fresh_name(avoid)
            # Handshake channel shadows the subject itself.
            return Restrict(
                x, Par(Output(x, x, NIL), Input(x, v, Par(Output(v, y, NIL), body)))
            )
        # Handshake binder shadows the payload, capturing it.
        return Input(x, y, Par(Output(y, y, NIL), body))

    match mutation:
        case Mutation.DROP_FORWARDER:
            return drop_forwarder
        case Mutation.SWAP_FRESH_ROLES:
            return swap_fresh_roles
        case Mutation.REUSE_BOUND_NAME:
            return reuse_bound_name
        case Mutation.SWAP_SCHEME_OUTPUT:
            other = (
                EncodingScheme.HONDA_TOKORO
                if scheme is EncodingScheme.BOUDOL
                else EncodingScheme.BOUDOL
            )
            return _OUT[other]
    raise ValueError(f"not a Mutation: {mutation!r}")


def mutant_encoder(scheme: EncodingScheme, mutation: Mutation) -> Callable[[Process], Process]:
    """An encoder with one defect injected into its output clause."""
    out_clause = _mutated_out(scheme, mutation)
    in_clause = _IN[scheme]

    def translate(p: Process) -> Process:
        return _encode_with(p, out_clause, in_clause)

    return translate
