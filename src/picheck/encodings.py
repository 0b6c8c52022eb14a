"""Two classic translations of synchronous output into the asynchronous fragment.

Both replace a synchronous send with a handshake on fresh bookkeeping
channels; they differ in who creates the channel and how many exchanges the
handshake takes (three target steps per source step for the two-level
protocol, two for the direct one).  Everything except the two prefix forms
is translated homomorphically.  ``asyncify``, the nearest asynchronous
term, is a third walk by the same per-node clause dispatch.

Each prefix clause is written once, as a term with placeholder names and a
hole, the way the paper writes it; ``_clause`` compiles each template into
the function that instantiates it.  The deliberately broken encoder
variants, used to confirm the checks can fail, are templates too: each
replaces one output clause.

The module also provides the apparatus the validity checker needs:
operator decomposition and per-operator target contexts.  Each source
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
    names,
    user,
)

Clause = Callable[[Name, Name, Process, frozenset], Process]


class EncodingScheme(Enum):
    BOUDOL = "boudol"
    HONDA_TOKORO = "honda-tokoro"


def anchor_steps(scheme: EncodingScheme) -> int:
    """Target steps that one source communication expands into."""
    return 3 if scheme is EncodingScheme.BOUDOL else 2


class Mutation(Enum):
    """Deliberate encoder defects; each must be caught by some validity check."""

    DROP_FORWARDER = "drop-forwarder"
    SWAP_FRESH_ROLES = "swap-fresh-roles"
    REUSE_BOUND_NAME = "reuse-bound-name"
    SWAP_SCHEME_OUTPUT = "swap-scheme-output"


# The placeholders of a clause template: the prefix's subject ``x`` and its
# object ``y`` (an input clause calls its binder ``z``), the bookkeeping
# names ``u`` and ``v``, and the hole for the encoded continuation.
_X, _Y, _Z, _U, _V = (user(n) for n in "xyzuv")
_P = Hole(0)


def _send(subject: Name, obj: Name) -> Process:
    return Output(subject, obj, NIL)


# [[x!y.P]] = new u. (x!u.0 | u(v).(v!y.0 | [[P]]))  (Boudol)
# [[x!y.P]] = x(u).(u!y.0 | [[P]])                     (Honda-Tokoro)
_OUT_TEMPLATES = {
    EncodingScheme.BOUDOL: Restrict(
        _U, Par(_send(_X, _U), Input(_U, _V, Par(_send(_V, _Y), _P)))
    ),
    EncodingScheme.HONDA_TOKORO: Input(_X, _U, Par(_send(_U, _Y), _P)),
}
# [[x(z).P]] = x(u). new v. (u!v.0 | v(z).[[P]])  (Boudol)
# [[x(z).P]] = new u. (x!u.0 | u(z).[[P]])         (Honda-Tokoro)
_IN_TEMPLATES = {
    EncodingScheme.BOUDOL: Input(_X, _U, Restrict(_V, Par(_send(_U, _V), Input(_V, _Z, _P)))),
    EncodingScheme.HONDA_TOKORO: Restrict(_U, Par(_send(_X, _U), Input(_U, _Z, _P))),
}
# Each mutant's output clause, Boudol's and then Honda-Tokoro's.
_MUTANT_OUT_TEMPLATES = {
    # The reply is never forwarded, so the payload is lost.
    Mutation.DROP_FORWARDER: (
        Restrict(_U, Par(_send(_X, _U), Input(_U, _V, _P))),
        Input(_X, _U, _P),
    ),
    # Boudol's forwarder answers on the handshake channel, not the fresh
    # reply; Honda-Tokoro's payload is replaced by the bookkeeping name.
    Mutation.SWAP_FRESH_ROLES: (
        Restrict(_U, Par(_send(_X, _U), Input(_U, _V, Par(_send(_U, _Y), _P)))),
        Input(_X, _U, Par(_send(_U, _U), _P)),
    ),
    # Boudol's handshake channel shadows the subject itself; Honda-Tokoro's
    # handshake binder shadows the payload, capturing it.
    Mutation.REUSE_BOUND_NAME: (
        Restrict(_X, Par(_send(_X, _X), Input(_X, _U, Par(_send(_U, _Y), _P)))),
        Input(_X, _Y, Par(_send(_Y, _Y), _P)),
    ),
    Mutation.SWAP_SCHEME_OUTPUT: (
        _OUT_TEMPLATES[EncodingScheme.HONDA_TOKORO],
        _OUT_TEMPLATES[EncodingScheme.BOUDOL],
    ),
}


def _clause(template: Process) -> Clause:
    """Compile a clause template into the clause it denotes.

    The clause takes the prefix's two names, the encoded continuation and a
    set of ``extra`` names to avoid.  This is the one home of the fresh-name
    rule: ``u`` and then ``v``, those of them the template uses, are each
    the least fresh name outside fn(body) ∪ {x, y} ∪ extra and the names
    taken before.  The template is read once, here, into one closure per
    node (``_compile``); a call reads it no more.
    """
    fresh = [n for n in (_U, _V) if n in names(template)]
    slots = {_X: 0, _Y: 1, _Z: 1} | {n: 2 + i for i, n in enumerate(fresh)}
    build = _compile(template, slots)

    def clause(x: Name, y: Name, body: Process, extra: frozenset) -> Process:
        env, taken = [x, y], {x, y, *free_names(body), *extra}
        for _ in fresh:
            env.append(fresh_name(taken))
            taken.add(env[-1])
        return build(env, body)

    return clause


def _compile(t: Process, slots: dict) -> Callable[[list, Process], Process]:
    """The closure that builds ``t``'s instance from the placeholders' names,
    found in its first argument at their ``slots``, and the continuation."""
    match t:
        case Hole(index=0):
            return lambda env, body: body
        case Nil():
            return lambda env, body: NIL
        case Output(subject=a, obj=b, cont=c) | Input(subject=a, binder=b, cont=c):
            prefix, i, j, cont = type(t), slots[a], slots[b], _compile(c, slots)
            return lambda env, body: prefix(env[i], env[j], cont(env, body))
        case Par(left=l, right=r):
            left, right = _compile(l, slots), _compile(r, slots)
            return lambda env, body: Par(left(env, body), right(env, body))
        case Restrict(binder=b, body=c):
            i, inner = slots[b], _compile(c, slots)
            return lambda env, body: Restrict(env[i], inner(env, body))
    raise ValueError(f"not a clause template: {t!r}")


_OUT = {scheme: _clause(t) for scheme, t in _OUT_TEMPLATES.items()}
_IN = {scheme: _clause(t) for scheme, t in _IN_TEMPLATES.items()}


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


def _encoder(out_clause: Clause, in_clause: Clause) -> Callable[[Process], Process]:
    """The translation by the given clauses.  It recurses through itself,
    so every subterm's encoding is kept on its node: a renamed or
    substituted term shares most subterms with the original, and their
    encodings are not redone.  Every encoder is built once, at import."""

    @memo
    def translate(p: Process) -> Process:
        return _encode_node(p, translate, out_clause, in_clause)

    return translate


_boudol = _encoder(_OUT[EncodingScheme.BOUDOL], _IN[EncodingScheme.BOUDOL])
_honda_tokoro = _encoder(_OUT[EncodingScheme.HONDA_TOKORO], _IN[EncodingScheme.HONDA_TOKORO])
_MUTANTS = {
    (scheme, mutation): _encoder(_clause(t), _IN[scheme])
    for mutation, row in _MUTANT_OUT_TEMPLATES.items()
    for scheme, t in zip(EncodingScheme, row)
}


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


def mutant_encoder(scheme: EncodingScheme, mutation: Mutation) -> Callable[[Process], Process]:
    """An encoder with one defect injected into its output clause; the same
    memoised function on every call."""
    if not isinstance(mutation, Mutation):
        raise ValueError(f"not a Mutation: {mutation!r}")
    return _MUTANTS[scheme, mutation]
