"""Terms of the choice-free synchronous pi-calculus with a success constant.

Names live in two disjoint spaces: user names (spelled identifiers, the only
kind the parser produces) and fresh names (machine-generated, rendered #k).
Keeping the spaces apart means fresh-name generation can never collide with
anything a user wrote.

Terms and names are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006).  Every constructor looks its arguments up
in one process-lifetime intern table and returns the node built before for
them, so structurally equal terms, and equal names, are the same object:
equality and hashing are by identity, as for any plain object.  Build nodes
only through their constructors.  The table keys a node by its tag and its
children, and holds every node it ever built.  Lookup and insertion are not
locked, so nodes must not be built from several threads at once.

An identity hash follows the address, so the iteration order of a set of
nodes or names changes from run to run.  No output may follow it: sort by
``Name.sort_key``, take a ``min`` or ``max``, or test membership only.

Each node also stores facts that its constructor derives from its
children's facts, without a walk: free names (interned sets, shared between
nodes), size, whether it contains a replication or a success leaf, whether
a success leaf sits at an unguarded position, and whether it is
asynchronous.  Nodes are immutable: assigning an attribute raises.

Functions of one term that are asked the same question many times (alpha
form, canonical form and state, barbs, reducts and inert reducts, printing,
encoding) are decorated with ``memo``, which keeps each result on the node
it was computed from.  There is no global cache and no eviction: a result lives as long as
its node, which is the whole process.

Substitution and renaming share one capture-avoiding walker:
``substitute(p, old, new)`` is ``apply_renaming(p, {old: new})``.  The
walker keeps subterms without a renamed free name as they are, and renames a
binder, into the fresh space, only when a renamed name would be captured.
Renaming is memoised on the node too, at the entry of ``substitute`` and
``apply_renaming`` only.  The key is the map restricted to the node's free
names, without identity pairs, listed flat as ``(old, new, old, new, ...)``:
``substitute(p, old, new)`` and ``apply_renaming(p, {old: new})`` share the
entry ``(old, new)``.  A tuple of names never equals a ``memo`` function, so
the two kinds of entry share the node's dict.
"""

from __future__ import annotations

from functools import wraps
from itertools import count
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

USER = "user"
FRESH = "fresh"

# The intern table: (tag, children or leaf values) -> the one node or name,
# and each value passed to ``interned`` (free-name sets, renaming keys,
# reduction's barbs) -> itself.  A node key starts with its tag, a str, so
# it never equals one of those.
_TABLE: dict = {}


class _Interned:
    """Immutable slots; repr and pickling through the constructor."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _facts: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # Setters of the fields, then the facts, in ``_intern``'s argument
        # order; slot descriptors bypass the refusing ``__setattr__``.
        cls._put = tuple(getattr(cls, s).__set__ for s in cls.__match_args__ + cls._facts)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def _intern(cls, key: tuple, *values):
    node = object.__new__(cls)
    for put, value in zip(cls._put, values):
        put(node, value)
    _TABLE[key] = node
    return node


class Name(_Interned):
    """A channel name: ``space`` is "user" or "fresh", ``key`` a str or int."""

    __slots__ = ("space", "key")
    __match_args__ = ("space", "key")

    def __new__(cls, space: str, key: str | int):
        k = ("name", space, key)
        name = _TABLE.get(k)
        if name is None:
            name = _intern(cls, k, space, key)
        return name

    @property
    def is_fresh(self) -> bool:
        return self.space == FRESH

    def sort_key(self):
        # User names order before fresh ones; within a space, by key.
        return (1, self.key, "") if self.space == FRESH else (0, "", self.key)

    def __str__(self):
        return f"#{self.key}" if self.space == FRESH else str(self.key)


def user(key: str) -> Name:
    return Name(USER, key)


def fresh(index: int) -> Name:
    return Name(FRESH, index)


NameSet = frozenset  # alias used in signatures: frozenset[Name]

EMPTY: NameSet = frozenset()


class Process(_Interned):
    """Base class for term nodes: interned, immutable, hashed by identity.

    Facts: ``_free`` free names, ``_size`` constructor count, ``_repl`` a
    replication occurs, ``_ok`` a success leaf occurs (guarded or not),
    ``_barb`` a success leaf occurs unguarded, ``_async`` every output
    continuation is the empty process.  ``_memo`` holds the results of
    ``memo`` functions and of renamings: ``_NO_MEMO`` until the first.
    """

    __slots__ = ("_free", "_size", "_repl", "_ok", "_barb", "_async", "_memo")
    _facts = __slots__


# Every node's ``_memo`` until it stores a result; never written to.  A
# shared empty dict, rather than an unset slot, keeps a node's first memo
# lookup on the cheap KeyError path.
_NO_MEMO: dict = {}


R = TypeVar("R")
T = TypeVar("T")


def memo(fn: Callable[[Process], R]) -> Callable[[Process], R]:
    """Memoise a function of one term on the term: the result is stored in
    the node's ``_memo`` dict under ``fn``.  Sound because nodes are
    interned and immutable; ``__wrapped__`` is the undecorated function."""

    @wraps(fn)
    def memoised(p: Process) -> R:
        try:
            return p._memo[fn]
        except KeyError:
            pass
        result = _own_memo(p)[fn] = fn(p)
        return result

    return memoised


_put_memo = Process._memo.__set__


def _own_memo(p: Process) -> dict:
    """The node's ``_memo`` dict, given one of its own on first use."""
    stored = p._memo
    if stored is _NO_MEMO:
        stored = {}
        _put_memo(p, stored)
    return stored


def interned(value: T) -> T:
    """The one stored value equal to ``value``, stored now if it is the
    first.  Free-name sets, renaming keys and reduction's barbs are
    interned: a corpus has a few hundred distinct ones, shared by tens of
    thousands of nodes."""
    return _TABLE.setdefault(value, value)


def _leaf(cls, key: tuple, fields: tuple, size: int, ok: bool):
    node = _TABLE.get(key)
    if node is None:
        node = _intern(cls, key, *fields, EMPTY, size, False, ok, ok, True, _NO_MEMO)
    return node


class Nil(Process):
    __slots__ = ()

    def __new__(cls):
        return _leaf(cls, ("nil",), (), 0, False)


class Success(Process):
    __slots__ = ()

    def __new__(cls):
        return _leaf(cls, ("ok",), (), 1, True)


class Hole(Process):
    """Placeholder leaf used only inside contexts built by the encodings module."""

    __slots__ = ("index",)
    __match_args__ = ("index",)

    def __new__(cls, index: int):
        return _leaf(cls, ("hole", index), (index,), 1, False)


class Output(Process):
    __slots__ = ("subject", "obj", "cont")
    __match_args__ = ("subject", "obj", "cont")

    def __new__(cls, subject: Name, obj: Name, cont: Process):
        key = ("out", subject, obj, cont)
        node = _TABLE.get(key)
        if node is None:
            fc = cont._free
            free = fc if subject in fc and obj in fc else interned(fc | {subject, obj})
            node = _intern(
                cls, key, subject, obj, cont,
                free, cont._size + 1, cont._repl, cont._ok, False, cont is NIL, _NO_MEMO,
            )
        return node


class Input(Process):
    __slots__ = ("subject", "binder", "cont")
    __match_args__ = ("subject", "binder", "cont")

    def __new__(cls, subject: Name, binder: Name, cont: Process):
        key = ("in", subject, binder, cont)
        node = _TABLE.get(key)
        if node is None:
            free = cont._free
            if binder in free or subject not in free:
                free = interned((free - {binder}) | {subject})
            node = _intern(
                cls, key, subject, binder, cont,
                free, cont._size + 1, cont._repl, cont._ok, False, cont._async, _NO_MEMO,
            )
        return node


class Par(Process):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Process, right: Process):
        key = ("par", left, right)
        node = _TABLE.get(key)
        if node is None:
            lf, rf = left._free, right._free
            free = lf if rf <= lf else rf if lf <= rf else interned(lf | rf)
            node = _intern(
                cls, key, left, right,
                free, left._size + right._size + 1, left._repl or right._repl,
                left._ok or right._ok, left._barb or right._barb,
                left._async and right._async, _NO_MEMO,
            )
        return node


class Restrict(Process):
    __slots__ = ("binder", "body")
    __match_args__ = ("binder", "body")

    def __new__(cls, binder: Name, body: Process):
        key = ("new", binder, body)
        node = _TABLE.get(key)
        if node is None:
            free = body._free
            if binder in free:
                free = interned(free - {binder})
            node = _intern(
                cls, key, binder, body,
                free, body._size + 1, body._repl, body._ok, body._barb, body._async,
                _NO_MEMO,
            )
        return node


class Repl(Process):
    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __new__(cls, body: Process):
        key = ("repl", body)
        node = _TABLE.get(key)
        if node is None:
            node = _intern(
                cls, key, body,
                body._free, body._size + 1, True, body._ok, body._barb, body._async,
                _NO_MEMO,
            )
        return node


NIL = Nil()
SUCCESS = Success()


def free_names(p: Process) -> NameSet:
    return p._free


def bound_names(p: Process) -> NameSet:
    found = set()
    stack = [p]
    while stack:
        match stack.pop():
            case Nil() | Success() | Hole():
                pass
            case Input(binder=b, cont=c) | Restrict(binder=b, body=c):
                found.add(b)
                stack.append(c)
            case Output(cont=c) | Repl(body=c):
                stack.append(c)
            case Par(left=l, right=r):
                stack += (l, r)
            case q:
                raise TypeError(f"not a process: {q!r}")
    return frozenset(found)


def names(p: Process) -> NameSet:
    return free_names(p) | bound_names(p)


def fresh_name(avoid: Iterable[Name]) -> Name:
    """Least fresh-space name not in ``avoid``. Deterministic and pure."""
    taken = {n.key for n in avoid if isinstance(n, Name) and n.is_fresh}
    i = 0
    while i in taken:
        i += 1
    return fresh(i)


def substitute(p: Process, old: Name, new: Name) -> Process:
    """Capture-avoiding replacement of free occurrences of ``old`` by ``new``.

    Binders are renamed (into the fresh space) only when the replacement
    would actually capture, so ordinary cases keep their spelled names.
    """
    if old is new or old not in p._free:
        return p
    return _renamed(p, (old, new))


def apply_renaming(p: Process, sigma: Mapping[Name, Name]) -> Process:
    """Simultaneous, possibly non-injective renaming of free names.

    ``sigma`` defaults to the identity outside its explicit domain.
    """
    free = p._free
    key = ()
    for k, v in sigma.items():
        if k is not v and k in free:
            key += (k, v)
    if not key:
        return p
    return _renamed(p, key)


def _renamed(p: Process, key: tuple) -> Process:
    """``_rename(p, sigma)`` for the map listed flat in ``key``, as
    ``(old, new, old, new, ...)``, kept in ``p._memo`` under ``key``.

    The map is restricted to fn(p) and has no identity pair.  Sound because
    ``_rename``'s result depends only on ``p`` and that restriction: it
    restricts the map again to each subterm's free names before looking at
    the subterm, and a binder ``b`` it must rename gets the least fresh name
    outside fn(body), the images of fn(body) under the map and ``b``, all
    fixed by ``p`` and the restricted map.  Equal maps listed in another
    order have another key: they miss the memo and never read a wrong
    entry.  Only this entry is memoised, not every level of the walk.  A
    stored key is interned, like a free-name set: a run renames by a few
    hundred maps, on hundreds of thousands of nodes.
    """
    try:
        return p._memo[key]
    except KeyError:
        pass
    result = _rename(p, dict(zip(key[::2], key[1::2])))
    _own_memo(p)[interned(key)] = result
    return result


def _rename(p: Process, sigma: dict[Name, Name]) -> Process:
    free = p._free
    if not sigma.keys() <= free:
        # Only the names free here are renamed; a subterm with none of them
        # is kept as it is.
        if free.isdisjoint(sigma):
            return p
        sigma = {k: v for k, v in sigma.items() if k in free}

    match p:
        case Output(subject=s, obj=o, cont=c):
            return Output(sigma.get(s, s), sigma.get(o, o), _rename(c, sigma))
        case Par(left=l, right=r):
            return Par(_rename(l, sigma), _rename(r, sigma))
        case Repl(body=body):
            return Repl(_rename(body, sigma))
        case Input(subject=s, binder=b, cont=c):
            b2, c2 = _rename_under_binder(b, c, sigma)
            return Input(sigma.get(s, s), b2, c2)
        case Restrict(binder=b, body=body):
            b2, body2 = _rename_under_binder(b, body, sigma)
            return Restrict(b2, body2)
    raise TypeError(f"not a process: {p!r}")


def _rename_under_binder(b: Name, body: Process, sigma: dict[Name, Name]):
    free = body._free
    if b in sigma or not sigma.keys() <= free:
        if free.isdisjoint(sigma):
            return b, body
        sigma = {k: v for k, v in sigma.items() if k != b and k in free}
        if not sigma:
            return b, body
    if b in sigma.values():
        # Some renamed free name would be captured by this binder: rename
        # the binder too, in the same walk.
        nb = fresh_name(free | set(sigma.values()) | {b})
        return nb, _rename(body, {**sigma, b: nb})
    return b, _rename(body, sigma)


def rename_binders(p: Process, supply: Iterator[Name]) -> Process:
    """``p`` with its binders renamed, in preorder, to the names ``supply``
    yields in turn; free names are kept.  The supplied names must be
    distinct and not free in ``p``, so that no binder captures."""

    def go(q: Process, env: dict[Name, Name]) -> Process:
        match q:
            case Nil() | Success() | Hole():
                return q
            case Output(subject=s, obj=o, cont=c):
                return Output(env.get(s, s), env.get(o, o), go(c, env))
            case Input(subject=s, binder=b, cont=c):
                nb = next(supply)
                return Input(env.get(s, s), nb, go(c, {**env, b: nb}))
            case Par(left=l, right=r):
                return Par(go(l, env), go(r, env))
            case Restrict(binder=b, body=body):
                nb = next(supply)
                return Restrict(nb, go(body, {**env, b: nb}))
            case Repl(body=body):
                return Repl(go(body, env))
        raise TypeError(f"not a process: {q!r}")

    return go(p, {})


@memo
def alpha_canonical(p: Process) -> Process:
    """Canonical representative of the alpha-class of ``p``.

    Binders are renumbered into the fresh space in preorder, starting above
    every fresh index that occurs free, so free names are never touched and
    the function is idempotent.
    """
    base = 0
    for n in free_names(p):
        if n.is_fresh:
            base = max(base, n.key + 1)
    return rename_binders(p, map(fresh, count(base)))


def alpha_eq(p: Process, q: Process) -> bool:
    """Whether ``p`` and ``q`` differ at most in the spelling of their
    bound names: ``alpha_canonical(p) is alpha_canonical(q)``, by one walk
    of both terms side by side, without canonical copies.

    Terms with other free names or sizes differ at once (free-name sets
    are interned).  Otherwise the walk reads a bound name as the depth of
    its binder, counted in binders from the root, and a free name as
    itself; a leaf matches only itself.  Binders at one depth on the two
    paths are the ones that take the same preorder number in the
    canonical forms, so the readings agree everywhere exactly when the
    canonical forms are the same node.  A shared subterm read under equal
    maps needs no walk.
    """
    if p is q:
        return True
    if p._free is not q._free or p._size != q._size:
        return False
    stack = [(p, q, {}, {}, 0)]
    while stack:
        a, b, ea, eb, depth = stack.pop()
        if a is b and ea == eb:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Output:
            if ea.get(a.subject, a.subject) != eb.get(b.subject, b.subject):
                return False
            if ea.get(a.obj, a.obj) != eb.get(b.obj, b.obj):
                return False
            stack.append((a.cont, b.cont, ea, eb, depth))
        elif kind is Input:
            if ea.get(a.subject, a.subject) != eb.get(b.subject, b.subject):
                return False
            ea2, eb2 = {**ea, a.binder: depth}, {**eb, b.binder: depth}
            stack.append((a.cont, b.cont, ea2, eb2, depth + 1))
        elif kind is Restrict:
            ea2, eb2 = {**ea, a.binder: depth}, {**eb, b.binder: depth}
            stack.append((a.body, b.body, ea2, eb2, depth + 1))
        elif kind is Par:
            stack.append((a.right, b.right, ea, eb, depth))
            stack.append((a.left, b.left, ea, eb, depth))
        elif kind is Repl:
            stack.append((a.body, b.body, ea, eb, depth))
        elif a is not b:
            return False
    return True


def is_async(p: Process) -> bool:
    """True iff every output prefix has an empty continuation."""
    return p._async


def has_replication(p: Process) -> bool:
    return p._repl


def term_size(p: Process) -> int:
    """Constructor count; the empty process is size 0."""
    return p._size


def par_all(parts: Iterable[Process]) -> Process:
    """Left-associated parallel composition; empty iterable gives 0."""
    out: Process | None = None
    for part in parts:
        out = part if out is None else Par(out, part)
    return NIL if out is None else out
