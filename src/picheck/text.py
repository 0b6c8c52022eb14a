"""Concrete syntax: a small LL(1) parser and a canonical printer.

Grammar, loosest binding first::

    process  := 'new' NAME '.' process | parallel
    parallel := operand ('|' operand)*            (left-associated)
    operand  := prefixed, or a trailing 'new' ... which scopes over the rest
    prefixed := NAME '!' NAME '.' prefixed
              | NAME '(' NAME ')' '.' prefixed
              | '!' prefixed
              | 'new' NAME '.' prefixed           (scope stops at '|')
              | '0' | 'ok' | '(' process ')'

A restriction swallows everything to its right within the current slot:
``new z. a!z.0 | b!b.0`` restricts both sides, while in a prefix
continuation the scope runs only to the end of the chain. The printer
parenthesizes parallel bodies, so printed terms re-parse to the same tree.

Only user-space names are writable; fresh names print as ``#k`` and are
rejected by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    memo,
    user,
)

KEYWORDS = {"new", "ok"}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'name', 'zero', 'sym', 'end'
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            raise ParseError("fresh-space names cannot be written in source", line, col)
        if ch in "!().|":
            toks.append(_Tok("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            text = src[i:j]
            if text != "0":
                raise ParseError(f"unexpected number {text!r}; only 0 is a process", line, col)
            toks.append(_Tok("zero", text, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(_Tok("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_sym(self, sym: str) -> _Tok:
        t = self.next()
        if t.kind != "sym" or t.text != sym:
            raise ParseError(f"expected {sym!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return t

    def name(self) -> Name:
        t = self.next()
        if t.kind != "name" or t.text in KEYWORDS:
            raise ParseError(f"expected a name, found {t.text or 'end of input'!r}", t.line, t.col)
        return user(t.text)

    def process(self) -> Process:
        t = self.peek()
        if t.kind == "name" and t.text == "new":
            self.next()
            binder = self.name()
            self.expect_sym(".")
            return Restrict(binder, self.process())
        return self.parallel()

    def parallel(self) -> Process:
        term = self.prefixed()
        while self.peek().kind == "sym" and self.peek().text == "|":
            self.next()
            t = self.peek()
            if t.kind == "name" and t.text == "new":
                # A trailing restriction scopes over the rest of this slot.
                return Par(term, self.process())
            term = Par(term, self.prefixed())
        return term

    def prefixed(self) -> Process:
        t = self.peek()
        if t.kind == "zero":
            self.next()
            return NIL
        if t.kind == "sym" and t.text == "!":
            self.next()
            return Repl(self.prefixed())
        if t.kind == "sym" and t.text == "(":
            self.next()
            inner = self.process()
            self.expect_sym(")")
            return inner
        if t.kind == "name":
            if t.text == "ok":
                self.next()
                return SUCCESS
            if t.text == "new":
                self.next()
                binder = self.name()
                self.expect_sym(".")
                return Restrict(binder, self.prefixed())
            subject = self.name()
            t2 = self.next()
            if t2.kind == "sym" and t2.text == "!":
                obj = self.name()
                self.expect_sym(".")
                return Output(subject, obj, self.prefixed())
            if t2.kind == "sym" and t2.text == "(":
                binder = self.name()
                self.expect_sym(")")
                self.expect_sym(".")
                return Input(subject, binder, self.prefixed())
            raise ParseError(
                f"expected '!' or '(' after name, found {t2.text or 'end of input'!r}",
                t2.line,
                t2.col,
            )
        raise ParseError(f"expected a process, found {t.text or 'end of input'!r}", t.line, t.col)


def parse(src: str) -> Process:
    p = _Parser(_tokenize(src))
    term = p.process()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return term


def _spine(p: Process) -> list[Process]:
    parts = []
    while isinstance(p, Par):
        parts.append(p.right)
        p = p.left
    parts.append(p)
    parts.reverse()
    return parts


def _atom(p: Process) -> str:
    # Parenthesize parallel compositions in any nested slot.
    return f"({pprint(p)})" if isinstance(p, Par) else pprint(p)


@memo
def pprint(p: Process) -> str:
    """Canonical rendering; re-parses to the same tree for user-space terms."""
    match p:
        case Nil():
            return "0"
        case Success():
            return "ok"
        case Hole(index=i):
            return f"_{i}"
        case Output(subject=s, obj=o, cont=c):
            return f"{s}!{o}.{_atom(c)}"
        case Input(subject=s, binder=b, cont=c):
            return f"{s}({b}).{_atom(c)}"
        case Restrict(binder=b, body=body):
            return f"new {b}. {_atom(body)}"
        case Repl(body=body):
            return f"!{_atom(body)}"
        case Par():
            parts = _spine(p)
            out = []
            for i, part in enumerate(parts):
                bare = not isinstance(part, Par) and (
                    not isinstance(part, Restrict) or i == len(parts) - 1
                )
                out.append(pprint(part) if bare else f"({pprint(part)})")
            return " | ".join(out)
    raise TypeError(f"not a process: {p!r}")
