"""Command-line front end.

Subcommands cover the whole workflow: ``encode`` translates a synchronous
term into the asynchronous fragment, ``step``/``trace`` drive reduction,
``normalize``/``eq`` expose the congruence machinery, ``succeeds`` probes
for the success barb, ``gen`` prints a term corpus, and ``check`` runs the
validity criteria over a corpus and aggregates verdicts.

Exit codes: 0 all Holds, 1 any Violated, 2 any Inconclusive (and none
Violated), 3 usage or parse error, or a term nested too deeply to
process, 4 internal error.  ``--json`` output is line-delimited
and deterministic: re-running with the same flags and seed is
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from itertools import chain, count
from string import ascii_lowercase
from typing import Iterable

from .checker import (
    DEFAULT_CRITERIA,
    Criterion,
    GeneratorConfig,
    SuiteBudgets,
    generate_terms,
    run_suite,
)
from .congruence import MAX_CANDIDATES, UNFOLDS, deep_canon, struct_eq_bounded
from .encodings import EncodingScheme, encode
from .reduction import (
    PROBE_BUDGET,
    STATE_CAP,
    STEP_BUDGET,
    Trace,
    growth_cap,
    may_succeed,
    reduct_candidates,
)
from .syntax import Process, names, rename_binders, term_size, user
from .text import ParseError, parse, pprint
from .verdicts import Outcome, Verdict

SCHEME_NAMES = {
    "boudol": EncodingScheme.BOUDOL,
    "ht": EncodingScheme.HONDA_TOKORO,
    "honda-tokoro": EncodingScheme.HONDA_TOKORO,
}


class UsageError(Exception):
    """Bad flags or unparseable input; mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _count(text: str) -> int:
    """argparse type of a count or budget flag: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _positive(text: str) -> int:
    """argparse type of ``--count``: an empty corpus would pass every
    criterion without checking anything."""
    value = _count(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _scheme(label: str) -> EncodingScheme:
    try:
        return SCHEME_NAMES[label]
    except KeyError:
        raise UsageError(f"unknown scheme {label!r} (use boudol or ht)") from None


def _term(src: str) -> Process:
    try:
        return parse(src)
    except ParseError as exc:
        raise UsageError(f"parse error: {exc}") from None


def _relabel(p: Process) -> Process:
    """Rename every binder to an unused user name so printed canonical
    forms, whose binders are all fresh, stay inside the concrete grammar:
    the letters a to z, and past those a0, a1, a2, ... in turn."""
    taken = names(p)
    spellings = chain(ascii_lowercase, (f"a{i}" for i in count()))
    return rename_binders(p, (n for n in map(user, spellings) if n not in taken))


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _trace_json(trace: Trace | None) -> list:
    if not isinstance(trace, Trace):
        return []
    return [
        {
            "from": pprint(st.source),
            "to": pprint(st.target),
            "subject": str(st.redex.subject),
            "sent": str(st.redex.sent),
            "inert": st.redex.inert,
        }
        for st in trace.steps
    ]


def _exit_for(outcomes: Iterable[Outcome]) -> int:
    worst = 0
    for oc in outcomes:
        if oc is Outcome.VIOLATED:
            return 1
        if oc is Outcome.INCONCLUSIVE:
            worst = max(worst, 2)
    return worst


# ---------------------------------------------------------------- commands


def _cmd_encode(args) -> int:
    p = _term(args.term)
    print(pprint(encode(p, _scheme(args.scheme))))
    return 0


def _cmd_step(args) -> int:
    p = _term(args.term)
    for q, rd in reduct_candidates(p):
        tag = "inert" if rd.inert else "comm"
        print(f"{pprint(q)}    [{tag} {rd.subject}]")
    return 0


def _cmd_trace(args) -> int:
    p = _term(args.term)
    if args.encode is not None:
        p = encode(p, _scheme(args.encode))
    print(f"start  {pprint(p)}")
    cur, cap = p, growth_cap(p)
    for i in range(1, args.max + 1):
        if term_size(cur) > cap:
            print(f"stop  {term_size(cur)} nodes, past the growth bound of {cap} nodes")
            break
        cands = reduct_candidates(cur)
        if not cands:
            break
        cur, rd = cands[0]
        tag = "inert" if rd.inert else "comm"
        print(f"step {i}  [{tag} {rd.subject}]  {pprint(cur)}")
    return 0


def _cmd_normalize(args) -> int:
    p = _term(args.term)
    print(pprint(_relabel(deep_canon(p))))
    return 0


def _cmd_eq(args) -> int:
    a, b = _term(args.left), _term(args.right)
    v = struct_eq_bounded(a, b, args.unfolds)
    wording = {
        Outcome.HOLDS: "equivalent",
        Outcome.VIOLATED: "not equivalent",
        Outcome.INCONCLUSIVE: "unknown",
    }[v.outcome]
    if args.json:
        _emit(
            {
                "left": pprint(a),
                "right": pprint(b),
                "outcome": wording,
                "budgets": {"unfolds": args.unfolds, "candidates": MAX_CANDIDATES},
            }
        )
    else:
        print(wording)
    return _exit_for([v.outcome])


def _cmd_succeeds(args) -> int:
    p = _term(args.term)
    v = may_succeed(p, step_budget=args.max)
    wording = {
        Outcome.HOLDS: "may succeed",
        Outcome.VIOLATED: "never succeeds",
        Outcome.INCONCLUSIVE: "unknown",
    }[v.outcome]
    if args.json:
        _emit(
            {
                "term": pprint(p),
                "outcome": wording,
                "trace": _trace_json(v.witness),
                "budgets": {"step_budget": args.max},
            }
        )
    else:
        print(wording)
        if isinstance(v.witness, Trace):
            for st in v.witness.steps:
                print(f"  -> {pprint(st.target)}")
    return _exit_for([v.outcome])


def _cmd_gen(args) -> int:
    cfg = _generator_config(args)
    for t in generate_terms(cfg):
        print(pprint(t))
    return 0


def _criteria(selector: str) -> tuple[Criterion, ...]:
    by_value = {c.value: c for c in Criterion}
    chosen = []
    for label in selector.split(","):
        label = label.strip()
        if label == "all":
            chosen.extend(DEFAULT_CRITERIA)
            continue
        if label not in by_value:
            raise UsageError(
                f"unknown criterion {label!r} (choose from "
                f"{', '.join(by_value)} or 'all')"
            )
        chosen.append(by_value[label])
    # A name given twice, by itself or through 'all', is read once, at its
    # first position, as ``--names`` reads a letter once.
    return tuple(dict.fromkeys(chosen))


def _generator_config(args) -> GeneratorConfig:
    # Each character becomes a name, and the parser reads a name only when
    # it starts with a letter or '_'.
    unreadable = [c for c in args.names if not (c.isalpha() or c == "_")]
    if unreadable:
        raise UsageError(
            f"--names takes letters or '_', not {', '.join(map(repr, unreadable))}"
        )
    alphabet = tuple(user(c) for c in args.names)
    if not alphabet:
        raise UsageError("--names must list at least one letter")
    if args.count is not None and args.max_nodes < 1:
        raise UsageError("--max-nodes must be positive in random mode (--count)")
    return GeneratorConfig(
        max_nodes=args.max_nodes,
        name_alphabet=alphabet,
        random_count=args.count,
        seed=args.seed,
    )


def _cmd_check(args) -> int:
    cfg = _generator_config(args)
    criteria = _criteria(args.criteria)
    if args.scheme == "both":
        schemes = tuple(EncodingScheme)
    else:
        schemes = (_scheme(args.scheme),)
    budgets = SuiteBudgets(step_budget=args.step_budget)
    budget_record = {
        "step_budget": args.step_budget,
        "eq_unfolds": UNFOLDS,
        "eq_candidates": MAX_CANDIDATES,
        "divergence_budget": PROBE_BUDGET,
        "success_budget": PROBE_BUDGET,
        "state_cap": STATE_CAP,
    }

    def on_verdict(criterion, scheme, term, v: Verdict) -> None:
        if not args.json:
            return
        _emit(
            {
                "criterion": criterion.value,
                "scheme": scheme.value,
                "term": pprint(term),
                "outcome": v.outcome.value,
                "trace": _witness_traces(v),
                "budgets": budget_record,
            }
        )

    reports = run_suite(
        cfg,
        schemes=schemes,
        budgets=budgets,
        criteria=criteria,
        on_verdict=on_verdict,
    )
    outcomes = []
    for r in reports:
        if r.violated:
            outcomes.append(Outcome.VIOLATED)
        elif r.inconclusive:
            outcomes.append(Outcome.INCONCLUSIVE)
        else:
            outcomes.append(Outcome.HOLDS)
        if not args.json:
            flag = "PASS" if r.passed else "FAIL"
            print(
                f"{flag} {r.scheme.value:12s} {r.criterion.value:22s} "
                f"holds={r.holds} violated={r.violated} "
                f"inconclusive={r.inconclusive}"
            )
    return _exit_for(outcomes)


def _witness_traces(v: Verdict) -> list:
    """Flatten whatever traces the witness carries into step lists."""
    found: list = []

    def scan(obj) -> None:
        if isinstance(obj, Trace):
            found.extend(_trace_json(obj))
        elif isinstance(obj, tuple):
            for item in obj:
                scan(item)

    scan(v.witness)
    return found


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="picheck", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="translate a term into the asynchronous fragment")
    enc.add_argument("--scheme", default="boudol", help="boudol or ht")
    enc.add_argument("term")
    enc.set_defaults(func=_cmd_encode)

    st = sub.add_parser("step", help="print every one-step reduct")
    st.add_argument("term")
    st.set_defaults(func=_cmd_step)

    tr = sub.add_parser("trace", help="follow the first available reduction chain")
    tr.add_argument("--encode", default=None, metavar="SCHEME",
                    help="encode the term first (boudol or ht)")
    tr.add_argument("--max", type=_count, default=16, help="step limit (default 16)")
    tr.add_argument("term")
    tr.set_defaults(func=_cmd_trace)

    nm = sub.add_parser("normalize", help="print the canonical congruence representative")
    nm.add_argument("term")
    nm.set_defaults(func=_cmd_normalize)

    eq = sub.add_parser("eq", help="decide structural congruence up to bounded unfolding")
    eq.add_argument("left")
    eq.add_argument("right")
    eq.add_argument("--unfolds", type=_count, default=UNFOLDS,
                    help=f"replication unfolding depth (default {UNFOLDS})")
    eq.add_argument("--json", action="store_true")
    eq.set_defaults(func=_cmd_eq)

    sc = sub.add_parser("succeeds", help="search for a reachable success barb")
    sc.add_argument("term")
    sc.add_argument("--max", type=_count, default=STEP_BUDGET,
                    help=f"step budget (default {STEP_BUDGET})")
    sc.add_argument("--json", action="store_true")
    sc.set_defaults(func=_cmd_succeeds)

    def corpus_flags(p) -> None:
        p.add_argument("--max-nodes", type=_count, default=4,
                       help="constructor-node bound (default 4)")
        p.add_argument("--names", default="xy",
                       help="user-name alphabet, one letter each (default xy)")
        p.add_argument("--seed", type=int, default=0,
                       help="random-mode seed (default 0)")
        p.add_argument("--count", type=_positive, default=None,
                       help="random mode: number of terms (default: exhaustive)")

    gen = sub.add_parser("gen", help="print the term corpus, one term per line")
    corpus_flags(gen)
    gen.set_defaults(func=_cmd_gen)

    ck = sub.add_parser("check", help="run validity criteria over a corpus")
    ck.add_argument("--criteria", default="all",
                    help="comma-separated criterion names; 'all' stands for "
                         "every default criterion")
    ck.add_argument("--scheme", default="both", help="boudol, ht, or both")
    corpus_flags(ck)
    ck.add_argument("--step-budget", type=_count, default=STEP_BUDGET,
                    help=f"reduction step budget (default {STEP_BUDGET})")
    ck.add_argument("--json", action="store_true")
    ck.set_defaults(func=_cmd_check)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Downstream reader closed early (e.g. `picheck gen | head`); point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except RecursionError:
        print("picheck: term nested too deeply", file=sys.stderr)
        return 3
    except Exception:
        # A crash must not read as "violated" (exit 1).
        traceback.print_exc()
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
