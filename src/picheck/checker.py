"""Executable validity criteria for the two translations, over term corpora.

Five classic criteria (compositionality, name invariance, operational
completeness and soundness, divergence reflection, success sensitiveness)
plus a lemma suite of the preservation properties no other criterion
checks, each returning a three-valued verdict.  Name invariance is the one
check that renaming commutes with translation.  A criterion passes a
corpus only with zero Violated entries; bounded searches report
Inconclusive instead of guessing.
"""

from __future__ import annotations

import random
import time
from bisect import bisect
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count
from typing import Callable, ClassVar, Iterable, Iterator

from . import verdicts
from .congruence import UNFOLDS, struct_eq_bounded
from .encodings import (
    EncodingScheme,
    anchor_steps,
    asyncify,
    context_for,
    decompose,
    fill,
    translator,
)
from .reduction import (
    PROBE_BUDGET,
    STATE_CAP,
    STEP_BUDGET,
    Trace,
    TraceStep,
    can_step,
    diverges_bounded,
    explore,
    has_success,
    inert_normal_form,
    inert_reducts,
    may_succeed,
    reduct_candidates,
    reduces_to,
)
from .syntax import (
    NIL,
    SUCCESS,
    Input,
    Name,
    Output,
    Par,
    Process,
    Repl,
    Restrict,
    alpha_canonical,
    alpha_eq,
    apply_renaming,
    free_names,
    fresh_name,
    has_replication,
    is_async,
    names,
    user,
)
from .verdicts import Outcome, Verdict

Translate = Callable[[Process], Process]


@dataclass(frozen=True)
class GeneratorConfig:
    """Corpus shape: exhaustive up to a node count, or seeded random."""

    max_nodes: int = 4
    name_alphabet: tuple[Name, ...] = (user("x"), user("y"))
    random_count: int | None = None
    seed: int = 0


def _exhaustive(cfg: GeneratorConfig) -> Iterator[Process]:
    """One representative per alpha class, layer by layer, first found kept.

    ``by_size[k - 1]`` holds one term of each alpha class of that size, so
    the class of ``Output(x, y, c)``, ``Par(l, r)`` or ``Repl(b)`` is fixed
    by its operator, its names and its children's classes: such a candidate
    never equals another one, nor any smaller term, and is appended without
    a key.  Only a binder can make two candidates alpha-equal, as in
    ``x(x).0`` and ``x(y).0``; ``Input`` and ``Restrict`` candidates are
    keyed by ``alpha_canonical`` against the layer's keys.  A repeated
    letter would repeat the unkeyed candidates, so the alphabet is deduped
    first, keeping its order.
    """
    alphabet = list(dict.fromkeys(cfg.name_alphabet))
    by_size: dict[int, list[Process]] = {0: [NIL]}
    yield NIL
    for k in range(1, cfg.max_nodes + 1):
        layer: list[Process] = []
        keys: set[Process] = set()

        def add_binder(t: Process) -> None:
            key = alpha_canonical(t)
            if key not in keys:
                keys.add(key)
                layer.append(t)

        if k == 1:
            layer.append(SUCCESS)
        for cont in by_size[k - 1]:
            for x in alphabet:
                for y in alphabet:
                    layer.append(Output(x, y, cont))
                for z in alphabet:
                    add_binder(Input(x, z, cont))
        for body in by_size[k - 1]:
            for b in alphabet:
                add_binder(Restrict(b, body))
            layer.append(Repl(body))
        for i in range(k):
            for l in by_size[i]:
                for r in by_size[k - 1 - i]:
                    layer.append(Par(l, r))
        by_size[k] = layer
        yield from layer


# The random corpus's node kinds and their weights 3, 3, 3, 2, 1, 1, 1.  A
# kind is _KINDS[bisect(_CUM_WEIGHTS, rng.random() * 14.0, 0, 6)], which is
# what rng.choices(_KINDS, cum_weights=_CUM_WEIGHTS)[0] computes, and
# _random's below(n) is the loop that rng.choice over n items and
# rng.randint(a, a + n - 1) run (CPython 3.10 to 3.13).  So the terms are
# the ones those calls draw, without their per-call overhead.
_KINDS = ("out", "in", "par", "new", "nil", "repl", "ok")
_CUM_WEIGHTS = (3, 6, 9, 11, 12, 13, 14)


def _random(cfg: GeneratorConfig) -> Iterator[Process]:
    alphabet = cfg.name_alphabet
    letters = len(alphabet)
    rng = random.Random(cfg.seed)
    draw, getrandbits = rng.random, rng.getrandbits

    def below(n: int) -> int:
        # Uniform on range(n): k bits at a time until the draw is below n.
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def go(budget: int) -> Process:
        if budget <= 0:
            return NIL
        kind = _KINDS[bisect(_CUM_WEIGHTS, draw() * 14.0, 0, 6)]
        match kind:
            case "nil":
                return NIL
            case "ok":
                return SUCCESS
            case "out":
                return Output(alphabet[below(letters)], alphabet[below(letters)], go(budget - 1))
            case "in":
                return Input(alphabet[below(letters)], alphabet[below(letters)], go(budget - 1))
            case "par":
                split = below(budget)
                return Par(go(split), go(budget - 1 - split))
            case "new":
                return Restrict(alphabet[below(letters)], go(budget - 1))
            case "repl":
                return Repl(go(budget - 1))
        raise AssertionError(kind)

    for _ in range(cfg.random_count):
        yield go(1 + below(cfg.max_nodes))


def generate_terms(cfg: GeneratorConfig) -> Iterator[Process]:
    """Deterministic corpus stream.

    Exhaustive mode yields one representative per alpha-class, smallest terms
    first; random mode yields exactly ``random_count`` terms from the seed,
    each of at most ``max_nodes`` nodes.  A random term is drawn against a
    node budget of 1 to ``max_nodes`` and may stop short of it: a ``0`` leaf
    ends a branch, so some draws are ``0`` itself.  A random corpus needs at
    least one term, since an empty one would pass every criterion unchecked.
    """
    if not cfg.name_alphabet:
        raise ValueError("name alphabet must not be empty")
    if cfg.random_count is None:
        yield from _exhaustive(cfg)
        return
    if cfg.max_nodes < 1:
        raise ValueError("a random corpus needs max_nodes of at least 1")
    if cfg.random_count < 1:
        raise ValueError("a random corpus needs random_count of at least 1")
    yield from _random(cfg)


class Criterion(Enum):
    COMPOSITIONALITY = "compositionality"
    NAME_INVARIANCE = "name-invariance"
    OP_COMPLETENESS = "op-completeness"
    OP_SOUNDNESS = "op-soundness"
    DIVERGENCE_REFLECTION = "divergence-reflection"
    SUCCESS_SENSITIVENESS = "success-sensitiveness"
    LEMMA_SUITE = "lemma-suite"
    BARB_CONFLUENCE = "barb-confluence"
    INERT_CONFLUENCE = "inert-confluence"


DEFAULT_CRITERIA = (
    Criterion.COMPOSITIONALITY,
    Criterion.NAME_INVARIANCE,
    Criterion.OP_COMPLETENESS,
    Criterion.OP_SOUNDNESS,
    Criterion.DIVERGENCE_REFLECTION,
    Criterion.SUCCESS_SENSITIVENESS,
    Criterion.LEMMA_SUITE,
)


@dataclass(frozen=True)
class SuiteBudgets:
    """The budgets of a suite run.  Only the step budget, which op-soundness
    reads, is set per run; the rest are the searches' defaults.  Every
    search runs under the one ``state_cap``; ``soundness_state_cap`` is the
    same number and remains only because the benchmark's workloads
    (``perfbench/workloads.py``) read it."""

    step_budget: int = STEP_BUDGET
    eq: ClassVar[int] = UNFOLDS
    state_cap: ClassVar[int] = STATE_CAP
    soundness_state_cap: ClassVar[int] = STATE_CAP
    divergence_budget: ClassVar[int] = PROBE_BUDGET
    success_budget: ClassVar[int] = PROBE_BUDGET


@dataclass(frozen=True)
class CriterionReport:
    criterion: Criterion
    scheme: EncodingScheme
    holds: int
    violated: int
    inconclusive: int
    elapsed: float

    @property
    def checked(self) -> int:
        return self.holds + self.violated + self.inconclusive

    @property
    def passed(self) -> bool:
        return self.violated == 0


def _translator(scheme: EncodingScheme, translate: Translate | None) -> Translate:
    return translator(scheme) if translate is None else translate


def check_compositionality(s: Process, scheme: EncodingScheme) -> Verdict:
    """The root operator factors through its dedicated target context,
    exactly for the context indexed by fn(s) and up to alpha for larger
    indices."""
    op, args = decompose(s)
    if not args:
        return verdicts.holds()
    tr = translator(scheme)
    lhs = tr(s)
    enc_args = tuple(tr(a) for a in args)
    n = free_names(s)
    try:
        exact = fill(context_for(op, n, scheme), enc_args) == lhs
        taken = names(s)
        e1 = fresh_name(taken)
        e2 = fresh_name(taken | {e1})
        wider = fill(context_for(op, n | {e1, e2}, scheme), enc_args)
        relaxed = alpha_eq(wider, lhs)
    except ValueError:
        return verdicts.violated(witness=(s, "context capture"))
    if exact and relaxed:
        return verdicts.holds()
    return verdicts.violated(witness=(s, "exact" if not exact else "alpha"))


def check_name_invariance(
    s: Process,
    sigma: dict[Name, Name],
    scheme: EncodingScheme,
    translate: Translate | None = None,
) -> Verdict:
    """Translating a renamed term equals renaming the translation by the
    same map (each source name stands for itself in the target); holds for
    non-injective maps too.

    Gorla's name invariance ("Towards a unified approach to encodability
    and separation results for process calculi", Inf. & Comp. 2010) asks
    this of every substitution.  A run checks the maps of
    ``_default_sigmas``: the identity, the swap, the collapse onto one name
    and a move into a spare name, which move or merge several names at
    once, then every one-name map from the alphabet into the alphabet plus
    the spare name, the single substitutions a corpus term can meet.  This
    is the only criterion that renames."""
    tr = _translator(scheme, translate)
    lhs = tr(apply_renaming(s, sigma))
    rhs = apply_renaming(tr(s), sigma)
    if alpha_eq(lhs, rhs):
        return verdicts.holds()
    witness = (s, tuple(sorted((str(k), str(v)) for k, v in sigma.items())))
    return verdicts.violated(witness=witness)


def check_op_completeness(
    s: Process,
    scheme: EncodingScheme,
    *,
    eq_budget: int = UNFOLDS,
    translate: Translate | None = None,
) -> Verdict:
    """Every source step is simulated in exactly the scheme's step count:
    one communication step, then only inert steps, landing on the encoded
    reduct.  A pattern miss falls back to plain bounded reachability so a
    defective encoder is reported Violated, not merely unmatched; that
    search alone decides a step no anchored path matched.

    "Landing on" is up to structural congruence ≡.  Gorla states operational
    completeness up to a success-respecting target equivalence ≍, and ≡ is
    contained in it: a Holds proves Gorla's clause, and a Violated refutes
    only the ≡ form.

    A term that cannot step has no step to simulate: Holds with no
    witnesses, without encoding the term."""
    k = anchor_steps(scheme)
    if not can_step(s):
        return verdicts.holds(witness=(), steps=k)
    tr = _translator(scheme, translate)
    enc_s = tr(s)
    details = []
    any_inconclusive = False
    for s1, _ in reduct_candidates(s):
        goal = tr(s1)
        matched: Trace | None = None
        stack: list[tuple[Process, int, tuple[TraceStep, ...]]] = [(enc_s, 0, ())]
        while stack and matched is None:
            state, depth, steps = stack.pop()
            if depth == k:
                if struct_eq_bounded(state, goal, eq_budget).is_holds:
                    matched = Trace(enc_s, steps)
                continue
            for q, rd in reduct_candidates(state):
                if depth >= 1 and not rd.inert:
                    continue
                stack.append((q, depth + 1, steps + (TraceStep(state, q, rd),)))
        if matched is not None:
            details.append((s1, matched, True))
            continue
        # Pattern misses are rare and the anchored walk already covers depth
        # k, so the fallback only needs a small cushion.
        fallback = reduces_to(enc_s, goal, step_budget=k + 4, eq_budget=eq_budget)
        if fallback.is_holds:
            details.append((s1, fallback.witness, False))
        elif fallback.is_violated:
            return verdicts.violated(witness=(s, s1), steps=k)
        else:
            any_inconclusive = True
    if any_inconclusive:
        return verdicts.inconclusive(witness=s, steps=k)
    return verdicts.holds(witness=tuple(details), steps=k)


def _predecessors(edges: dict) -> dict:
    """Each key's predecessors along the edge relation."""
    preds: dict = {}
    for key, succs in edges.items():
        for sk in succs:
            preds.setdefault(sk, []).append(key)
    return preds


def _reaches(preds: dict, seeds: set) -> set:
    """Keys that can reach a seed: one backward search over ``preds``."""
    good = set(seeds)
    stack = list(seeds)
    while stack:
        for key in preds.get(stack.pop(), ()):
            if key not in good:
                good.add(key)
                stack.append(key)
    return good


def check_op_soundness(
    s: Process,
    scheme: EncodingScheme,
    *,
    step_budget: int = STEP_BUDGET,
    eq_budget: int = UNFOLDS,
    state_cap: int = STATE_CAP,
    translate: Translate | None = None,
) -> Verdict:
    """Every reachable target state can keep reducing onto the encoding of
    some reachable source state, modulo inert steps.  Decided by marking
    matching target states and closing backwards; only fully explored
    graphs may be judged.

    The target graph is explored modulo inert steps: its root and every
    successor are replaced by their ``inert_normal_form`` before they are
    keyed, and so are the images ``tr(S')`` the states are matched against.
    Without that, a target that keeps a pending handshake one inert step
    from ``0`` beside each new copy of a replication, ``!P | H | ... | H``,
    grows past its size bound although it has one state modulo inert
    steps.  The images need it too: ``[[new x. (x!y.0 | x(z).0)]]``
    normalises to ``0`` under both schemes.  Why the quotient is sound:

    - inert steps unfold nothing and consume two prefixes each, so they
      terminate;
    - ``_inert_ok`` leaves the reacting channel to the two prefixes alone,
      so an inert step commutes with every other step;
    - so a normal form is unique up to ≡ (Groote & Sellink, "Confluence for
      process verification", TCS 1996), the normal form of every state
      reachable from ``tr(s)`` is congruent to an explored state, and a
      state reaches a normalised image exactly when its normal form does.

    A target state matches a normalised image up to structural congruence
    ≡.  Gorla states operational soundness up to a success-respecting
    target equivalence ≍, and inert steps are invisible to it: they are
    confluent and fire on a restricted channel, which is the
    administrative-step argument of Nestmann & Pierce ("Decoding choice
    encodings", Inf. & Comp. 2000).  So a Holds proves Gorla's clause up
    to ≍, and a Violated refutes only the "≡ modulo inert steps" form.

    When neither ``s`` nor its translation can step, and the step budget
    allows one expansion, both graphs have one state, and the only target
    state is the image of the only source state: Holds with one state and
    one source, without a search.

    Otherwise each side is explored with ``stop_at_cut``: a truncated graph
    gives Inconclusive whatever else it holds, so the search stops at its
    first cut, and an Inconclusive verdict's ``states`` counts the states
    found by then."""
    tr = _translator(scheme, translate)
    enc_s = tr(s)
    if step_budget >= 1 and not (can_step(s) or can_step(enc_s)):
        return verdicts.holds(states=1, sources=1)
    src = explore(s, step_budget=step_budget, state_cap=state_cap, stop_at_cut=True)
    if src.truncated:
        return verdicts.inconclusive(witness=s, states=len(src.states))
    tgt = explore(
        enc_s,
        step_budget=step_budget,
        state_cap=state_cap,
        stop_at_cut=True,
        normalise=inert_normal_form,
    )
    if tgt.truncated:
        return verdicts.inconclusive(witness=s, states=len(tgt.states))
    images = [inert_normal_form(tr(term)) for term in src.states.values()]
    marked = set()
    maybe = set()
    for key, term in tgt.states.items():
        for image in images:
            v = struct_eq_bounded(term, image, eq_budget)
            if v.is_holds:
                marked.add(key)
                break
            if v.is_inconclusive:
                maybe.add(key)
    preds = _predecessors(tgt.edges)
    covered = _reaches(preds, marked)
    bad = [k for k in tgt.states if k not in covered]
    if not bad:
        return verdicts.holds(states=len(tgt.states), sources=len(images))
    excusable = _reaches(preds, maybe)
    if any(k in excusable for k in bad):
        return verdicts.inconclusive(witness=s, states=len(tgt.states))
    return verdicts.violated(
        witness=(s, tgt.states[bad[0]]), states=len(tgt.states)
    )


def check_divergence_reflection(
    s: Process,
    scheme: EncodingScheme,
    *,
    budget: int = PROBE_BUDGET,
    state_cap: int = STATE_CAP,
    translate: Translate | None = None,
) -> Verdict:
    """A diverging translation demands a diverging source: Holds exactly
    when the target does not diverge or the source does.  The source probe
    runs at twice the budget before the obligation is given up as unknown.

    The cheapest evidence is read first.  A translation without a
    replication does not diverge, and one that cannot step gives a probe
    graph of one state and no cycle once the budget allows one expansion:
    either way Holds without a probe.  Otherwise the source is
    probed first, since a source that diverges settles Holds whatever the
    target does: its cycle is a real infinite reduction.  Only then is the
    target probed; a target that does not diverge gives Holds, an unknown
    target Inconclusive, and a diverging target Violated against a
    terminating source, or Inconclusive against an unknown one."""
    tr = _translator(scheme, translate)
    enc_s = tr(s)
    if budget >= 0 and not (has_replication(enc_s) and can_step(enc_s)):
        return verdicts.holds(depth=budget)
    source = diverges_bounded(s, budget=2 * budget, state_cap=state_cap)
    if source.is_holds:
        return verdicts.holds(depth=budget)
    target = diverges_bounded(enc_s, budget=budget, state_cap=state_cap)
    if target.is_violated:
        return verdicts.holds(depth=budget)
    if target.is_inconclusive:
        return verdicts.inconclusive(witness=s, depth=budget)
    if source.is_violated:
        return verdicts.violated(witness=(s, target.witness), depth=budget)
    return verdicts.inconclusive(witness=s, depth=2 * budget)


def check_success_sensitiveness(
    s: Process,
    scheme: EncodingScheme,
    *,
    budget: int = PROBE_BUDGET,
    state_cap: int = STATE_CAP,
    translate: Translate | None = None,
) -> Verdict:
    """Source and translation agree on whether success is reachable; the
    target side gets the scheme's step-expansion factor more budget.

    Two cases need no probe.  When neither side holds a success leaf,
    guarded or not, neither can reach one (see ``may_succeed``): Holds.
    When neither side can step and the budget allows one expansion, each
    probe would read its root alone, and reach success exactly when the
    root has an unguarded success leaf."""
    tr = _translator(scheme, translate)
    enc_s = tr(s)
    if not (s._ok or enc_s._ok):
        return verdicts.holds(depth=budget)
    if budget >= 1 and not (can_step(s) or can_step(enc_s)):
        source, target = (
            Outcome.HOLDS if has_success(p) else Outcome.VIOLATED for p in (s, enc_s)
        )
    else:
        k = anchor_steps(scheme)
        source = may_succeed(s, step_budget=budget, state_cap=state_cap).outcome
        target = may_succeed(enc_s, step_budget=k * budget, state_cap=state_cap).outcome
    if Outcome.INCONCLUSIVE in (source, target):
        return verdicts.inconclusive(witness=s, depth=budget)
    if source is target:
        return verdicts.holds(depth=budget)
    return verdicts.violated(witness=(s, source.name, target.name), depth=budget)


def _spare_name(taken: Iterable[Name]) -> Name:
    """A user name not in ``taken``: the first free letter of "wqrstuv",
    and past those w0, w1, w2, ... in turn."""
    keys = {n.key for n in taken}
    spellings = chain("wqrstuv", (f"w{i}" for i in count()))
    return user(next(k for k in spellings if k not in keys))


def _default_sigmas(cfg: GeneratorConfig) -> tuple[dict[Name, Name], ...]:
    """Name invariance's maps, in the order it checks them (see
    ``check_name_invariance``).  A one-name map equal to an earlier map once
    identity pairs are dropped is skipped, and none maps the spare name,
    which no corpus term holds."""
    alphabet = list(cfg.name_alphabet)
    extra = _spare_name(alphabet)
    sigmas = [
        {},
        dict(zip(alphabet, reversed(alphabet))),
        {n: alphabet[0] for n in alphabet},
        {alphabet[-1]: extra},
    ]
    seen = [{k: v for k, v in sigma.items() if k != v} for sigma in sigmas]
    for old in alphabet:
        for new in alphabet + [extra]:
            if old != new and {old: new} not in seen:
                seen.append({old: new})
                sigmas.append({old: new})
    return tuple(sigmas)


def check_lemma_suite(
    s: Process,
    scheme: EncodingScheme,
    *,
    sigmas: Iterable[dict[Name, Name]] = ({},),
    translate: Translate | None = None,
) -> Verdict:
    """The translation's properties on one term that no other criterion
    checks: free names preserved, an asynchronous image, and agreement on
    unguarded success.  Renaming is name invariance's to check.

    ``sigmas`` is not read; it is kept for callers that still pass it."""
    tr = _translator(scheme, translate)
    enc = tr(s)
    failed = []
    if free_names(enc) != free_names(s):
        failed.append("free-names")
    if not is_async(enc):
        failed.append("async-image")
    if has_success(enc) != has_success(s):
        failed.append("success-agreement")
    if failed:
        return verdicts.violated(witness=(s, tuple(failed)))
    return verdicts.holds()


def check_barb_confluence(s: Process) -> Verdict:
    """An unguarded success survives any single reduction step."""
    if not has_success(s):
        return verdicts.holds()
    for q, _ in reduct_candidates(s):
        if not has_success(q):
            return verdicts.violated(witness=(s, q))
    return verdicts.holds()


def check_inert_confluence(s: Process, *, eq_budget: int = UNFOLDS) -> Verdict:
    """The diamond for inert steps: after an inert step, any alternative step
    is still available, and the two orders reconverge in one step."""
    inerts = inert_reducts(s)
    if not inerts:
        return verdicts.holds()
    ordinary = reduct_candidates(s)
    any_inconclusive = False
    for qi, _ in inerts:
        q_steps = None
        for pp, _ in ordinary:
            same = struct_eq_bounded(pp, qi, eq_budget)
            if same.is_holds:
                continue
            closed = False
            diamond_unknown = False
            if q_steps is None:
                q_steps = reduct_candidates(qi)
            p_inerts = inert_reducts(pp)
            for qq, _ in q_steps:
                for pq, _ in p_inerts:
                    v = struct_eq_bounded(pq, qq, eq_budget)
                    if v.is_holds:
                        closed = True
                        break
                    if v.is_inconclusive:
                        diamond_unknown = True
                if closed:
                    break
            if closed:
                continue
            if diamond_unknown or same.is_inconclusive:
                any_inconclusive = True
                continue
            return verdicts.violated(witness=(s, qi, pp))
    if any_inconclusive:
        return verdicts.inconclusive(witness=s)
    return verdicts.holds()


def _dispatch(
    criterion: Criterion,
    term: Process,
    scheme: EncodingScheme,
    translate: Translate | None,
    sigmas: tuple[dict[Name, Name], ...],
    step_budget: int = STEP_BUDGET,
) -> Verdict:
    match criterion:
        case Criterion.COMPOSITIONALITY:
            return check_compositionality(term, scheme)
        case Criterion.NAME_INVARIANCE:
            for sigma in sigmas:
                v = check_name_invariance(term, sigma, scheme, translate)
                if not v.is_holds:
                    return v
            return verdicts.holds()
        case Criterion.OP_COMPLETENESS:
            return check_op_completeness(term, scheme, translate=translate)
        case Criterion.OP_SOUNDNESS:
            return check_op_soundness(
                term, scheme, step_budget=step_budget, translate=translate
            )
        case Criterion.DIVERGENCE_REFLECTION:
            return check_divergence_reflection(term, scheme, translate=translate)
        case Criterion.SUCCESS_SENSITIVENESS:
            return check_success_sensitiveness(term, scheme, translate=translate)
        case Criterion.LEMMA_SUITE:
            return check_lemma_suite(term, scheme, translate=translate)
        case Criterion.BARB_CONFLUENCE:
            return check_barb_confluence(asyncify(term))
        case Criterion.INERT_CONFLUENCE:
            return check_inert_confluence(asyncify(term))
    raise AssertionError(criterion)


def run_suite(
    cfg: GeneratorConfig,
    schemes: Iterable[EncodingScheme] = tuple(EncodingScheme),
    budgets: SuiteBudgets | None = None,
    criteria: Iterable[Criterion] = DEFAULT_CRITERIA,
    on_verdict: Callable[[Criterion, EncodingScheme, Process, Verdict], None] | None = None,
) -> list[CriterionReport]:
    """Run criteria on the built-in encoders over the whole corpus, for
    each scheme, in a fixed order.

    Reports count verdicts per criterion; ``on_verdict`` sees each verdict,
    witness included, as it is given.
    """
    step_budget = (budgets or SuiteBudgets()).step_budget
    sigmas = _default_sigmas(cfg)
    terms = list(generate_terms(cfg))
    reports = []
    for scheme in schemes:
        for criterion in criteria:
            start = time.perf_counter()
            n_holds = n_violated = n_inconclusive = 0
            for term in terms:
                v = _dispatch(criterion, term, scheme, None, sigmas, step_budget)
                if on_verdict is not None:
                    on_verdict(criterion, scheme, term, v)
                if v.is_holds:
                    n_holds += 1
                elif v.is_violated:
                    n_violated += 1
                else:
                    n_inconclusive += 1
            reports.append(
                CriterionReport(
                    criterion=criterion,
                    scheme=scheme,
                    holds=n_holds,
                    violated=n_violated,
                    inconclusive=n_inconclusive,
                    elapsed=time.perf_counter() - start,
                )
            )
    return reports


MUTATION_SCAN_ORDER = (
    Criterion.LEMMA_SUITE,
    Criterion.OP_COMPLETENESS,
    Criterion.SUCCESS_SENSITIVENESS,
    Criterion.DIVERGENCE_REFLECTION,
)


def first_violation(
    cfg: GeneratorConfig,
    scheme: EncodingScheme,
    translate: Translate | None = None,
) -> tuple[Process, Criterion, Verdict] | None:
    """Scan the corpus term by term through ``MUTATION_SCAN_ORDER``,
    cheapest criteria first, and stop at the first Violated verdict.  Suited
    to confirming that a deliberately broken encoder is caught without
    paying for a full suite run.  None of those criteria reads the step
    budget."""
    sigmas = _default_sigmas(cfg)
    for term in generate_terms(cfg):
        for criterion in MUTATION_SCAN_ORDER:
            v = _dispatch(criterion, term, scheme, translate, sigmas)
            if v.is_violated:
                return term, criterion, v
    return None
