"""The benchmark's workloads: which corpus a seed selects, and which verdict
jobs run on it.

A job is one call of a public criterion function of ``picheck.checker`` on
one term, made exactly as ``picheck check`` makes it (same budgets, same
renamings, ``asyncify`` before the confluence criteria), so a job's verdict
is the verdict the CLI would print for that (criterion, scheme, term).

Nothing here imports ``picheck`` at module level: the orchestrator reads the
workload table without loading the program, and a worker passes in the
modules after it has imported them (and, in a traced run, after the tracing
wrappers are installed, so every call below goes through them).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

BOTH = ("boudol", "honda-tokoro")


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and record.json say why it was chosen."""

    name: str
    criteria: tuple[str, ...]
    schemes: tuple[str, ...]
    terms: int  # corpus size of one pass; fixed, whatever the seed

    @property
    def jobs(self) -> int:
        return self.terms * len(self.criteria) * len(self.schemes)


# The exhaustive 4-node corpus has 20,991 terms, 8 of them self-reacting
# replications (see _stratum).  A search-exhaustive corpus of 2,624 terms
# with one of them keeps that share.
SEARCH_SELF_REACTING = 1

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "translate-random",
            ("compositionality", "name-invariance", "lemma-suite"),
            BOTH,
            2000,
        ),
        Workload(
            "search-exhaustive",
            (
                "op-completeness",
                "op-soundness",
                "divergence-reflection",
                "success-sensitiveness",
            ),
            BOTH,
            2624,
        ),
        Workload(
            "confluence-fuzz",
            ("barb-confluence", "inert-confluence"),
            ("boudol",),
            50000,
        ),
    )
}


def default_sigmas(syntax, alphabet) -> tuple[dict, ...]:
    """The renamings ``picheck check`` applies for name invariance and the
    lemma suite: identity, swap, collapse onto the first name, and moving
    the last name to an unused letter."""
    taken = {n.key for n in alphabet}
    extra = next(syntax.user(c) for c in "wqrstuv" if c not in taken)
    return (
        {},
        dict(zip(alphabet, reversed(alphabet))),
        {n: alphabet[0] for n in alphabet},
        {alphabet[-1]: extra},
    )


def verdict_call(pc, criterion: str, scheme_label: str, sigmas):
    """The one-argument function that gives ``criterion``'s verdict on a
    term, with the budgets of ``picheck check`` (``SuiteBudgets()``
    defaults; op-soundness at the lower of its two state caps)."""
    checker = pc.checker
    scheme = pc.encodings.EncodingScheme(scheme_label)
    budgets = checker.SuiteBudgets()
    if criterion == "compositionality":
        return lambda t: checker.check_compositionality(t, scheme)
    if criterion == "name-invariance":

        def name_invariance(t):
            for sigma in sigmas:
                v = checker.check_name_invariance(t, sigma, scheme)
                if not v.is_holds:
                    return v
            return v

        return name_invariance
    if criterion == "op-completeness":
        return lambda t: checker.check_op_completeness(t, scheme, eq_budget=budgets.eq)
    if criterion == "op-soundness":
        cap = min(budgets.state_cap, budgets.soundness_state_cap)
        return lambda t: checker.check_op_soundness(
            t, scheme, step_budget=budgets.step_budget, eq_budget=budgets.eq, state_cap=cap
        )
    if criterion == "divergence-reflection":
        return lambda t: checker.check_divergence_reflection(
            t, scheme, budget=budgets.divergence_budget, state_cap=budgets.state_cap
        )
    if criterion == "success-sensitiveness":
        return lambda t: checker.check_success_sensitiveness(
            t, scheme, budget=budgets.success_budget, state_cap=budgets.state_cap
        )
    if criterion == "lemma-suite":
        return lambda t: checker.check_lemma_suite(t, scheme, sigmas=sigmas)
    if criterion == "barb-confluence":
        return lambda t: checker.check_barb_confluence(checker.asyncify(t))
    if criterion == "inert-confluence":
        return lambda t: checker.check_inert_confluence(
            checker.asyncify(t), eq_budget=budgets.eq
        )
    raise ValueError(f"unknown criterion {criterion!r}")


def job_groups(pc, criteria, schemes, cfg):
    """(criterion, scheme, call) in the order ``picheck check`` runs them:
    scheme, then criterion.  Each group runs over the whole corpus in order;
    ``jobs`` pairs them up."""
    sigmas = default_sigmas(pc.syntax, list(cfg.name_alphabet))
    return [
        (criterion, scheme, verdict_call(pc, criterion, scheme, sigmas))
        for scheme in schemes
        for criterion in criteria
    ]


def jobs(groups, terms):
    """Every ((criterion, scheme, call), term) job, in ``picheck check``
    order, made on the fly so that no job list takes memory."""
    return itertools.product(groups, terms)


def _stratum(syntax, p):
    """"self-reacting" when some replicated body holds an unguarded output
    and an unguarded input on the same subject, so the replication feeds
    itself, the reachable graph is infinite and op-soundness runs into its
    state cap; otherwise the node count.  Read off the syntax here rather
    than through the program, so that choosing the sample neither warms its
    caches nor shows in a traced run."""

    def unguarded(q, outs, ins):
        if isinstance(q, syntax.Output):
            outs.add(q.subject)
        elif isinstance(q, syntax.Input):
            ins.add(q.subject)
        elif isinstance(q, syntax.Par):
            unguarded(q.left, outs, ins)
            unguarded(q.right, outs, ins)
        elif isinstance(q, (syntax.Restrict, syntax.Repl)):
            unguarded(q.body, outs, ins)

    size = 0
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, syntax.Nil):
            continue
        size += 1
        if isinstance(q, syntax.Repl):
            outs, ins = set(), set()
            unguarded(q.body, outs, ins)
            if outs & ins:
                return "self-reacting"
        stack += [getattr(q, c) for c in ("cont", "left", "right", "body") if hasattr(q, c)]
    return size


def _search_sample(syntax, corpus, seed: int, n: int):
    """A seeded sample of the exhaustive 4-node corpus, stratified so that
    every seed gets the same cost mix.

    Per term, the search criteria cost from microseconds up to about 0.4 s,
    and the expensive terms are exactly the few self-reacting replications
    (8 of 20,991, also the only Inconclusive verdicts).  A plain sample would
    hold a varying number of them, so a pass's time would swing with the
    seed.  Instead every sample takes SEARCH_SELF_REACTING of them, which
    is their share of the corpus at the workload's size, and fills the rest
    from each term size in proportion to its share of the corpus.
    """
    strata: dict = {}
    for i, t in enumerate(corpus):
        strata.setdefault(_stratum(syntax, t), []).append(i)
    hot = strata.pop("self-reacting")
    rest = n - SEARCH_SELF_REACTING
    total = sum(len(ix) for ix in strata.values())
    sizes = sorted(strata)
    quota = {s: rest * len(strata[s]) // total for s in sizes}
    # Hand the rounding remainder to the largest strata, deterministically.
    for s in sorted(sizes, key=lambda s: -len(strata[s]))[: rest - sum(quota.values())]:
        quota[s] += 1
    rng = random.Random(seed)
    chosen = rng.sample(hot, SEARCH_SELF_REACTING)
    for s in sizes:
        chosen += rng.sample(strata[s], quota[s])
    return [corpus[i] for i in sorted(chosen)]


def generate(pc, workload: Workload, seed: int):
    """The set-up of one pass, as ``picheck check`` makes it: the generator
    config and the corpus it generates."""
    checker = pc.checker
    if workload.name == "search-exhaustive":
        cfg = checker.GeneratorConfig(max_nodes=4)
    elif workload.name == "translate-random":
        cfg = checker.GeneratorConfig(max_nodes=6, random_count=workload.terms, seed=seed)
    elif workload.name == "confluence-fuzz":
        cfg = checker.GeneratorConfig(max_nodes=8, random_count=workload.terms, seed=seed)
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
    return cfg, list(checker.generate_terms(cfg))


def select(syntax, workload: Workload, seed: int, generated):
    """The terms one pass checks: search-exhaustive's seeded sample of the
    generated corpus, or all of it for the other workloads.  This is the
    benchmark's own work, so it is timed neither as set-up nor as checking."""
    terms = generated
    if workload.name == "search-exhaustive":
        terms = _search_sample(syntax, generated, seed, workload.terms)
    if len(terms) != workload.terms:
        raise RuntimeError(f"{workload.name}: corpus has {len(terms)} terms")
    return terms


SELFTEST_CRITERIA = (
    "compositionality",
    "name-invariance",
    "op-completeness",
    "op-soundness",
    "divergence-reflection",
    "success-sensitiveness",
    "lemma-suite",
    "barb-confluence",
    "inert-confluence",
)


def selftest_jobs(pc):
    """Every criterion the workloads call, both schemes, on the exhaustive
    3-node corpus: the jobs whose verdicts must equal ``picheck check
    --max-nodes 3 --criteria <SELFTEST_CRITERIA> --json``."""
    cfg = pc.checker.GeneratorConfig(max_nodes=3)
    terms = list(pc.checker.generate_terms(cfg))
    return jobs(job_groups(pc, SELFTEST_CRITERIA, BOTH, cfg), terms)
