"""Per-layer tracing from outside the program.

The layers are picheck's modules.  ``Tracer.install`` replaces each listed
public function, in every ``picheck`` namespace that binds it (``checker``
and ``reduction`` import ``congruence`` functions by name), with a wrapper
that counts calls and accumulates self time: a call's duration minus the
time its traced callees took.  Counts and times are aggregated in memory,
one counter per function, instead of storing a span per call.

Nothing here edits the program's source; with tracing off the program runs
unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# The public functions wrapped, by layer.  Kept to the ones the workloads
# reach, so that with the cache and outcome counters below the per-layer
# metrics stay within 128.
TRACED = {
    "syntax": (
        "free_names",
        "bound_names",
        "names",
        "fresh_name",
        "substitute",
        "apply_renaming",
        "alpha_canonical",
        "alpha_eq",
        "is_async",
        "has_replication",
        "term_size",
        "par_all",
    ),
    "text": ("pprint",),
    "encodings": ("encode", "decompose", "context_for", "fill", "anchor_steps"),
    "congruence": (
        "to_normal_form",
        "deep_canon",
        "canonical_state",
        "struct_eq_s",
        "struct_eq_bounded",
        "unfold_replications",
        "expose",
    ),
    "reduction": (
        "reduct_candidates",
        "inert_reducts",
        "has_success",
        "reduces_to",
        "may_succeed",
        "diverges_bounded",
        "explore",
    ),
    "checker": (
        "generate_terms",
        "asyncify",
        "self_alphabet",
        "check_compositionality",
        "check_name_invariance",
        "check_lemma_suite",
        "check_op_completeness",
        "check_op_soundness",
        "check_divergence_reflection",
        "check_success_sensitiveness",
        "check_barb_confluence",
        "check_inert_confluence",
    ),
}

# The module-level memo caches (functools.lru_cache) at the time the
# benchmark was defined.  A cache a later change removes reads as 0.
CACHED = {
    "syntax": ("free_names", "bound_names", "alpha_canonical"),
    "text": ("pprint",),
    "encodings": ("encode",),
    "congruence": (
        "_counts",
        "to_normal_form",
        "deep_canon",
        "canonical_state",
        "struct_eq_s",
    ),
    "reduction": ("reduct_candidates", "_contains_success"),
}

# Counters of what a call returned, where a layer can waste work or give up:
# name -> (unit, which direction is better).
OUTCOMES = {
    "reduction.inert_reducts.useful": ("ratio", "higher"),
    "reduction.explore.truncated": ("count", "lower"),
    "reduction.explore.states": ("count", "lower"),
    "congruence.struct_eq_bounded.inconclusive": ("count", "lower"),
}

# Tracing overhead: untraced against traced throughput of the same run.
OVERHEAD = {
    "trace.untraced_verdicts_per_s": ("1/s", "higher"),
    "trace.traced_verdicts_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, fns in TRACED.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
    for layer, fns in CACHED.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.cache_hit", "ratio", "higher"))
            out.append((f"{layer}.{fn}.cache_fill", "ratio", "lower"))
    for table in (OUTCOMES, OVERHEAD):
        out += [(name, unit, better) for name, (unit, better) in table.items()]
    return out


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = dict.fromkeys(OUTCOMES, 0)
        # One [child_ns] cell per open traced call, innermost last.
        self._stack: list[list[int]] = []
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple] = {}

    def _enter(self) -> list[int]:
        cell = [0]
        self._stack.append(cell)
        return cell

    def _leave(self, key: str, cell: list[int], elapsed: int) -> None:
        self._stack.pop()
        self.self_ns[key] += elapsed - cell[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def _wrap(self, key: str, fn, on_result=None):
        clock = time.perf_counter_ns
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens as it is iterated: time each step.
            def steps(gen):
                while True:
                    cell = self._enter()
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._leave(key, cell, clock() - t0)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[key] += 1
                return steps(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            cell = self._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(key, cell, clock() - t0)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_result(self, key: str):
        counts = self.counts
        if key == "reduction.inert_reducts":

            def hook(result):
                if result:
                    counts["reduction.inert_reducts.useful"] += 1

        elif key == "reduction.explore":

            def hook(result):
                counts["reduction.explore.states"] += len(getattr(result, "states", ()))
                if getattr(result, "truncated", False):
                    counts["reduction.explore.truncated"] += 1

        elif key == "congruence.struct_eq_bounded":

            def hook(result):
                if getattr(result, "is_inconclusive", False):
                    counts["congruence.struct_eq_bounded.inconclusive"] += 1

        else:
            return None
        return hook

    def install(self) -> None:
        """Wrap every TRACED function and snapshot every CACHED memo.

        Call after ``import picheck`` and before any work; functions a later
        change removed are skipped and read as 0.
        """
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "picheck"]
        for layer, fns in CACHED.items():
            module = sys.modules[f"picheck.{layer}"]
            for fn in fns:
                cached = getattr(module, fn, None)
                if cached is not None and hasattr(cached, "cache_info"):
                    key = f"{layer}.{fn}"
                    self._caches[key] = cached
                    self._cache_start[key] = cached.cache_info()
        for layer, fns in TRACED.items():
            module = sys.modules[f"picheck.{layer}"]
            for fn in fns:
                key = f"{layer}.{fn}"
                self.calls[key] = 0
                self.self_ns[key] = 0
                original = getattr(module, fn, None)
                if original is None:
                    continue
                wrapper = self._wrap(key, original, self._on_result(key))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def report(self) -> dict[str, float]:
        """Counters since ``install``, keyed by metric name."""
        out: dict[str, float] = {}
        for key, n in self.calls.items():
            out[f"{key}.calls"] = n
            out[f"{key}.self_s"] = self.self_ns[key] / 1e9
        for layer, fns in CACHED.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                hit = fill = 0.0
                if key in self._caches:
                    info = self._caches[key].cache_info()
                    start = self._cache_start[key]
                    hits = info.hits - start.hits
                    lookups = hits + info.misses - start.misses
                    hit = hits / lookups if lookups else 0.0
                    fill = info.currsize / info.maxsize if info.maxsize else 0.0
                out[f"{key}.cache_hit"] = hit
                out[f"{key}.cache_fill"] = fill
        calls = self.calls.get("reduction.inert_reducts", 0)
        useful = self.counts["reduction.inert_reducts.useful"]
        out.update(self.counts)
        out["reduction.inert_reducts.useful"] = useful / calls if calls else 0.0
        return out
