"""Outside-in tracing: wrap affsgen's public functions and time each call.

Nothing in ``src/`` is edited. ``install`` replaces each traced function in
every loaded ``affsgen`` module that holds a reference to it (modules import
names directly, so ``engine.crossover`` and ``testmodel.crossover`` are
patched together), plus a few methods and the fitness evaluator table.
``Tracer.restore`` puts the originals back.

Each span keeps a call count and a *self* time: the span's duration minus
the duration of the wrapped spans it encloses. Self times of all spans plus
the time no span covers therefore add up to the traced wall time, which is
the coverage check the report prints.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from affsgen import affs, engine, fitness, harness, mutation, testmodel, tracing
from affsgen.fitness import FN_NAMES
from affsgen.minilang import parser
from affsgen.minilang.interpreter import STEP_LIMIT_EXCEEDED, Raised, kind_of
from affsgen.mutation import MutantStatus

_perf = time.perf_counter

STATUS_NAMES = {
    MutantStatus.NOT_REACHED: "not_reached",
    MutantStatus.REACHED_NOT_INFECTED: "reached",
    MutantStatus.INFECTED: "infected",
    MutantStatus.KILLED: "killed",
}


class Tracer:
    """Per-span call counts and self times, plus interpreter counters."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._contexts: list = []
        self._seen_calls: set = set()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.cache_entries_peak = 0

    def reset(self) -> None:
        """Zero every total; wrappers keep writing into the same objects."""
        self.self_s.clear()
        self.calls.clear()
        self.counters.clear()
        self.cache_entries_peak = 0
        self._seen_calls.clear()
        self._contexts.clear()

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Timed wrapper of ``fn``; ``after(args, kwargs, result)`` runs untimed.

        The time ``after`` takes is booked to ``trace.bookkeeping`` and kept
        out of the enclosing span's self time.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def close(start: float, frame: list[float]) -> float:
            duration = _perf() - start
            stack.pop()
            self_s[name] += duration - frame[0]
            calls[name] += 1
            return duration

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                duration = close(start, frame)
                if stack:
                    stack[-1][0] += duration
                raise
            duration = close(start, frame)
            if after is not None:
                after(args, kwargs, result)
                bookkeeping = _perf() - start - duration
                self_s["trace.bookkeeping"] += bookkeeping
                duration += bookkeeping
            if stack:
                stack[-1][0] += duration
            return result

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("affsgen") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(name, original, after))

    def patch_reference(self, module, attr: str, name: str, after=None) -> None:
        """Wrap only ``module.attr``, leaving other references alone."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, after))

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def patch_hook(self, module, attr: str, after) -> None:
        """Call ``after(args, kwargs, result)`` after ``module.attr``; no span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            result = None
            try:
                result = original(*args, **kwargs)
            finally:
                after(args, kwargs, result)
            return result

        self._replace_everywhere(original, hooked)

    def patch_factory(self, module, attr: str, name: str) -> None:
        """Wrap the closure a factory returns (the engine's coverage fn)."""
        factory = getattr(module, attr)
        tracer = self

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return tracer.wrap(name, factory(*args, **kwargs))

        self._replace_everywhere(factory, traced_factory)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- counters ----------------------------------------------------------

    def _interpreter_after(self, layer: str):
        counters = self.counters
        seen = self._seen_calls

        def after(args, kwargs, result) -> None:
            program, entry, call_args = args[0], args[1], args[2]
            key = (id(program), entry, tuple((kind_of(a), a) for a in call_args),
                   args[3:], tuple(sorted(kwargs.items())))
            counters[f"{layer}.steps"] += result.steps
            if key in seen:
                counters[f"{layer}.repeat_steps"] += result.steps
            else:
                seen.add(key)
            outcome = result.outcome
            if type(outcome) is Raised and outcome.record.kind == STEP_LIMIT_EXCEEDED:
                counters[f"{layer}.step_limit_hits"] += 1

        return after

    def _classify_after(self, args, kwargs, result) -> None:
        self.counters[f"mutation.status.{STATUS_NAMES[result.status]}"] += 1

    def _context_after(self, args, kwargs, result) -> None:
        self._contexts.append(args[0])

    def _trial_after(self, args, kwargs, result) -> None:
        """End of one trial: read cache sizes, forget the seen-call set."""
        for ctx in self._contexts:
            entries = (len(ctx._traces) + len(ctx._renders) + len(ctx._classifications)
                       + len(ctx._pair_distance) + len(ctx._line_distance)
                       + len(ctx._suite_scores))
            self.cache_entries_peak = max(self.cache_entries_peak, entries)
        self._contexts.clear()
        self._seen_calls.clear()
        self.counters["trials"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        # interpreter calls are split by caller: tracing runs the base
        # program, mutation runs mutants (and base re-runs with a watch)
        self.patch_reference(tracing, "execute", "interpreter.base",
                             self._interpreter_after("interpreter.base"))
        self.patch_reference(mutation, "execute", "interpreter.mutant",
                             self._interpreter_after("interpreter.mutant"))
        self.patch_function(parser, "parse", "parser")
        self.patch_function(tracing, "run_test", "tracing.run_test")
        self.patch_function(mutation, "generate_mutants", "mutation.generate")
        self.patch_function(mutation, "classify_against_mutant", "mutation.classify",
                            self._classify_after)
        for fn_id, evaluator in list(fitness._EVALUATORS.items()):
            self._patched.append((fitness._EVALUATORS, fn_id, evaluator))
            fitness._EVALUATORS[fn_id] = self.wrap(f"fitness.{FN_NAMES[fn_id]}", evaluator)
        self.patch_function(fitness, "eval_fitness", "fitness.eval")
        self.patch_function(fitness, "levenshtein", "fitness.levenshtein")
        self.patch_method(fitness.FitnessContext, "test_pair_distance",
                          "fitness.pair_distance")
        self.patch_method(fitness.FitnessContext, "__init__", "fitness.context_init",
                          self._context_after)
        for attr in ("crossover", "mutate_suite", "random_suite"):
            self.patch_function(testmodel, attr, "testmodel.variation")
        self.patch_function(testmodel, "minimize", "testmodel.minimize")
        self.patch_function(testmodel, "augment_from_archive", "testmodel.augment")
        for cls in (affs.StaticStrategy, affs.RandomPerRunStrategy,
                    affs.UcbStrategy, affs.SarsaStrategy):
            for attr in ("initial_action", "update_and_select"):
                self.patch_method(cls, attr, "affs.select")
        for attr in ("prime", "measure"):
            self.patch_method(affs.RewardTracker, attr, "affs.reward")
        self.patch_factory(engine, "make_coverage_fn", "engine.coverage")
        self.patch_factory(engine, "make_archive_updater", "engine.archive_update")
        self.patch_function(harness, "fault_detected", "harness.fault_detected")
        self.patch_hook(harness, "run_trial", self._trial_after)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "cache_entries_peak": self.cache_entries_peak,
        }

    def merge(self, snap: dict) -> None:
        for name, value in snap["self_s"].items():
            self.self_s[name] += value
        self.calls.update(snap["calls"])
        self.counters.update(snap["counters"])
        self.cache_entries_peak = max(self.cache_entries_peak, snap["cache_entries_peak"])


# layer name -> the spans whose self time it owns, in report order
LAYERS = {
    "parser": ("parser",),
    "interpreter.base": ("interpreter.base",),
    "interpreter.mutant": ("interpreter.mutant",),
    "tracing.run_test": ("tracing.run_test",),
    "mutation.generate": ("mutation.generate",),
    "mutation.classify": ("mutation.classify",),
    "fitness": tuple(f"fitness.{n}" for n in FN_NAMES.values())
    + ("fitness.eval", "fitness.levenshtein", "fitness.pair_distance", "fitness.context_init"),
    "testmodel": ("testmodel.variation", "testmodel.minimize", "testmodel.augment"),
    "affs": ("affs.select", "affs.reward"),
    "engine.coverage": ("engine.coverage",),
    "engine.archive_update": ("engine.archive_update",),
    "harness.fault_detected": ("harness.fault_detected",),
    "trace.bookkeeping": ("trace.bookkeeping",),
}


def per_layer_metrics(snap: dict, setup_parse: tuple[int, float], accounted_s: float,
                      factor: float, overhead: float, trials: int,
                      pool_busy_share: float) -> dict[str, float]:
    """Flatten a trace snapshot into the benchmark's per-layer metrics.

    ``accounted_s`` is the raw time the spans must add up to: the traced
    trial time in-process, or the summed trial time of the pool workers on
    ``sweep``. ``setup_parse`` is the (calls, seconds) of the corpus load
    before the first trial; it counts toward ``parser.*`` but lies outside
    ``accounted_s``. Every time is reported scaled by ``factor``, the traced
    pass's reference seconds per raw second (``hostspeed.py``), so that the
    seconds are in the unit of the end-to-end timings; shares are unscaled.
    """
    self_s = defaultdict(float, {k: v * factor for k, v in snap["self_s"].items()})
    setup_parse = (setup_parse[0], setup_parse[1] * factor)
    accounted_s *= factor
    calls = Counter(snap["calls"])
    counters = Counter(snap["counters"])
    out: dict[str, float] = {}

    out["parser.calls"] = calls["parser"] + setup_parse[0]
    out["parser.s"] = self_s["parser"] + setup_parse[1]
    for layer in ("interpreter.base", "interpreter.mutant"):
        steps = counters[f"{layer}.steps"]
        seconds = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.steps"] = steps
        out[f"{layer}.s"] = seconds
        out[f"{layer}.msteps_per_s"] = steps / seconds / 1e6 if seconds > 0 else 0.0
        out[f"{layer}.step_limit_hits"] = counters[f"{layer}.step_limit_hits"]
        out[f"{layer}.repeat_step_share"] = (
            counters[f"{layer}.repeat_steps"] / steps if steps else 0.0)
    out["tracing.run_test.calls"] = calls["tracing.run_test"]
    out["tracing.run_test.s"] = self_s["tracing.run_test"]
    out["mutation.generate.s"] = self_s["mutation.generate"]
    classify_calls = calls["mutation.classify"]
    out["mutation.classify.calls"] = classify_calls
    out["mutation.classify.s"] = self_s["mutation.classify"]
    for status in STATUS_NAMES.values():
        out[f"mutation.status.{status}"] = counters[f"mutation.status.{status}"]
    out["mutation.mutant_runs_per_classify"] = (
        calls["interpreter.mutant"] / classify_calls if classify_calls else 0.0)
    evals = 0
    for fn_name in FN_NAMES.values():
        out[f"fitness.{fn_name}.evals"] = calls[f"fitness.{fn_name}"]
        out[f"fitness.{fn_name}.s"] = self_s[f"fitness.{fn_name}"]
        evals += calls[f"fitness.{fn_name}"]
    lookups = calls["fitness.eval"]
    out["fitness.eval.hit_rate"] = 1.0 - evals / lookups if lookups else 0.0
    out["fitness.levenshtein.calls"] = calls["fitness.levenshtein"]
    out["fitness.levenshtein.s"] = self_s["fitness.levenshtein"]
    out["fitness.pair_distance.s"] = self_s["fitness.pair_distance"]
    out["fitness.cache_entries_peak"] = snap["cache_entries_peak"]
    out["testmodel.variation.s"] = self_s["testmodel.variation"]
    out["testmodel.minimize.s"] = self_s["testmodel.minimize"]
    out["testmodel.augment.s"] = self_s["testmodel.augment"]
    out["affs.select.s"] = self_s["affs.select"]
    out["affs.reward.s"] = self_s["affs.reward"]
    out["engine.coverage.calls"] = calls["engine.coverage"]
    out["engine.coverage.s"] = self_s["engine.coverage"]
    out["engine.archive_update.s"] = self_s["engine.archive_update"]
    out["engine.other.s"] = accounted_s - sum(self_s.values())
    out["harness.fault_detected.s"] = self_s["harness.fault_detected"]
    out["harness.parse_per_trial"] = calls["parser"] / trials if trials else 0.0
    out["harness.pool.busy_share"] = pool_busy_share
    for layer, spans in LAYERS.items():
        out[f"{layer}.share"] = sum(self_s[s] for s in spans) / accounted_s
    out["engine.other.share"] = out["engine.other.s"] / accounted_s
    out["trace.accounted_s"] = accounted_s
    out["trace.overhead"] = overhead
    return out
