"""The benchmark's outside-in tracer still finds every name it wraps or reads."""

import importlib.util
import json
import sys
from pathlib import Path

from affsgen import affs, engine, fitness, harness
from affsgen.affs import Goal
from affsgen.engine import Budget, EngineConfig
from affsgen.harness import load_corpus
from affsgen.minilang import analysis, codegen  # noqa: F401 - loaded before the tracer installs
from affsgen.minilang.interpreter import InterpConfig
from affsgen.testmodel import GenConfig

ROOT = Path(__file__).resolve().parent.parent
CLASSES = (fitness.FitnessContext, affs.StaticStrategy, affs.RandomPerRunStrategy,
           affs.UcbStrategy, affs.SarsaStrategy, affs.RewardTracker)
# spans that the three small trials open between them
SPANS = ("tracing.run_test", "interpreter.base", "interpreter.mutant", "mutation.classify",
         "fitness.eval", "fitness.context_init", "testmodel.variation", "testmodel.minimize",
         "testmodel.augment", "affs.select", "affs.reward", "engine.coverage",
         "engine.archive_update", "harness.fault_detected")


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names() -> dict:
    """What every name the tracer may patch holds: the globals of each loaded
    affsgen module, the traced classes' attributes and the evaluator table."""
    owners = [module for name, module in sys.modules.items()
              if name.startswith("affsgen") and module is not None]
    names = {(id(owner), attr): value for owner in owners + list(CLASSES)
             for attr, value in vars(owner).items()}
    names.update({("evaluators", fn_id): f for fn_id, f in fitness._EVALUATORS.items()})
    return names


def test_the_tracer_wraps_a_trial_per_goal_and_restores_every_name():
    tracer_module = _load_tracer()
    pair = next(p for p in load_corpus(ROOT / "corpus") if p.fault_id.startswith("p05"))
    configs = (EngineConfig(population_size=4, skip_iter=1, budget=Budget(generations=2)),
               GenConfig(max_suite_size=3, max_calls_per_test=2), InterpConfig())
    before = _names()
    originals = engine.make_coverage_fn, harness.run_trial
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert (engine.make_coverage_fn, harness.run_trial) != originals
        for goal in Goal:
            harness.run_trial(pair, "ucb", goal, 7, *configs)
    finally:
        tracer.restore()
    after = _names()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert tracer.counters["trials"] == len(Goal)
    assert tracer.cache_entries_peak > 0
    assert [span for span in SPANS if not tracer.calls[span]] == []
    # the benchmark's per-layer metrics are all there
    snapshot = tracer.snapshot()
    accounted = sum(snapshot["self_s"].values())
    metrics = tracer_module.per_layer_metrics(snapshot, (0, 0.0), accounted, 1.0, 0.0,
                                              len(Goal), 1.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
