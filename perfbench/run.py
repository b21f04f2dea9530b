#!/usr/bin/env python3
"""affsgen benchmark: seeded workloads, end-to-end metrics, outside-in trace.

Run from the root of an affsgen checkout:

    python3 perfbench/run.py --workload diversity --seed 2024 --seconds 40 --trace 0

A run first times the set-up in fresh processes, then runs the workload's
fixed trial list once ("a pass"). Each listed workload's pass is sized to
fill ``--seconds`` on the reference host; ``--seconds`` sets no limit of
its own. Every timing is scaled by the host's speed while it was taken
(``hostspeed.py``). After the pass, its suites are replayed through the
oracle in ``tests/oracles.py``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the ``end_to_end`` list of ``BENCHMARK.json``, with ``--trace 1``
the ``per_layer`` list, taken from one untraced and one traced pass, whose
per-trial digests must agree.
Details (digests, errors, the per-layer table) go to ``.perfbench_out/``.
Exits 2 without a result when the directory is not an affsgen checkout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
from hostspeed import HostClock, HostSpeed  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 2024
SETUP_PROBES = 10
# recorded and printed, but not bounded in BENCHMARK.json: exact under a
# seed, yet too coarse across seeds (few trials, 0/1 outcomes) for a bound
RECORDED = {
    "trial_s_p90": "s",
    "goal_score": "score",
    "fault_detection_rate": "ratio",
    "failed_share": "ratio",
}
# spans may exceed the traced time only by float rounding
COVERAGE_TOLERANCE = 1e-9
REQUIRED = ("src/affsgen/__init__.py", "corpus", "tests/oracles.py", "BENCHMARK.json")


# --- set-up probe -------------------------------------------------------------


def setup_probe(workload: Workload) -> HostClock:
    """Time importing affsgen, loading the corpus and building every context."""
    with HostSpeed().clock() as clock:
        from affsgen.fitness import FitnessContext
        from affsgen.harness import load_corpus
        from affsgen.minilang.interpreter import InterpConfig

        interp = InterpConfig()
        for pair in load_corpus(ROOT / "corpus"):
            if workload.selects(pair.fault_id):
                FitnessContext(pair.fixed_program, interp).mutants
    return clock


def measure_setup(workload: Workload) -> tuple[float, list[dict]]:
    """Fresh-process set-up probes: the median scaled time, and every probe.

    The median, not the minimum: the host's slowest state slows the set-up,
    which is mostly imports, less than it slows the reference kernel, so
    the smallest scaled probe would be the most overcorrected one.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return statistics.median(p["scaled_s"] for p in probes), probes


# --- trials ---------------------------------------------------------------------


@dataclass
class Trial:
    fault_id: str
    goal: str
    strategy: str
    index: int
    seed: int
    wall_s: float = 0.0  # scaled by the host's speed (hostspeed.py)
    raw_s: float = 0.0  # as measured
    generations: int = 0
    error: str = ""  # exception type of a trial that raised
    error_message: str = ""
    goal_metric: float = 0.0  # the harness goal metric, as the harness reports it
    detected: bool = False
    result: dict | None = None  # SearchResult.to_dict(omit_timing=True)
    digest: str = ""
    mismatches: list[str] = field(default_factory=list)

    @property
    def key(self) -> tuple:
        return (self.fault_id, self.goal, self.strategy, self.index)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.mismatches)

    def score(self) -> float:
        """Goal metric oriented so that higher is better; 0 for a failed trial."""
        if self.failed:
            return 0.0
        if self.goal == "exceptions":
            return self.goal_metric
        if self.goal == "strong-mutation":
            return self.goal_metric / 100.0
        return 1.0 / self.goal_metric  # diversity fitness 1/(1+d) -> 1+d


def plan(workload: Workload, seed: int, fault_ids: list[str]) -> list[Trial]:
    from affsgen.harness import derive_seed

    trials = []
    for fault_id in fault_ids:
        if not workload.selects(fault_id):
            continue
        for goal in workload.goals:
            for strategy in workload.strategies:
                for index in range(workload.trials):
                    trials.append(Trial(fault_id, goal, strategy, index,
                                        derive_seed(seed, fault_id, strategy, index)))
    return trials


def configs(workload: Workload):
    from affsgen.engine import Budget, EngineConfig
    from affsgen.minilang.interpreter import InterpConfig
    from affsgen.testmodel import GenConfig

    engine = EngineConfig(population_size=workload.population, skip_iter=workload.skip_iter,
                          budget=Budget(generations=workload.generations))
    gen = GenConfig(max_suite_size=workload.max_suite_size,
                    max_calls_per_test=workload.max_calls_per_test)
    return engine, gen, InterpConfig()


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """One run of the workload's trial list."""

    wall_s: float  # scaled by the host's speed
    raw_s: float  # as measured
    elapsed_s: float  # trial time the traced spans must cover (with clock samples)
    trials: list[Trial]
    jobs: list[dict] = field(default_factory=list)  # sweep: one line per pool job
    rss_mb: float = 0.0


def run_in_process(workload: Workload, seed: int, pairs, speed: HostSpeed) -> Pass:
    """One pass of trials through ``harness.run_trial``; wall = sum of trials."""
    from affsgen import harness
    from affsgen.affs import Goal

    engine, gen, interp = configs(workload)
    trials = plan(workload, seed, list(pairs))
    elapsed = 0.0
    for trial in trials:
        result = None
        with speed.clock() as clock:
            try:
                result, record = harness.run_trial(pairs[trial.fault_id], trial.strategy,
                                                   Goal(trial.goal), trial.seed, engine, gen,
                                                   interp)
            except Exception as err:  # a failing trial is counted, not fatal
                trial.error, trial.error_message = type(err).__name__, str(err)[:200]
        trial.wall_s, trial.raw_s = clock.scaled_s, clock.raw_s
        elapsed += clock.elapsed_s
        if result is None:
            trial.digest = digest_of(f"error:{trial.error}")
            continue
        trial.generations = record.generations_completed
        trial.goal_metric = record.goal_metric
        trial.detected = record.fault_detected
        trial.result = result.to_dict(omit_timing=True)
        trial.digest = digest_of(result.to_json(omit_timing=True))
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Pass(sum(t.wall_s for t in trials), sum(t.raw_s for t in trials), elapsed,
                trials, rss_mb=own_kb / 1024.0)


class SweepRecorder:
    """Hooks ``harness._trial_job`` so each pool worker reports its trials.

    Workers are forked from this process, so they inherit the hooks. For
    every job a worker appends one JSON line to ``<jobs_dir>/<pid>.jsonl``:
    the job's wall time (scaled and raw, timed in the worker), its
    ``SearchResult`` (captured from ``run_trial``), the worker's peak RSS so
    far and, when tracing, the worker's trace totals for that job.
    """

    def __init__(self):
        from affsgen import harness

        self.jobs_dir: Path | None = None
        self.tracer = None
        self._speed: tuple[int, HostSpeed] | None = None  # (pid, its samples)
        self._captured: list = []
        original_job = harness._trial_job
        original_trial = harness.run_trial
        recorder = self

        @functools.wraps(original_trial)
        def run_trial(*args, **kwargs):
            result, record = original_trial(*args, **kwargs)
            recorder._captured.append(result)
            return result, record

        # keeps __module__/__qualname__, so the pool pickles it by name
        @functools.wraps(original_job)
        def trial_job(args):
            recorder._captured.clear()
            if recorder.tracer is not None:
                recorder.tracer.reset()
            with recorder.speed().clock() as clock:
                raw = original_job(args)
            line = {
                "fault_id": args[1], "strategy": args[2], "goal": args[3], "seed": args[4],
                "wall_s": clock.scaled_s, "raw_s": clock.raw_s, "elapsed_s": clock.elapsed_s,
                "pid": os.getpid(),
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "result": (recorder._captured[0].to_dict(omit_timing=True)
                           if recorder._captured else None),
                "trace": recorder.tracer.snapshot() if recorder.tracer is not None else None,
            }
            with open(recorder.jobs_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line) + "\n")
            return raw

        harness.run_trial = run_trial
        harness._trial_job = trial_job

    def speed(self) -> HostSpeed:
        """This worker's kernel samples; a forked worker starts its own."""
        if self._speed is None or self._speed[0] != os.getpid():
            self._speed = (os.getpid(), HostSpeed())
        return self._speed[1]


def run_sweep(workload: Workload, seed: int, pairs, recorder: SweepRecorder,
              pass_dir: Path) -> Pass:
    """One pass: one ``run_experiment`` per goal; wall = sum of the calls.

    The parent only waits on the pool, so the pass's wall time is scaled by
    the workers' mean factor: their summed scaled job time over their summed
    raw job time.
    """
    from affsgen.affs import Goal
    from affsgen.harness import ExperimentConfig, run_experiment

    engine, gen, interp = configs(workload)
    shutil.rmtree(pass_dir, ignore_errors=True)
    recorder.jobs_dir = pass_dir / "jobs"
    recorder.jobs_dir.mkdir(parents=True)
    wall = 0.0
    for goal in workload.goals:
        cfg = ExperimentConfig(goal=Goal(goal), strategies=list(workload.strategies),
                               trials_per_fault=workload.trials,
                               corpus_path=str(ROOT / "corpus"), master_seed=seed,
                               engine=engine, generation=gen, interp=interp,
                               workers=workload.workers)
        start = time.perf_counter()
        run_experiment(cfg, pass_dir / goal)
        wall += time.perf_counter() - start

    jobs: dict[tuple, dict] = {}
    for path in sorted(recorder.jobs_dir.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            job = json.loads(line)
            jobs[(job["fault_id"], job["goal"], job["strategy"], job["seed"])] = job
    trials = plan(workload, seed, list(pairs))
    rows = {}
    for goal in workload.goals:
        with open(pass_dir / goal / "trials.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                rows[(row["fault_id"], goal, row["strategy"], int(row["trial_index"]))] = row
    for trial in trials:
        row = rows[trial.key]
        job = jobs[(trial.fault_id, trial.goal, trial.strategy, trial.seed)]
        trial.wall_s, trial.raw_s = job["wall_s"], job["raw_s"]
        trial.result = job["result"]
        trial.generations = int(row["generations_completed"])
        trial.goal_metric = float(row["goal_metric"])
        trial.detected = row["fault_detected"] == "1"
        if row["error"]:
            trial.error, _, message = row["error"].partition(":")
            trial.error_message = message.strip()[:200]
        # the row without its timing column identifies the trial's behaviour
        stable = {k: v for k, v in row.items() if k != "mean_seconds_per_generation"}
        trial.digest = digest_of(json.dumps(stable, sort_keys=True))
    jobs_list = list(jobs.values())
    factor = sum(j["wall_s"] for j in jobs_list) / sum(j["raw_s"] for j in jobs_list)
    return Pass(wall * factor, wall, sum(j["elapsed_s"] for j in jobs_list), trials,
                jobs_list, sweep_rss_mb(jobs_list))


# --- measurement ------------------------------------------------------------------


def sweep_rss_mb(jobs: list[dict]) -> float:
    """Parent's peak RSS plus, for the largest pool, its workers' peaks summed.

    Each goal runs its own pool, whose workers live at the same time. A
    worker's RSS includes the pages it shares copy-on-write with the parent,
    which are then counted once per process, so this is an upper bound on
    the resident memory the pass needed at once.
    """
    peaks: dict[str, dict[int, int]] = {}
    for job in jobs:
        pool = peaks.setdefault(job["goal"], {})
        pool[job["pid"]] = max(pool.get(job["pid"], 0), job["maxrss_kb"])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(sum(pool.values()) for pool in peaks.values())) / 1024.0


def pass_metrics(run: Pass) -> dict[str, float]:
    walls = [t.wall_s for t in run.trials]
    return {
        "wall_s": run.wall_s,
        "gens_per_s": sum(t.generations for t in run.trials if not t.error) / run.wall_s,
        "trial_s_p50": statistics.median(walls),
        "trial_s_p90": statistics.quantiles(walls, n=10, method="inclusive")[-1],
    }


def quality_metrics(trials: list[Trial]) -> dict[str, float]:
    attempted = len(trials)
    return {
        "goal_score": sum(t.score() for t in trials) / attempted,
        "fault_detection_rate": sum(1 for t in trials if t.detected and not t.failed) / attempted,
        "failed_share": sum(1 for t in trials if t.failed) / attempted,
    }


_checker = None  # (OracleChecker, pairs by fault id) of one oracle-check worker


def _start_checker(interp) -> None:
    """Oracle-check worker initializer: the worker's own checker and corpus."""
    global _checker
    sys.path.insert(0, str(ROOT / "src"))
    from affsgen.harness import load_corpus
    from oracle_check import OracleChecker, load_oracles

    _checker = (OracleChecker(load_oracles(ROOT), interp),
                {p.fault_id: p for p in load_corpus(ROOT / "corpus")})


def _check_trial(job: tuple) -> list[str]:
    fault_id, result, detected = job
    checker, pairs = _checker
    return checker.check(pairs[fault_id], result, detected)


def check_outputs(trials: list[Trial], interp, workers: int) -> int:
    """Replay every successful trial through the oracle; returns mismatching trials.

    The check runs outside every timed region, on as many processes as the
    workload's pool has. They are forked: a spawning pool would also start
    multiprocessing's resource tracker, which outlives the pool and ends
    only after this process has exited.
    """
    checked = [t for t in trials if not t.error]
    jobs = [(t.fault_id, t.result, t.detected) for t in checked]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_checker, initargs=(interp,)) as pool:
        found = list(pool.map(_check_trial, jobs))
    bad = 0
    for trial, mismatches in zip(checked, found):
        trial.mismatches = mismatches
        if trial.mismatches:
            bad += 1
            for problem in trial.mismatches:
                print(f"oracle mismatch {trial.key}: {problem}")
    return bad


def compare_passes(reference: list[Trial], other: list[Trial], label: str) -> bool:
    same = True
    for a, b in zip(reference, other):
        if a.digest != b.digest:
            print(f"nondeterminism ({label}) {a.key}: {a.digest[:12]} != {b.digest[:12]}")
            same = False
    return same


def write_details(workload: Workload, seed: int, trials: list[Trial], extra: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{seed}.json"
    details = {
        "workload": workload.name,
        "seed": seed,
        "trials": [
            {"fault_id": t.fault_id, "goal": t.goal, "strategy": t.strategy,
             "index": t.index, "seed": t.seed, "digest": t.digest, "wall_s": t.wall_s,
             "raw_s": t.raw_s, "generations": t.generations, "error": t.error,
             "error_message": t.error_message, "mismatches": t.mismatches}
            for t in trials
        ],
        **extra,
    }
    path.write_text(json.dumps(details, indent=2, sort_keys=True), encoding="utf-8")
    return path


def combined_digest(trials: list[Trial]) -> str:
    return digest_of("\n".join(t.digest for t in trials))


# --- the run -------------------------------------------------------------------------


def run(workload: Workload, seed: int, trace: bool, spec: dict) -> dict:
    from affsgen.harness import load_corpus

    extra: dict = {}
    if not trace:
        setup_s, extra["setup_probes"] = measure_setup(workload)
    pairs = {p.fault_id: p for p in load_corpus(ROOT / "corpus")}
    _, _, interp = configs(workload)
    recorder = SweepRecorder() if workload.workers > 1 else None
    speed = HostSpeed()

    if recorder is None:
        untraced = run_in_process(workload, seed, pairs, speed)
    else:
        untraced = run_sweep(workload, seed, pairs, recorder, OUT / "sweep" / "untraced")
    reference = untraced.trials
    extra.update({"pass_wall_s": untraced.wall_s, "pass_raw_s": untraced.raw_s,
                  "combined_digest": combined_digest(reference)})

    deterministic = covered = True
    if trace:
        metrics, report, traced_trials = traced_pass(workload, seed, pairs, recorder, speed,
                                                     untraced)
        deterministic = compare_passes(reference, traced_trials, "traced pass")
        covered = metrics["engine.other.s"] >= -COVERAGE_TOLERANCE * metrics["trace.accounted_s"]
        extra["trace_report"] = report
    else:
        metrics = pass_metrics(untraced)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = untraced.rss_mb

    checked = time.perf_counter()
    mismatching = check_outputs(reference, interp, workload.workers)
    extra["oracle_check_s"] = time.perf_counter() - checked
    quality = quality_metrics(reference)
    failed = sum(1 for t in reference if t.failed)
    errors = Counter(f"{t.fault_id}:{t.error}" for t in reference if t.error)
    extra.update({"errors": errors, "oracle_mismatches": mismatching, "quality": quality})
    path = write_details(workload, seed, reference, extra)

    print(f"workload {workload.name}  seed {seed}  "
          f"trials {len(reference)}  failed {failed}  oracle mismatches {mismatching}  "
          f"(oracle check {extra['oracle_check_s']:.1f} s)")
    for key, count in sorted(errors.items()):
        print(f"  failed trials {key}: {count}")
    print(f"  digest {extra['combined_digest']}  (per trial: {path.relative_to(ROOT)})")
    print(f"  pass wall {untraced.wall_s:.3f} s scaled, {untraced.raw_s:.3f} s raw")
    if trace:
        print(extra["trace_report"])

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out_metrics = {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted}
    shown = {} if trace else dict(out_metrics)
    shown.update({name: {"value": metrics.get(name, quality.get(name)), "unit": unit}
                  for name, unit in RECORDED.items() if name in metrics or name in quality})
    for name, entry in shown.items():
        print(f"  {name:<22} {entry['value']:>14.6g} {entry['unit']}")
    return {
        "correct": deterministic and covered and mismatching == 0,
        "attempted": len(reference),
        "failed": failed,
        "metrics": out_metrics,
    }


def traced_pass(workload: Workload, seed: int, pairs, recorder, speed: HostSpeed,
                untraced: Pass) -> tuple[dict, str, list[Trial]]:
    """Run one more pass with every layer wrapped; per-layer metrics and report."""
    from affsgen.harness import load_corpus

    from tracer import Tracer, per_layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        load_corpus(ROOT / "corpus")  # the corpus load before the first trial
        setup_parse = (tracer.calls["parser"], tracer.self_s["parser"])
        tracer.reset()
        if recorder is None:
            traced = run_in_process(workload, seed, pairs, speed)
            busy_share = 0.0
        else:
            recorder.tracer = tracer
            traced = run_sweep(workload, seed, pairs, recorder, OUT / "sweep" / "traced")
            recorder.tracer = None
            parent_parse = (tracer.calls["parser"], tracer.self_s["parser"])
            setup_parse = (setup_parse[0] + parent_parse[0], setup_parse[1] + parent_parse[1])
            tracer.reset()
            for job in traced.jobs:
                tracer.merge(job["trace"])
            busy_share = (sum(job["wall_s"] for job in untraced.jobs)
                          / (workload.workers * untraced.wall_s))
        snap = tracer.snapshot()
    finally:
        tracer.restore()
    factor = traced.wall_s / traced.raw_s
    metrics = per_layer_metrics(snap, setup_parse, traced.elapsed_s, factor,
                                traced.wall_s / untraced.wall_s - 1.0, len(traced.trials),
                                busy_share)
    return metrics, trace_report(workload, seed, snap, metrics, factor), traced.trials


def trace_report(workload: Workload, seed: int, snap: dict, metrics: dict,
                 factor: float) -> str:
    """The per-layer table, in raw traced seconds, with the coverage check."""
    accounted = metrics["trace.accounted_s"] / factor
    spans = sorted(snap["self_s"].items(), key=lambda kv: -kv[1])
    lines = [f"per-layer self time, workload {workload.name}, seed {seed} (raw seconds)",
             f"{'span':<28}{'calls':>12}{'self s':>12}{'share':>9}"]
    for name, self_s in spans:
        lines.append(f"{name:<28}{snap['calls'].get(name, 0):>12}{self_s:>12.4f}"
                     f"{self_s / accounted:>9.1%}")
    other = metrics["engine.other.s"] / factor
    lines.append(f"{'engine.other (no span)':<28}{'':>12}{other:>12.4f}{other / accounted:>9.1%}")
    spanned = sum(snap["self_s"].values())
    base = ("summed worker trial time" if workload.workers > 1 else "traced trial time")
    verdict = ("OK" if other >= -COVERAGE_TOLERANCE * accounted
               else "FAIL: spans exceed the traced time")
    lines.append(f"coverage: spans {spanned:.4f} s cover {spanned / accounted:.2%} of the "
                 f"{base} {accounted:.4f} s; engine.other {other:.4f} s; {verdict}")
    lines.append(f"trace.overhead {metrics['trace.overhead']:+.1%}")
    for layer in ("interpreter.base", "interpreter.mutant"):
        lines.append(f"{layer}: {metrics[layer + '.calls']} calls, "
                     f"{metrics[layer + '.steps']} steps, "
                     f"{metrics[layer + '.msteps_per_s']:.3f} Msteps/s (scaled), "
                     f"repeat_step_share {metrics[layer + '.repeat_step_share']:.1%}, "
                     f"step-limit hits {metrics[layer + '.step_limit_hits']}")
    text = "\n".join(lines)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}-seed{seed}.txt").write_text(text + "\n", encoding="utf-8")
    return text


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="the run length the workloads are sized for; "
                             "a run measures one pass whatever its length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not an affsgen checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        clock = setup_probe(workload)
        print(json.dumps({"scaled_s": clock.scaled_s, "raw_s": clock.raw_s}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run(workload, args.seed, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
