"""Run four long default searches and check their seeded output digests.

    python tests/long_search_digests.py

Each search is one ``engine.run_search`` call on a corpus pair's fixed
program, under the default ``EngineConfig`` (population 50, ``skip_iter``
3) and the default ``GenConfig``, at seed 7: p05 exceptions/sarsa and p11
strong-mutation/sarsa for the default 200 generations, and p08
diversity/ucb for 30 and for 100. The digest is the SHA-256 of the
result's ``to_json(omit_timing=True)``. Over 200 generations each distinct
call's memoized record serves the whole search, and each agent makes
decisions past its seeding phase; the p08 searches score the pairwise
diversity of population-50 suites, which no tier-1 pin does, and over 100
generations their diversity batches grow to about 3 700 bits, against
about 1 400 in the benchmark. The tier-1 pins run at most 30 generations.
The script prints each search's digest and seconds, and exits 1 unless
every digest is the pinned one. The 100-generation search takes about
13 s, each other one several seconds. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from affsgen.affs import Goal, make_strategy  # noqa: E402
from affsgen.engine import Budget, EngineConfig, run_search  # noqa: E402
from affsgen.minilang import parse  # noqa: E402

SEED = 7
# (fault id, goal, strategy, generations): digest
DIGESTS = {
    ("p05_terrain_gates", Goal.EXCEPTIONS, "sarsa", 200):
        "6e4b77d6a30c49a67c9080fabb0b2663c8abbac59370057548221c4b32d6e8a3",
    ("p11_triangle_walk", Goal.STRONG_MUTATION, "sarsa", 200):
        "8beb2e3fd908c38c135305b169d678269b01f2a2376765bc8cb1a0e2743e78a6",
    ("p08_account_rules", Goal.DIVERSITY, "ucb", 30):
        "d6fa1c131958d990384f7be30e085ce1ba993cbdac9407f5e307d556f019ef8d",
    ("p08_account_rules", Goal.DIVERSITY, "ucb", 100):
        "26fe14294f3859fe3f49eb610bda96a9b0cba1a098c53ce8ed510cc8d28be75e",
}


def main() -> int:
    failed = False
    for (fault_id, goal, strategy, generations), want in DIGESTS.items():
        program = parse((ROOT / "corpus" / fault_id / "fixed.minij").read_text(), fault_id)
        config = EngineConfig(budget=Budget(generations=generations))
        start = time.perf_counter()
        result = run_search(program, goal, make_strategy(strategy, goal), config, SEED)
        seconds = time.perf_counter() - start
        got = hashlib.sha256(result.to_json(omit_timing=True).encode()).hexdigest()
        ok = got == want
        failed |= not ok
        print(f"{fault_id} {goal.value}/{strategy} {generations} gens: {got} {seconds:.1f} s"
              f"{'' if ok else f' (expected {want})'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
