"""Run two long default searches and check their seeded output digests.

    python tests/long_search_digests.py

Each search is one ``engine.run_search`` call on a corpus pair's fixed
program, under the default ``EngineConfig`` (population 50, ``skip_iter``
3, 200 generations) and the default ``GenConfig``, at seed 7. The digest is
the SHA-256 of the result's ``to_json(omit_timing=True)``. Over 200
generations each distinct call's memoized record serves the whole search,
and each agent makes decisions past its seeding phase; the tier-1 pins run
at most 30 generations. The script prints each search's digest and seconds, and exits
1 unless both digests are the pinned ones. Each search takes several
seconds. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from affsgen.affs import Goal, make_strategy  # noqa: E402
from affsgen.engine import EngineConfig, run_search  # noqa: E402
from affsgen.minilang import parse  # noqa: E402

SEED = 7
DIGESTS = {
    ("p05_terrain_gates", Goal.EXCEPTIONS, "sarsa"):
        "6e4b77d6a30c49a67c9080fabb0b2663c8abbac59370057548221c4b32d6e8a3",
    ("p11_triangle_walk", Goal.STRONG_MUTATION, "sarsa"):
        "8beb2e3fd908c38c135305b169d678269b01f2a2376765bc8cb1a0e2743e78a6",
}


def main() -> int:
    failed = False
    for (fault_id, goal, strategy), want in DIGESTS.items():
        program = parse((ROOT / "corpus" / fault_id / "fixed.minij").read_text(), fault_id)
        start = time.perf_counter()
        result = run_search(program, goal, make_strategy(strategy, goal), EngineConfig(), SEED)
        seconds = time.perf_counter() - start
        got = hashlib.sha256(result.to_json(omit_timing=True).encode()).hexdigest()
        ok = got == want
        failed |= not ok
        print(f"{fault_id} {goal.value}/{strategy}: {got} {seconds:.1f} s"
              f"{'' if ok else f' (expected {want})'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
