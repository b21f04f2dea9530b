"""Host-speed-scaled timing: time work in reference seconds.

The benchmark's reference host is shared. Its speed flips between two
states, at times several times a second and at times for minutes: a fixed
piece of pure-Python work then takes either about 90 µs or about 175 µs.
Averaging inside one run does not remove a slow state that lasts minutes.

``HostClock`` therefore samples the host's speed while the work runs. Every
``PERIOD_S`` a SIGALRM handler times a fixed kernel of the same kind of work
affsgen does: a tree-walking evaluator over a dict environment, plus an edit
distance on short strings. Each stretch of work between two samples counts
``stretch * REFERENCE_S / kernel_s``, where ``kernel_s`` is the median of
the process's last three samples. The total is the time the work would
have taken at the speed at which the kernel takes ``REFERENCE_S``, the
host's fast state. The kernel lives here, not in affsgen, so a change to
the program never changes it. The time spent in the kernel is left out of
both totals.

The samples are kept across clocks (``HostSpeed``), so every estimate comes
from samples taken in the middle or at the end of work. A kernel run right
after other kernel runs finds its data in the caches and reads about 20 %
faster; estimating a short job's speed from such runs would make the same
work read longer when split into shorter jobs.

This module imports nothing from affsgen.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque

# the kernel's time on the reference host (2 vCPU Intel Xeon, Python 3.11)
# in its fast state; it fixes the unit of the scaled timings
REFERENCE_S = 90e-6
PERIOD_S = 0.02
# kernel runs before a process's first clock: Python specializes a
# function's bytecode only after several calls, and a cold kernel reads slow
WARMUP_RUNS = 10

_perf = time.perf_counter


class _Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def eval(self, env):
        return self.value


class _Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def eval(self, env):
        return env[self.name]


class _Add:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right

    def eval(self, env):
        return self.left.eval(env) + self.right.eval(env)


class _Less:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right

    def eval(self, env):
        return self.left.eval(env) < self.right.eval(env)


def _run_loop(limit: int) -> int:
    """``s = 0; i = 0; while i < limit: s = s + i; i = i + 1`` as a tree walk."""
    env = {"s": 0, "i": 0, "limit": limit}
    test = _Less(_Var("i"), _Var("limit"))
    body = (("s", _Add(_Var("s"), _Var("i"))), ("i", _Add(_Var("i"), _Num(1))))
    steps = 0
    while test.eval(env):
        for name, expr in body:
            env[name] = expr.eval(env)
            steps += 1
    return env["s"] + steps


def _levenshtein(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def kernel_s() -> float:
    """Seconds the kernel takes now, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _perf()
        _run_loop(40)
        _run_loop(30)
        _levenshtein("call0(0, 0)", "call1(1, 3)")
        return _perf() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The kernel samples of one process; make one per process, then clocks."""

    def __init__(self):
        for _ in range(WARMUP_RUNS):
            kernel_s()
        self.recent: deque[float] = deque(maxlen=3)

    def clock(self) -> HostClock:
        return HostClock(self)


class HostClock:
    """Times the work done inside its ``with`` block.

    Afterwards ``raw_s`` is the wall time of the work, ``scaled_s`` the
    same in reference seconds (both leave out the kernel samples), and
    ``elapsed_s`` the wall time including the samples.
    """

    def __init__(self, speed: HostSpeed):
        self.raw_s = self.scaled_s = self.elapsed_s = 0.0
        self._recent = speed.recent
        self._last = self._start = 0.0
        self._previous_handler = None

    def _sample(self, *_signal_args) -> None:
        now = _perf()
        self._recent.append(kernel_s())
        stretch = now - self._last
        self.raw_s += stretch
        self.scaled_s += stretch * REFERENCE_S / statistics.median(self._recent)
        self._last = _perf()

    def __enter__(self) -> HostClock:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._start = self._last = _perf()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()  # closes the last stretch
        self.elapsed_s = _perf() - self._start
