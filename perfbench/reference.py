"""A fixed pure-Python reference task that measures the host's current speed.

The host that runs the benchmark is shared, and its speed drifts: the same
code runs up to twice as slowly for tens of seconds at a time.  A
:class:`ReferenceClock` runs this task every few hundredths of a second,
wherever the program is, and scales the time around each sample by
``NOMINAL_S`` over the task's times nearby.  Times then read as on a host
that runs this task in ``NOMINAL_S`` seconds, and drift that slows this
task and the program alike cancels out.

The task does the kinds of work diagalg does: union-find over set
partitions, small objects, tuples, dicts and sets, sorting, recursion and
integer arithmetic.  It is the benchmark's own code and never calls
diagalg, so a change to diagalg cannot move it.  Changing this file, or
``NOMINAL_S``, changes every timed metric: do it only in a change that
re-measures the baseline.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

# Seconds one run of the task takes on the host the benchmark was written on, in
# the middle of its range there (0.7 to 1.4 ms on a 2-CPU share of a
# shared x86-64 host, Python 3.11).
NOMINAL_S = 0.001

_DEGREE = 24
_PAIRS = 6


class _Block:
    __slots__ = ("members", "weight")

    def __init__(self, members):
        self.members = tuple(sorted(members))
        self.weight = sum(self.members)


def _random_partition(rng: random.Random, size: int) -> list[list[int]]:
    blocks: list[list[int]] = []
    for dot in range(size):
        choice = rng.randint(0, len(blocks))
        if choice == len(blocks):
            blocks.append([dot])
        else:
            blocks[choice].append(dot)
    return blocks


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _stack(upper, lower, n: int) -> tuple[int, tuple]:
    """Glue two partitions of 2n dots along n of them, as diagram stacking does."""
    parent = list(range(3 * n))
    for offset, blocks in ((0, upper), (n, lower)):
        for block in blocks:
            nodes = [offset + dot for dot in block]
            for a, b in zip(nodes, nodes[1:]):
                ra, rb = _find(parent, a), _find(parent, b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for dot in range(3 * n):
        groups.setdefault(_find(parent, dot), []).append(dot)
    loops = 0
    out = []
    for members in groups.values():
        outer = {m for m in members if m < n or m >= 2 * n}
        if outer:
            out.append(_Block(outer))
        else:
            loops += 1
    out.sort(key=lambda block: (block.weight, block.members))
    return loops, tuple(block.members for block in out)


def _partitions(total: int, largest: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    return [
        (part, *rest)
        for part in range(min(total, largest), 0, -1)
        for rest in _partitions(total - part, part)
    ]


def _task(pairs) -> int:
    digest = 0
    for upper, lower in pairs:
        loops, blocks = _stack(upper, lower, _DEGREE)
        digest = (digest * 1_000_003 + loops + hash(blocks)) % (1 << 61)
    for shape in _partitions(12, 12):
        digest = (digest * 31 + len(shape) * shape[0] ** 3) % (1 << 61)
    return digest


_rng = random.Random(20241017)
_PAIR_INPUTS = [
    (_random_partition(_rng, 2 * _DEGREE), _random_partition(_rng, 2 * _DEGREE)) for _ in range(_PAIRS)
]
_EXPECTED = _task(_PAIR_INPUTS)


def run_task() -> None:
    """Run the task once; raises if its result changes."""
    if _task(_PAIR_INPUTS) != _EXPECTED:
        raise RuntimeError("reference task gave a different result")


class ReferenceClock:
    """Wall time converted to reference time, from samples taken by a timer signal.

    Between :meth:`start` and :meth:`stop`, SIGALRM times one run of the
    task every ``interval`` seconds of wall time, in the main thread,
    between two bytecodes of whatever runs.  After :meth:`stop` (or
    :meth:`fit`, on samples recorded some other way), :meth:`span`
    converts the time between two ``time.perf_counter()`` readings.  The
    stretch between two samples is scaled by ``NOMINAL_S`` over the median
    of the ``window`` samples on either side of it; time spent in samples
    counts as none.
    """

    def __init__(self, interval: float, window: int):
        self.interval = interval
        self.window = window
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factor: list[float] = []
        self._scaled: list[float] = []
        self._net: list[float] = []

    def _sample(self, *_signal) -> None:
        # The task frees what it allocates; with the collector off meanwhile,
        # a sample neither runs a collection nor moves when the program's
        # next one falls.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            run_task()
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            if collecting:
                gc.enable()

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self.fit()

    def fit(self) -> None:
        """Build the conversion from the samples taken so far."""
        durations = self.durations()
        w = self.window
        self._factor = [
            NOMINAL_S / statistics.median(durations[max(0, k + 1 - w) : k + 1 + w]) for k in range(len(durations))
        ]
        self._scaled, self._net = [0.0], [0.0]
        for k in range(len(durations) - 1):
            gap = self.starts[k + 1] - self.ends[k]
            self._scaled.append(self._scaled[-1] + gap * self._factor[k])
            self._net.append(self._net[-1] + gap)

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def _at(self, t: float) -> tuple[float, float]:
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * self._factor[0], t - self.starts[0]
        over = max(0.0, t - self.ends[k])
        return self._scaled[k] + over * self._factor[k], self._net[k] + over

    def span(self, a: float, b: float) -> tuple[float, float]:
        """(reference seconds, wall seconds outside samples) from reading ``a`` to reading ``b``."""
        scaled_a, net_a = self._at(a)
        scaled_b, net_b = self._at(b)
        return scaled_b - scaled_a, net_b - net_a
