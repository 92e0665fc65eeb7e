"""Reference-speed normalisation of measured times.

The host this benchmark targets switches between a fast and a slow state
about 2x apart, for spells from under a second to tens of seconds, and
process CPU time slows down with wall time, so a raw wall clock drifts
more than any useful bound.  Every timed call therefore runs with a
fixed pure-Python reference chunk interleaved into it (:class:`Interleaved`):
one chunk just before the call, one just after, and one every
``INTERVAL_S`` of wall time during it, run by a ``SIGALRM`` handler at
the next bytecode boundary of the main thread.  The call's time is read
on :func:`clock_ns`, which leaves out the chunks, and is multiplied by
the chunk's nominal time over the mean of the chunk timings.  A sample
then reads in "nominal seconds": what it would have taken on a host that
runs the chunk in exactly ``NOMINAL_S``.

Chunks run during a call, not only around it, because a sample lasts
one to three seconds: reference loops run only between samples see the
host at a couple of points per sample and miss most of its changes of
state.  Repeating one input on a 2-vCPU host, 25 ms loops between the
samples left an interquartile range of 20 % (zipf_long) and 19 %
(zipf_2pc_tcp) in the normalised sample times, against 42 % and 23 % raw;
chunks interleaved every 40 ms left 7.6 % and 11.5 %.

A chunk that runs while the call waits (for a node process, on the TCP
workload) overlaps that wait, yet its whole time is left out, so such a
call reads up to the chunks' share (about 3 %) short.  The bias is the
same on every run and every commit.

Set-up time (in CPU seconds, see ``setup_probe``) is normalised by a
second reference, :func:`allocation_loop`.  Set-up is mostly imports in
a fresh interpreter, which unmarshal and execute module bodies and so
allocate many small objects in fresh memory.  Its time follows a loop
that does the same far more closely than it follows the cache-resident
dict/list chunk, which slows down more than set-up does in the host's
slow state.

The loops' sizes and nominal times live in ``meta.json`` so that a later
change to any of them is visible as a change to the benchmark's
definition.
"""

from __future__ import annotations

import gc
import json
import signal
from pathlib import Path
from time import perf_counter_ns, process_time
from typing import Any, Sequence

_META = json.loads(Path(__file__).with_name("meta.json").read_text())

#: Nominal wall time of one reference chunk, in seconds.
NOMINAL_S: float = float(_META["reference_loop"]["nominal_s"])
#: Iterations of the reference chunk (sized to take about ``NOMINAL_S``).
ROUNDS: int = int(_META["reference_loop"]["rounds"])
#: Wall time between reference chunks during a timed call, in seconds.
INTERVAL_S: float = float(_META["reference_loop"]["interval_s"])
#: Nominal CPU time of one allocation loop, in seconds.
ALLOCATION_NOMINAL_S: float = float(_META["allocation_loop"]["nominal_s"])
#: Objects the allocation loop builds (sized to take about its nominal time).
ALLOCATION_ITEMS: int = int(_META["allocation_loop"]["items"])

#: Nanoseconds spent in reference chunks so far (see :func:`clock_ns`).
_chunks_ns = 0


def reference_loop() -> int:
    """Fixed dict/list work, the same shape as the engine's hot paths
    (dict lookups and updates, list appends and clears)."""
    table: dict[int, int] = {}
    window: list[int] = []
    total = 0
    for i in range(ROUNDS):
        key = (i * 7919) % 4093
        table[key] = table.get(key, 0) + 1
        window.append(key)
        if len(window) >= 64:
            total += window[i & 63] + len(table)
            window.clear()
    return total


def time_reference() -> float:
    """Wall seconds of one reference chunk (left out of :func:`clock_ns`)."""
    global _chunks_ns
    start = perf_counter_ns()
    reference_loop()
    elapsed = perf_counter_ns() - start
    _chunks_ns += elapsed
    return elapsed / 1e9


def clock_ns() -> int:
    """``perf_counter_ns()`` minus the time spent in reference chunks.

    A chunk may run between any two bytecodes, so the counter is read
    on both sides of the clock and the read is retried if a chunk ran
    in between."""
    while True:
        before = _chunks_ns
        now = perf_counter_ns()
        if _chunks_ns == before:
            return now - before


class Interleaved:
    """Times the body of a ``with`` block on :func:`clock_ns`, with
    reference chunks before, during (every ``INTERVAL_S``) and after it.

    Main thread only (signal handlers run there).  After the block,
    ``raw_s`` is the body's time without the chunks, ``references`` the
    chunk timings and ``norm_s`` the normalised time."""

    def __init__(self) -> None:
        self.references: list[float] = []
        self.raw_s = 0.0
        self._start = 0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        self.references.append(time_reference())

    def __enter__(self) -> "Interleaved":
        self.references = [time_reference()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = clock_ns()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = clock_ns()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = (end - self._start) / 1e9
        self.references.append(time_reference())

    @property
    def norm_s(self) -> float:
        return normalise(self.raw_s, self.references)


def allocation_loop() -> int:
    """Fixed allocation work, the same shape as importing modules: build
    many small tuples, strings and lists in fresh memory, then free them.
    The cyclic garbage collector is off meanwhile, so the time does not
    depend on how many objects the process already holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return len([(i, str(i), [i]) for i in range(ALLOCATION_ITEMS)])
    finally:
        if enabled:
            gc.enable()


def time_allocation() -> float:
    """CPU seconds of one allocation loop (set-up, which it normalises,
    is timed in CPU seconds too; see ``setup_probe``)."""
    start = process_time()
    allocation_loop()
    return process_time() - start


def normalise(
    raw_s: float, references: Sequence[float], nominal_s: float = NOMINAL_S
) -> float:
    """*raw_s* scaled to reference speed: multiplied by the reference's
    nominal time over the mean of the *references* (its timings taken
    around and during the measurement)."""
    reference = sum(references) / len(references)
    if reference <= 0.0:
        raise ValueError("reference loop times must be positive")
    return raw_s * nominal_s / reference
