"""Set-up time of one workload, measured in a fresh interpreter.

Usage: ``python3 setup_probe.py WORKLOAD STATE_DIR``.  Times importing
the ``repro`` modules the workload uses and building its
``ShardSet``/``PipelineExecutor``; for the TCP workload also a
one-transaction ``execute()`` that spawns and connects the node
processes and opens the WALs.  Input generation is not included.

The set-up is timed in CPU seconds: this process's plus the node
processes' (collected when ``close()`` reaps them), so that time the
host gives to other processes does not count.  ``run.measure_setup``
starts the probe with one OpenBLAS thread (see there).  The CPU time is
normalised by allocation loops (``refloop.allocation_loop``), also timed
in CPU seconds, run just before and after it.  Prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import refloop  # noqa: E402  (this directory is sys.path[0])
from workloads import WORKLOADS, warmup_input  # noqa: E402

#: Allocation loops on each side of the set-up (set-up takes about ten
#: loop times, so one loop on each side samples the host too sparsely).
REFERENCES = 3


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    name, state_dir = argv
    workload = WORKLOADS[name]
    refloop.time_allocation()  # the loop's own first-call warm-up
    before = [refloop.time_allocation() for _ in range(REFERENCES)]
    children = _children_cpu_s()
    start, wall_start = process_time(), perf_counter()
    executor = workload.build(state_dir)
    try:
        if workload.windowed:
            warm = warmup_input()
            executor.execute(
                warm.transactions, seed=warm.seed, arrivals=warm.arrivals
            )
        cpu = process_time() - start
        wall = perf_counter() - wall_start
        after = [refloop.time_allocation() for _ in range(REFERENCES)]
    finally:
        executor.close()
        shutil.rmtree(state_dir, ignore_errors=True)
    cpu += _children_cpu_s() - children
    print(
        json.dumps(
            {
                "cpu_s": cpu,
                "wall_s": wall,
                "reference_s": before + after,
                "setup_s": refloop.normalise(
                    cpu, before + after, refloop.ALLOCATION_NOMINAL_S
                ),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
