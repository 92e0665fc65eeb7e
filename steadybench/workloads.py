"""The benchmark's workloads: generated inputs and the program built for each.

Each workload fixes the program configuration (``PipelineExecutor`` over
a ``ShardSet``, program defaults apart from the choices below) and a
generator of inputs.  Inputs are a pure function of ``(seed, part)``;
they are the program's only contact with the benchmark.  A run executes
its ``parts`` inputs round-robin ("passes") until its time is up, so the
first pass fixes every deterministic metric while later passes only add
timing samples.

The three workloads cover the three execution lanes of
``PipelineExecutor``: staged (open loop), plain (closed loop) and
windowed (parallel plane over TCP).  ``batch_mvmt``, the only plain-lane
and multiversion workload, is left out of BENCHMARK.json while MVMT(3)
fails its certification (``meta.json`` ``excluded_workloads`` says
why); it stays runnable so the failure can be reproduced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

#: Transactions per open-loop stream of ``zipf_long``.
ZIPF_LONG_TXNS = 8_000
#: Transactions per open-loop stream of ``zipf_2pc_tcp``.
ZIPF_TCP_TXNS = 1_000


@dataclass(frozen=True)
class Input:
    """One generated input: what a single ``execute()`` call receives."""

    part: int
    seed: int
    transactions: list
    arrivals: dict[int, int] | None


def part_seed(seed: int, part: int) -> int:
    """The seed of one part's generator (and of its ``execute()``)."""
    return seed * 1_000 + part


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json
    (for a workload left out of it, in ``meta.json``)."""

    name: str
    #: Inputs per run; the first pass over them fixes deterministic metrics.
    parts: int
    #: Execution lane of ``PipelineExecutor`` this workload drives.
    lane: str
    generate: Callable[[int], tuple[list, dict[int, int] | None]]
    build: Callable[[str | None], Any]
    multiversion: bool = False

    @property
    def windowed(self) -> bool:
        return self.lane == "windowed"

    def make_input(self, seed: int, part: int) -> Input:
        derived = part_seed(seed, part)
        transactions, arrivals = self.generate(derived)
        return Input(part, derived, transactions, arrivals)


def _zipf(num_txns: int) -> Callable[[int], tuple[list, dict[int, int]]]:
    def generate(seed: int) -> tuple[list, dict[int, int]]:
        from repro.workloads.zipf import ZipfSpec, generate_zipf_workload

        return generate_zipf_workload(
            ZipfSpec(num_txns=num_txns), random.Random(seed)
        )

    return generate


def _mvmt_batch(seed: int) -> tuple[list, None]:
    from repro.model.generator import WorkloadSpec, generate_transactions

    spec = WorkloadSpec(
        num_txns=100, ops_per_txn=4, num_items=256, write_ratio=0.2, skew=1.1
    )
    return generate_transactions(spec, random.Random(seed)), None


def _quiet(executor: Any) -> Any:
    """Event rings off: decisions do not depend on them."""
    executor.scheduler.events.disable()
    executor.events.disable()
    return executor


def _build_zipf_long(state_dir: str | None = None) -> Any:
    from repro.engine.pipeline import PipelineExecutor, ShardSet, ShardSpec

    shards = ShardSet(ShardSpec(k=3, anti_starvation=True))
    return _quiet(PipelineExecutor(shards.scheduler, shards=shards))


def _build_batch_mvmt(state_dir: str | None = None) -> Any:
    from repro.engine.pipeline import PipelineExecutor, ShardSet, ShardSpec

    shards = ShardSet(ShardSpec(protocol="mvmt", k=3, anti_starvation=True))
    return _quiet(PipelineExecutor(shards.scheduler, shards=shards))


def _build_zipf_2pc_tcp(state_dir: str | None = None) -> Any:
    from repro.engine.pipeline import PipelineExecutor, ShardSet, ShardSpec

    if state_dir is None:
        raise ValueError("zipf_2pc_tcp needs a state directory for its WALs")
    shards = ShardSet(ShardSpec(n_shards=2, k=3, anti_starvation=True))
    return _quiet(
        PipelineExecutor(
            shards.scheduler,
            shards=shards,
            parallel=2,
            transport="tcp",
            window=32,
            state_dir=state_dir,
        )
    )


def warmup_input() -> Input:
    """A one-transaction open-loop input; on the TCP workload its
    ``execute()`` triggers the lazy spawn of the node processes."""
    from repro.model.operations import Operation, OpKind, Transaction

    txn = Transaction(1, (Operation(OpKind.WRITE, 1, "z0"),))
    return Input(-1, 0, [txn], {1: 0})


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "zipf_long",
            parts=4,
            lane="staged",
            generate=_zipf(ZIPF_LONG_TXNS),
            build=_build_zipf_long,
        ),
        Workload(
            "batch_mvmt",
            parts=64,
            lane="plain",
            generate=_mvmt_batch,
            build=_build_batch_mvmt,
            multiversion=True,
        ),
        Workload(
            "zipf_2pc_tcp",
            parts=6,
            lane="windowed",
            generate=_zipf(ZIPF_TCP_TXNS),
            build=_build_zipf_2pc_tcp,
        ),
    )
}
