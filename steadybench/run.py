"""Repository benchmark: reference-speed-normalised runs of the pipeline.

Usage (from the repository root)::

    python3 steadybench/run.py --workload zipf_long --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed`` (one per part, all before
any timing), measures set-up time in fresh interpreters, then executes
the parts round-robin for ``--seconds``.  Each timed sample is one
``PipelineExecutor.execute()`` call with reference chunks run before,
during and after it (see ``refloop``); every sample is certified (see
``certify``) and repeated executions of one input must decide
identically.

With ``--trace 0`` the result reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced samples (interleaved with
untraced ones for ``trace.overhead_ratio``).  Detail lines (raw walls,
reference-chunk timings, node memory) precede the result, which is the
last line of standard output: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits non-zero when any
sample fails certification or a determinism check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for the TCP workload's WALs (removed after each pass).
STATE = HERE / "_state"
#: Spans of the last traced sample.
OUT = HERE / "_out"

import certify  # noqa: E402  (this directory is sys.path[0])
import refloop  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Input, Workload  # noqa: E402

#: End-to-end metrics, reported with ``--trace 0``: name -> unit.
END_TO_END = {
    "committed_tps": "txn/s",
    "us_per_op": "us",
    "commit_latency_p50_ticks": "ticks",
    "commit_latency_p99_ticks": "ticks",
    "aborts_per_commit": "ratio",
    "committed_share": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics, reported with ``--trace 1``: name -> unit.
PER_LAYER = {
    "service.self_ms": "ms",
    "service.ops_executed": "count",
    "service.ops_reexecuted": "count",
    "service.undo_ops": "count",
    "service.commit_parks": "count",
    "service.cascade_restarts": "count",
    "admission.pop_ms": "ms",
    "admission.pops": "count",
    "admission.max_queue_depth": "count",
    "admission.retries": "count",
    "core.accept_ms": "ms",
    "core.reject_ms": "ms",
    "core.restart_ms": "ms",
    "core.commit_ms": "ms",
    "core.process_calls": "count",
    "core.set_calls": "count",
    "core.element_visits": "count",
    "core.compare_cache_hit_ratio": "ratio",
    "core.table_rows": "count",
    "mvcc.resolve_read_ms": "ms",
    "mvcc.max_chain_length": "count",
    "mvcc.chain_versions_reclaimed": "count",
    "mvcc.mv_read_aborts": "count",
    "storage.apply_ms": "ms",
    "storage.undo_ms": "ms",
    "plane.run_window_ms": "ms",
    "plane.windows": "count",
    "plane.ops_per_window": "op/window",
    "plane.sync_rounds": "count",
    "plane.rows_shipped": "count",
    "transport.send_ms": "ms",
    "transport.recv_wait_ms": "ms",
    "transport.codec_ms": "ms",
    "transport.messages": "count",
    "transport.bytes_per_commit": "B/txn",
    "wal.append_ms": "ms",
    "wal.appends": "count",
    "wal.bytes_per_commit": "B/txn",
    "trace.overhead_ratio": "ratio",
}

#: Span label -> per-layer time metric.
SPAN_METRICS = {
    "service.self": "service.self_ms",
    "admission.pop": "admission.pop_ms",
    "core.accept": "core.accept_ms",
    "core.reject": "core.reject_ms",
    "core.restart": "core.restart_ms",
    "core.commit": "core.commit_ms",
    "mvcc.resolve_read": "mvcc.resolve_read_ms",
    "storage.apply": "storage.apply_ms",
    "storage.undo": "storage.undo_ms",
    "plane.run_window": "plane.run_window_ms",
    "transport.send": "transport.send_ms",
    "transport.recv": "transport.recv_wait_ms",
    "transport.codec": "transport.codec_ms",
    "wal.append": "wal.append_ms",
}

#: Per-layer metrics aggregated over parts by maximum (others: sum).
MAX_OVER_PARTS = {
    "admission.max_queue_depth",
    "core.table_rows",
    "mvcc.max_chain_length",
}

#: Per-layer metrics each workload cannot measure from outside, and why.
NOT_MEASURED = json.loads((HERE / "meta.json").read_text())["not_measured"]

#: Fresh-interpreter set-up measurements per run (median reported); an
#: untimed probe before them reads the program's files into the page cache.
SETUP_PROBES = 11
#: Transactions of part 0 executed untimed before timing starts (and, on
#: the windowed workload, at the start of each pass to spawn and warm its
#: fresh node processes).
WARMUP_TXNS = 200


@dataclass
class Sample:
    part: int
    traced: bool
    #: ``execute()`` wall time without the reference chunks.
    raw_s: float
    #: ``raw_s`` at reference speed (see ``refloop``).
    norm_s: float
    #: Timings of the reference chunks run before, during and after it.
    references: list[float]
    ops: int
    committed: int
    problems: list[str] = field(default_factory=list)
    #: Raw per-layer times of a traced sample (see ``Tracer.fold``).
    layer_ms: dict[str, float] | None = None

    @property
    def norm_layer_ms(self) -> dict[str, float]:
        scale = self.norm_s / self.raw_s
        return {label: ms * scale for label, ms in (self.layer_ms or {}).items()}


@dataclass
class PartFacts:
    """What the first execution of one part decided (deterministic)."""

    digest: str
    submitted: int
    committed: int
    failed: int
    aborts: int
    latencies: list[int]
    counts: dict[str, float]
    traced_counts: dict[str, float] | None = None
    traced: list[Sample] = field(default_factory=list)


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of pre-sorted values."""
    if not sorted_values:
        return 0
    rank = max(1, -(-int(q * 1000) * len(sorted_values) // 1000))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _prefix(inp: Input, count: int) -> Input:
    """The first *count* transactions of an input (warm-up only)."""
    txns = inp.transactions[:count]
    arrivals = (
        None
        if inp.arrivals is None
        else {t.txn_id: inp.arrivals[t.txn_id] for t in txns}
    )
    return Input(inp.part, inp.seed, txns, arrivals)


def _child_peak_rss_mb() -> list[float]:
    """Peak RSS (VmHWM) of this process's live children, in MiB."""
    me = os.getpid()
    peaks = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
            if int(stat.rsplit(")", 1)[1].split()[1]) != me:
                continue
            with open(f"/proc/{entry}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) / 1024.0)
        except (OSError, ValueError, IndexError):
            continue  # exited meanwhile, or not readable
    return sorted(peaks)


def _wal_bytes(state_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(state_dir, name))
        for name in os.listdir(state_dir)
    )


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, inputs: list[Input], trace: bool):
        self.workload = workload
        self.inputs = inputs
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.samples: list[Sample] = []
        self.facts: dict[int, PartFacts] = {}
        #: Peak RSS of the data-node processes, one list per pass.
        self.node_rss_mb: list[list[float]] = []
        self.passes = 0
        self.state_dir = str(STATE / f"{workload.name}-{os.getpid()}")

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> None:
        """Execute the parts round-robin until *seconds* have passed; the
        first pass always completes."""
        self._warm_up()
        start = perf_counter()
        while True:
            executor = self._open_pass()
            try:
                for part, inp in enumerate(self.inputs):
                    modes = (False,)
                    if self.trace:
                        modes = (False, True) if self.passes % 2 else (True, False)
                    for traced in modes:
                        self._sample(executor, inp, traced)
                    if self.passes and perf_counter() - start >= seconds:
                        return
            finally:
                self._close_pass(executor)
                self.passes += 1
            if perf_counter() - start >= seconds:
                return

    def _warm_up(self) -> None:
        """One untimed execution of a prefix of part 0 (bytecode and
        allocator warm-up); the windowed workload warms up per pass."""
        if not self.workload.windowed:
            self._execute_prefix(self.workload.build(None))

    def _execute_prefix(self, executor: Any) -> None:
        warm = _prefix(self.inputs[0], WARMUP_TXNS)
        executor.execute(warm.transactions, seed=warm.seed, arrivals=warm.arrivals)

    def _open_pass(self) -> Any | None:
        """The windowed workload keeps one executor (and its node
        processes) per pass, spawned by an untimed warm-up execute; the
        others build a fresh executor per sample."""
        if not self.workload.windowed:
            return None
        executor = self.workload.build(self.state_dir)
        try:
            self._execute_prefix(executor)
        except BaseException:
            self._close_pass(executor)
            raise
        return executor

    def _close_pass(self, executor: Any | None) -> None:
        """Stop the pass's node processes and remove its WAL directory."""
        if executor is None:
            return
        self.node_rss_mb.append(_child_peak_rss_mb())
        executor.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    def _sample(self, pass_executor: Any | None, inp: Input, traced: bool) -> None:
        executor = (
            pass_executor if pass_executor is not None else self.workload.build(None)
        )
        gc.collect()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install(executor)
        try:
            with refloop.Interleaved() as timing:
                report = executor.execute(
                    inp.transactions, seed=inp.seed, arrivals=inp.arrivals
                )
        finally:
            if tracer is not None:
                tracer.uninstall()
        folded = tracer.fold() if tracer is not None else None
        sample = Sample(
            inp.part,
            traced,
            timing.raw_s,
            timing.norm_s,
            timing.references,
            report.ops_executed,
            len(report.committed),
        )
        try:
            sample.problems = self._check(executor, inp, report, sample, folded)
        except Exception:  # a checker crash must fail the sample, loudly
            sample.problems = [traceback.format_exc()]
        self.samples.append(sample)

    def _check(
        self,
        executor: Any,
        inp: Input,
        report: Any,
        sample: Sample,
        folded: dict[str, Any] | None,
    ) -> list[str]:
        """Certify one execution and compare it with the part's first."""
        committed, failed = report.committed, report.failed
        counters = executor.metrics.snapshot()["counters"]
        if inp.arrivals is not None:
            # The admission stage keeps the open loop's commit latencies
            # (ticks); the executor exposes only their p50/p99 per run,
            # which cannot be pooled across parts.
            latencies = list(executor._admission.latencies)
        else:
            latencies = _closed_loop_latencies(report)
        problems = certify.check_partition(
            (t.txn_id for t in inp.transactions), committed, failed
        )
        scheduler = executor.scheduler
        if self.workload.multiversion:
            problems += certify.certify_multiversion(
                committed,
                {item: chain.writers() for item, chain in scheduler.chains().items()},
                scheduler.reads_from(),
                [(op.txn, op.item) for op in report.committed_ops if op.kind.is_write],
                scheduler.mv_read_aborts,
            )
        else:
            problems += certify.certify_single_version(
                report.committed_ops, committed
            )
        digest = certify.outcome_digest(report, latencies, counters["aborts"])
        facts = self.facts.get(inp.part)
        if facts is None:
            facts = self.facts[inp.part] = PartFacts(
                digest,
                len(inp.transactions),
                len(committed),
                len(failed),
                counters["aborts"],
                latencies,
                self._public_counts(executor, counters),
            )
        elif digest != facts.digest:
            problems.append(
                f"part {inp.part}: execution differs from the part's first "
                "(determinism failure)"
            )
        if folded is not None:
            sample.layer_ms = folded["ms"]
            facts.traced.append(sample)
            if facts.traced_counts is None:
                calls, sizes = folded["calls"], folded["bytes"]
                facts.traced_counts = {
                    "admission.pops": calls.get("admission.pop", 0),
                    "transport.messages": calls.get("transport.send", 0),
                    "transport.bytes": sizes.get("transport.codec", 0),
                    "wal.appends": calls.get("wal.append", 0),
                }
        return problems

    def _public_counts(self, executor: Any, counters: dict) -> dict[str, float]:
        """Per-layer counts from the program's public snapshots."""
        stages = executor.stage_snapshot()
        admission = stages["admission"]
        counts = {
            "service.ops_executed": counters["ops_executed"],
            "service.ops_reexecuted": counters["ops_reexecuted"],
            "service.undo_ops": counters["undo_ops"],
            "service.commit_parks": counters["commit_parks"],
            "service.cascade_restarts": counters["cascade_restarts"],
            "admission.max_queue_depth": admission["max_queue_depth"],
            "admission.retries": admission["retries"],
            "commits": counters["commits"],
        }
        parallel = stages.get("parallel")
        if parallel is not None:
            ipc = parallel["ipc"]
            counts.update(
                {
                    "core.process_calls": sum(s["ops"] for s in stages["shards"]),
                    "core.element_visits": parallel["element_visits"],
                    "plane.windows": ipc["windows"],
                    "plane.entries": ipc["entries_shipped"],
                    "plane.sync_rounds": ipc["sync_rounds"],
                    "plane.rows_shipped": ipc["rows_shipped"],
                    "wal.bytes": _wal_bytes(self.state_dir),
                }
            )
            return counts
        snapshot = executor.scheduler.metrics_snapshot()
        sched, gauges = snapshot["counters"], snapshot["gauges"]
        counts.update(
            {
                "core.process_calls": sched["accepted"]
                + sched["ignored"]
                + sched["rejected"],
                "core.set_calls": sched["set_calls"],
                "core.element_visits": gauges["element_visits"],
                "core.cache_hits": gauges["compare_cache_hits"],
                "core.cache_lookups": gauges["compare_cache_hits"]
                + gauges["compare_cache_misses"],
                "core.table_rows": gauges["table_size"],
            }
        )
        for name in ("max_chain_length", "chain_versions_reclaimed", "mv_read_aborts"):
            if name in gauges:
                counts[f"mvcc.{name}"] = gauges[name]
        return counts

    # ------------------------------------------------------------------
    @property
    def failed_samples(self) -> list[Sample]:
        return [s for s in self.samples if s.problems]

    def _first_pass(self) -> list[PartFacts]:
        return [self.facts[part] for part in sorted(self.facts)]

    def deterministic(self) -> dict[str, float]:
        """Metrics fixed by the seed: from the first pass only."""
        parts = self._first_pass()
        latencies = sorted(x for p in parts for x in p.latencies)
        committed = sum(p.committed for p in parts)
        return {
            "commit_latency_p50_ticks": percentile(latencies, 0.50),
            "commit_latency_p99_ticks": percentile(latencies, 0.99),
            "aborts_per_commit": sum(p.aborts for p in parts) / max(committed, 1),
            "committed_share": committed / sum(p.submitted for p in parts),
        }

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        untraced = [s for s in self.samples if not s.traced]
        metrics = {
            "committed_tps": statistics.median(
                s.committed / s.norm_s for s in untraced
            ),
            "us_per_op": statistics.median(
                s.norm_s / s.ops * 1e6 for s in untraced
            ),
        }
        metrics.update(self.deterministic())
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        metrics["setup_s"] = setup_s
        return metrics

    def per_layer(self) -> dict[str, float]:
        parts = self._first_pass()
        totals: dict[str, float] = {}
        for facts in parts:
            values = dict(facts.counts)
            values.update(facts.traced_counts or {})
            for label, metric in SPAN_METRICS.items():
                values[metric] = statistics.median(
                    s.norm_layer_ms.get(label, 0.0) for s in facts.traced
                )
            for key, value in values.items():
                if key in MAX_OVER_PARTS:
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        commits = totals.pop("commits")
        metrics = {name: totals.get(name, 0) for name in PER_LAYER}
        lookups = totals.get("core.cache_lookups", 0)
        metrics["core.compare_cache_hit_ratio"] = (
            totals.get("core.cache_hits", 0) / lookups if lookups else 0.0
        )
        windows = totals.get("plane.windows", 0)
        metrics["plane.ops_per_window"] = (
            totals.get("plane.entries", 0) / windows if windows else 0.0
        )
        commits = max(commits, 1)
        metrics["transport.bytes_per_commit"] = totals.get("transport.bytes", 0) / commits
        metrics["wal.bytes_per_commit"] = totals.get("wal.bytes", 0) / commits
        untraced = [s.norm_s / s.ops for s in self.samples if not s.traced]
        traced = [s.norm_s / s.ops for s in self.samples if s.traced]
        metrics["trace.overhead_ratio"] = statistics.median(
            traced
        ) / statistics.median(untraced)
        return metrics


def _closed_loop_latencies(report: Any) -> list[int]:
    """Performed operations from each committed transaction's first to
    its last entry in ``committed_ops``."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for index, op in enumerate(report.committed_ops):
        first.setdefault(op.txn, index)
        last[op.txn] = index
    return [last[t] - first[t] for t in first if t in report.committed]


def measure_setup(workload: Workload) -> list[dict[str, float]]:
    """Run the set-up probe in ``1 + SETUP_PROBES`` fresh interpreters and
    return all but the first.

    The probes run with one OpenBLAS thread.  The program never calls
    BLAS, but importing numpy otherwise starts a BLAS thread pool whose
    start-up spinning costs 0.06-0.13 s of CPU and, on a 2-core host,
    between nothing and all of that in wall time depending on whether
    the other core is free; it would swamp any change in the program's
    own set-up work."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    probes = []
    for index in range(1 + SETUP_PROBES):
        state_dir = str(STATE / f"probe-{workload.name}-{os.getpid()}-{index}")
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, state_dir],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
            env=env,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{completed.stderr}")
        probes.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return probes[1:]


def _emit(metrics: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: the program's sources are missing ({SRC / 'repro'}); "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    import repro.engine.pipeline  # noqa: F401  (compile bytecode, untimed)

    inputs = [workload.make_input(args.seed, part) for part in range(workload.parts)]
    # Set-up is an end-to-end metric; the traced run does not report it.
    probes = [] if args.trace else measure_setup(workload)
    run = Run(workload, inputs, trace=bool(args.trace))
    try:
        run.measure(args.seconds)
    finally:
        shutil.rmtree(run.state_dir, ignore_errors=True)

    failed = run.failed_samples
    correct = not failed
    for sample in failed[:5]:
        for problem in sample.problems:
            print(f"# FAIL part {sample.part}: {problem}")
    deterministic = run.deterministic()
    detail = {
        "workload": workload.name,
        "lane": workload.lane,
        "seed": args.seed,
        "trace": args.trace,
        "passes": run.passes,
        "parts": workload.parts,
        "reference_nominal_s": refloop.NOMINAL_S,
        "raw_wall_s": [round(s.raw_s, 6) for s in run.samples],
        "normalised_wall_s": [round(s.norm_s, 6) for s in run.samples],
        "reference_mean_s": [
            round(statistics.mean(s.references), 6) for s in run.samples
        ],
        "reference_chunks": [len(s.references) for s in run.samples],
        "traced": [int(s.traced) for s in run.samples],
        "ops": [s.ops for s in run.samples],
        "committed": [s.committed for s in run.samples],
        "sample_parts": [s.part for s in run.samples],
        "setup_cpu_s": [round(p["cpu_s"], 6) for p in probes],
        "setup_wall_s": [round(p["wall_s"], 6) for p in probes],
        "setup_reference_s": [
            round(statistics.mean(p["reference_s"]), 6) for p in probes
        ],
        "deterministic": deterministic,
        "latency_samples": sum(len(f.latencies) for f in run.facts.values()),
        "digests": {str(p): f.digest for p, f in sorted(run.facts.items())},
    }
    if workload.windowed:
        detail["node_peak_rss_mb"] = run.node_rss_mb
    if args.trace:
        detail["not_measured"] = NOT_MEASURED[workload.name]
    print("# detail " + json.dumps(detail, sort_keys=True))
    if args.trace:
        metrics, units = run.per_layer(), PER_LAYER
        OUT.mkdir(exist_ok=True)
        run.tracer.dump(str(OUT / f"spans-{workload.name}.jsonl"))
    else:
        setup_s = statistics.median(p["setup_s"] for p in probes)
        metrics, units = run.end_to_end(setup_s), END_TO_END
    for name, unit in units.items():
        print(f"# {name:<32} {metrics[name]:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(run.samples),
                "failed": len(failed),
                "metrics": _emit(metrics, units),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
