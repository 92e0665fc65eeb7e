"""The benchmark's own tests.

Run from the repository root: ``python3 -m pytest steadybench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path

import certify
import pytest
import refloop
import run
import workloads
from tracing import ROOT, Tracer

REPO = Path(__file__).resolve().parents[2]


class _Op:
    def __init__(self, text: str) -> None:
        kind, rest = text[0], text[1:]
        txn, item = rest.rstrip("]").split("[")
        self.txn, self.item = int(txn), item
        self.kind = type("Kind", (), {"is_read": kind == "R", "is_write": kind == "W"})


def _ops(log: str) -> list[_Op]:
    return [_Op(token) for token in log.split()]


def _accept_everything_build(state_dir=None):
    """zipf_long's program with a scheduler that never rejects."""
    from repro.core.mtk import MTkScheduler
    from repro.core.protocol import Decision, DecisionStatus

    class AcceptEverything(MTkScheduler):
        def _process(self, op):
            return Decision(DecisionStatus.ACCEPT, op)

    executor = workloads._build_zipf_long()
    executor.scheduler = AcceptEverything(3)
    return executor


# ----------------------------------------------------------------------
def test_normalisation_is_identity_at_nominal_speed():
    nominal = refloop.NOMINAL_S
    allocation = refloop.ALLOCATION_NOMINAL_S
    for raw in (0.001, 0.5, 3.25):
        assert refloop.normalise(raw, [nominal] * 4) == pytest.approx(raw)
        assert refloop.normalise(
            raw, [allocation] * 6, allocation
        ) == pytest.approx(raw)
    # A host running the loop at half speed halves the normalised time.
    assert refloop.normalise(1.0, [2 * nominal]) == pytest.approx(0.5)
    assert refloop.normalise(1.0, [nominal, 3 * nominal]) == pytest.approx(0.5)


def test_reference_chunks_interleave_and_are_left_out_of_the_time():
    start = time.perf_counter()
    with refloop.Interleaved() as timing:
        deadline = time.perf_counter() + 0.25
        while time.perf_counter() < deadline:
            pass
    wall = time.perf_counter() - start
    inside = timing.references[1:-1]
    # One chunk before, one after, and one per interval in between.
    assert len(inside) >= int(0.25 / refloop.INTERVAL_S) - 1
    assert timing.raw_s == pytest.approx(
        wall - sum(timing.references), abs=0.002
    )
    assert timing.norm_s == refloop.normalise(timing.raw_s, timing.references)
    # The handler is uninstalled: no chunk runs after the block.
    count = len(timing.references)
    time.sleep(2 * refloop.INTERVAL_S)
    assert len(timing.references) == count


def test_conflict_cycle_is_found_and_serial_log_passes():
    cyclic = _ops("W1[x] W2[x] W2[y] W1[y]")
    assert certify.certify_single_version(cyclic, {1, 2})
    serial = _ops("R1[x] W1[x] R2[x] W2[y] R3[y] W3[x]")
    assert certify.certify_single_version(serial, {1, 2, 3}) == []
    # Only the committed projection counts: drop T2 and the cycle goes.
    assert certify.certify_single_version(cyclic, {1}) == []


def test_adjacent_edges_reach_every_conflict():
    # R1[x] conflicts with W3[x] through the intermediate W2[x] only;
    # W3[y] R1[y] closes the cycle T1 -> T2 -> T3 -> T1.
    log = _ops("R1[x] W2[x] W3[x] W3[y] R1[y]")
    assert certify.certify_single_version(log, {1, 2, 3})


def test_write_skew_fails_mvsg():
    # T1 reads x0 then writes y; T2 reads y0 then writes x: each must
    # precede the other's version, so no serial order exists.
    chains = {"x": [0, 2], "y": [0, 1]}
    reads = [(1, "x", 0), (2, "y", 0)]
    written = [(1, "y"), (2, "x")]
    problems = certify.certify_multiversion({1, 2}, chains, reads, written, 0)
    assert "multiversion serialisation graph has a cycle" in problems
    ok = certify.certify_multiversion(
        {1, 2}, chains, [(1, "x", 0), (2, "y", 1)], written, 0
    )
    assert ok == []


def test_multiversion_gates():
    chains = {"x": [0, 1]}
    assert certify.certify_multiversion({1}, chains, [], [(1, "x")], 1)
    assert certify.certify_multiversion({1}, chains, [(1, "x", 7)], [], 0)
    assert certify.certify_multiversion({1}, {"x": [0]}, [], [(1, "x")], 0)


def test_partition_check():
    assert certify.check_partition([1, 2, 3], {1, 2}, {3}) == []
    assert certify.check_partition([1, 2, 3], {1, 2}, set())
    assert certify.check_partition([1, 2], {1, 2}, {2})
    assert certify.check_partition([1], {1, 5}, set())


def test_sabotaged_scheduler_fails_certification():
    workload = workloads.WORKLOADS["zipf_long"]
    transactions, arrivals = workload.generate(1)
    executor = _accept_everything_build()
    report = executor.execute(transactions[:2000], seed=1, arrivals=arrivals)
    assert certify.certify_single_version(report.committed_ops, report.committed)


def test_sabotaged_run_reports_incorrect_and_exits_nonzero(monkeypatch, capsys):
    small = dataclasses.replace(
        workloads.WORKLOADS["zipf_long"],
        parts=1,
        generate=workloads._zipf(1500),
        build=_accept_everything_build,
    )
    monkeypatch.setitem(run.WORKLOADS, "zipf_long", small)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "zipf_long", "--seed", "3", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] >= 1 and last["attempted"] >= last["failed"]


def test_self_time_plus_children_equals_execute():
    workload = workloads.WORKLOADS["zipf_long"]
    transactions, arrivals = workloads._zipf(300)(5)
    executor = workload.build(None)
    tracer = Tracer()
    tracer.install(executor)
    try:
        executor.execute(transactions, seed=5, arrivals=arrivals)
    finally:
        tracer.uninstall()
    folded = tracer.fold()
    ms = folded["ms"]
    assert ms[ROOT] > 0
    assert ms["service.self"] + sum(folded["children_ms"].values()) == pytest.approx(
        ms[ROOT], abs=1e-9
    )
    assert ms["service.self"] > 0
    for label in ("admission.pop", "core.accept", "storage.apply"):
        assert folded["children_ms"][label] > 0
    # Uninstalled: the program's classes are back to their own methods.
    from repro.engine.pipeline.admission import AdmissionQueue

    assert not hasattr(AdmissionQueue.pop, "__wrapped__")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    meta = json.loads((REPO / "steadybench" / "meta.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name not in meta["excluded_workloads"]
    ]
    assert set(meta["deterministic_end_to_end"]) <= set(run.END_TO_END)
    assert set(meta["per_layer"]) == set(run.PER_LAYER)
    for entry in meta["per_layer"].values():
        for metric, names in entry["moves"].items():
            assert metric in run.END_TO_END
            assert set(names) <= set(workloads.WORKLOADS)


def test_inputs_are_a_function_of_seed_and_part():
    workload = workloads.WORKLOADS["batch_mvmt"]
    first = workload.make_input(7, 2)
    again = workload.make_input(7, 2)
    other = workload.make_input(7, 3)

    def render(inp):
        return [str(op) for t in inp.transactions for op in t.operations]

    assert render(first) == render(again)
    assert render(first) != render(other)
    assert random.Random(first.seed).random() == random.Random(again.seed).random()
