"""Linear-time certification of one execution's output.

Every sample is certified at the size it ran, in time linear in the
operations it performed (in the spirit of Mathur & Viswanathan,
"Atomicity Checking in Linear Time using Vector Clocks"):

* single-version runs: the committed projection's conflict graph is
  acyclic.  Edges join only *adjacent* conflicting accesses per item
  (last writer -> reader, readers since the last write and the last
  writer -> next writer); every other conflict edge follows by
  transitivity, so acyclicity is unchanged and the graph stays O(ops).
* multiversion runs: the multiversion serialisation graph is acyclic
  under the version order the chains record.  Consecutive committed
  versions are joined writer -> writer, and a read of version ``p``
  gives ``writer(p) -> reader -> writer(p+1)``; the Bernstein-Goodman
  edges for every other version follow by transitivity.
* every run: committed and failed partition the submitted transactions.

Failures are returned as messages, never raised, so a run can report
``correct: false`` with the reason.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence


def has_cycle(edges: Mapping[int, set[int]]) -> bool:
    """Kahn's algorithm over ``{node: successors}``; O(nodes + edges)."""
    indegree: dict[int, int] = {}
    for source, targets in edges.items():
        indegree.setdefault(source, 0)
        for target in targets:
            indegree[target] = indegree.get(target, 0) + 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for target in edges.get(node, ()):
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return seen != len(indegree)


def _edge(edges: dict[int, set[int]], source: int, target: int) -> None:
    if source != target:
        edges.setdefault(source, set()).add(target)


def conflict_graph(ops: Iterable, committed: set[int]) -> dict[int, set[int]]:
    """Adjacent-access conflict graph of the committed projection of
    *ops* (objects with ``txn``, ``item`` and ``kind.is_read``)."""
    edges: dict[int, set[int]] = {}
    last_writer: dict[str, int] = {}
    readers: dict[str, set[int]] = {}
    for op in ops:
        txn = op.txn
        if txn not in committed:
            continue
        item = op.item
        writer = last_writer.get(item)
        if op.kind.is_read:
            if writer is not None:
                _edge(edges, writer, txn)
            readers.setdefault(item, set()).add(txn)
            continue
        if writer is not None:
            _edge(edges, writer, txn)
        for reader in readers.pop(item, ()):
            _edge(edges, reader, txn)
        last_writer[item] = txn
    return edges


def mvsg(
    committed: set[int],
    chains: Mapping[str, Sequence[int]],
    reads: Iterable[tuple[int, str, int]],
    virtual: int = 0,
) -> tuple[dict[int, set[int]], list[str]]:
    """Reduced multiversion serialisation graph plus the problems found
    while building it (a read of a version that is not a committed
    version of its item's chain).

    *chains* maps an item to its version writers oldest first (the
    initial version's writer is *virtual*); *reads* are ``(reader,
    item, source writer)`` triples."""
    edges: dict[int, set[int]] = {}
    problems: list[str] = []
    order: dict[str, dict[int, int]] = {}
    kept: dict[str, list[int]] = {}
    for item, writers in chains.items():
        versions = [w for w in writers if w == virtual or w in committed]
        # A writer that installed twice keeps one position: its last.
        deduped: list[int] = []
        for writer in versions:
            if deduped and deduped[-1] == writer:
                continue
            deduped.append(writer)
        kept[item] = deduped
        order[item] = {writer: index for index, writer in enumerate(deduped)}
        for earlier, later in zip(deduped, deduped[1:]):
            _edge(edges, earlier, later)
    for reader, item, source in reads:
        if reader not in committed:
            continue
        position = order.get(item, {}).get(source)
        if position is None:
            problems.append(
                f"T{reader} read {item} from T{source}, which is not a "
                "committed version of its chain"
            )
            continue
        _edge(edges, source, reader)
        versions = kept[item]
        if position + 1 < len(versions):
            _edge(edges, reader, versions[position + 1])
    return edges, problems


def check_partition(
    submitted: Iterable[int], committed: set[int], failed: set[int]
) -> list[str]:
    """Committed and failed must partition the submitted transactions."""
    submitted = set(submitted)
    problems = []
    if committed & failed:
        problems.append(f"{len(committed & failed)} txns both committed and failed")
    missing = submitted - committed - failed
    if missing:
        problems.append(f"{len(missing)} submitted txns neither committed nor failed")
    extra = (committed | failed) - submitted
    if extra:
        problems.append(f"{len(extra)} outcomes for txns never submitted")
    return problems


def certify_single_version(ops: Iterable, committed: set[int]) -> list[str]:
    if has_cycle(conflict_graph(ops, committed)):
        return ["committed projection has a conflict cycle (not DSR)"]
    return []


def certify_multiversion(
    committed: set[int],
    chains: Mapping[str, Sequence[int]],
    reads: Iterable[tuple[int, str, int]],
    written: Iterable[tuple[int, str]],
    mv_read_aborts: int,
) -> list[str]:
    """MVSG acyclicity under the chains' version order, every committed
    write present in its item's chain, and ``mv_read_aborts == 0``."""
    problems = []
    if mv_read_aborts:
        problems.append(f"mv_read_aborts = {mv_read_aborts}, must be 0")
    for txn, item in written:
        if txn in committed and txn not in chains.get(item, ()):
            problems.append(f"committed write of {item} by T{txn} has no version")
            break
    edges, found = mvsg(committed, chains, reads)
    problems += found
    if has_cycle(edges):
        problems.append("multiversion serialisation graph has a cycle")
    return problems


def outcome_digest(report, latencies: Sequence[int], aborts: int) -> str:
    """Digest of everything an execution decided; repeated executions of
    one input must reproduce it exactly."""
    digest = hashlib.blake2b(digest_size=16)
    for part in (
        sorted(report.committed),
        sorted(report.failed),
        (
            report.restarts,
            report.ops_executed,
            report.ops_reexecuted,
            report.ignored_writes,
            report.undo_count,
            aborts,
        ),
        list(latencies),
    ):
        digest.update(repr(part).encode())
    digest.update(" ".join(map(str, report.committed_ops)).encode())
    return digest.hexdigest()
