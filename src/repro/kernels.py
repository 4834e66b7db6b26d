"""The simulator's hot-path array kernels.

Six numpy pipelines that the optimized interval path calls by module
attribute (``kernels.mmu_ingest(...)``, so the layer ledger of
``benchmarks/e2e`` can wrap them in place): the MMU's fused batch ingest
into an entry histogram, node-map run-length encoding, span
majority-node resolution, span leaf-entry compaction, the per-node
access/write sums that PCM and the cost model read, and per-region
scoring of a batched scan.  Each is pure integer arithmetic and data
movement (or element-wise float math) and never re-orders a float
reduction, so it is bit-identical to the per-element loop it replaced;
``tests/test_kernels.py`` checks every function against such a loop.

The MMU ingest takes the page table's flag array as an argument and
only indexes it, so it runs unchanged on dense ndarrays and on
:class:`~repro.mm.chunked.ChunkedArray` storage.
"""

from __future__ import annotations

import numpy as np


def mmu_ingest(
    entries: np.ndarray,
    counts: np.ndarray,
    writes: np.ndarray,
    sockets: np.ndarray,
    flags: np.ndarray,
    accessed_bit: int,
    dirty_bit: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fused interval ingest for a strictly-ascending unique page batch.

    ``entries`` are the batch pages' leaf entries, non-decreasing because
    huge mappings are aligned.  Sets the accessed bit of every touched
    entry and the dirty bit of every written one, and returns the
    interval's entry histogram ``(entries, counts, writes, sockets)``:
    the unique entries ascending, their run-summed access and write
    counts, and the socket of each entry's last page.  When every entry
    is distinct the returned arrays are the inputs themselves.
    """
    keep = np.empty(entries.size, dtype=bool)
    keep[0] = True
    np.not_equal(entries[1:], entries[:-1], out=keep[1:])
    idx = np.flatnonzero(keep)
    if idx.size < entries.size:
        sockets = sockets[np.append(idx[1:], entries.size) - 1]
        entries = entries[idx]
        counts = np.add.reduceat(counts, idx)
        writes = np.add.reduceat(writes, idx)
    flags[entries] |= np.uint16(accessed_bit)
    flags[entries[writes > 0]] |= np.uint16(dirty_bit)
    return entries, counts, writes, sockets


def node_rle(node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encoding ``(bounds, values)`` of a node array."""
    change = np.flatnonzero(node[1:] != node[:-1])
    bounds = np.empty(change.size + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = change + 1
    bounds[-1] = node.shape[0]
    values = node[bounds[:-1]].astype(np.int64)
    return bounds, values


def span_majority(
    starts: np.ndarray,
    npages: np.ndarray,
    bounds: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Majority resident node of many spans over a node RLE (-1 unmapped)."""
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = starts + npages
    lo = np.searchsorted(bounds, starts, side="right") - 1
    hi = np.searchsorted(bounds, ends, side="left")  # runs [lo, hi) overlap
    nruns = np.maximum(hi - lo, 0)
    offs = np.concatenate(([0], np.cumsum(nruns)))
    span_id = np.repeat(np.arange(starts.size), nruns)
    ridx = (
        np.arange(int(offs[-1]), dtype=np.int64)
        - np.repeat(offs[:-1], nruns)
        + np.repeat(lo, nruns)
    )
    weights = np.minimum(bounds[ridx + 1], np.repeat(ends, nruns)) - np.maximum(
        bounds[ridx], np.repeat(starts, nruns)
    )
    nodes = values[ridx]
    mapped = (nodes >= 0) & (weights > 0)
    result = np.full(starts.size, -1, dtype=np.int64)
    if not np.any(mapped):
        return result
    n_nodes = int(nodes[mapped].max()) + 1
    counts = np.bincount(
        span_id[mapped] * n_nodes + nodes[mapped],
        weights=weights[mapped],
        minlength=starts.size * n_nodes,
    ).reshape(starts.size, n_nodes)
    has_mapped = counts.sum(axis=1) > 0
    result[has_mapped] = np.argmax(counts[has_mapped], axis=1)
    return result


def span_entries(
    starts: np.ndarray,
    npages: np.ndarray,
    delta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique leaf entries of many spans over a dense entry-delta map.

    Page ``p``'s leaf entry is ``p + delta[p]``.  Returns ``(entries,
    offsets)``; span ``i``'s entries are ``entries[offsets[i]:offsets[i+1]]``,
    ascending (entries are non-decreasing within a span because huge
    mappings are aligned).
    """
    if starts.size == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(npages)))
    total = int(bounds[-1])
    span_id = np.repeat(np.arange(starts.size), npages)
    entries = (
        np.arange(total, dtype=np.int64)
        - np.repeat(bounds[:-1], npages)
        + np.repeat(starts, npages)
    )
    entries += delta[entries]
    first = np.empty(total, dtype=bool)
    first[0] = True
    np.logical_or(
        entries[1:] != entries[:-1], span_id[1:] != span_id[:-1], out=first[1:]
    )
    offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(span_id[first], minlength=starts.size)))
    )
    return entries[first], offsets


def node_accumulate(
    nodes: np.ndarray,
    counts: np.ndarray,
    writes: np.ndarray,
    n_slots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node access/write sums; slot 0 collects unmapped (-1) pages.

    Slot ``node + 1`` holds node's totals.  A batch's pages ascend, so
    they fall in few runs of equal node (placement is contiguous): the
    counts are summed per run, and the runs into the slots, all in
    int64.
    """
    acc = np.zeros(n_slots, dtype=np.int64)
    wr = np.zeros(n_slots, dtype=np.int64)
    if nodes.size:
        bounds, values = node_rle(nodes)
        np.add.at(acc, values + 1, np.add.reduceat(counts, bounds[:-1]))
        np.add.at(wr, values + 1, np.add.reduceat(writes, bounds[:-1]))
    return acc, wr


def score_detected(
    detected: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-region stats of a batched scan's detected counts.

    Region ``i``'s counts are ``detected[offsets[i]:offsets[i+1]]``, and
    every region holds at least one.  Returns ``(totals, mins, maxs,
    argmaxs)`` per region, where ``argmaxs`` indexes ``detected`` at the
    region's first maximum (numpy's tie-break).  ``total / size``
    equals the region's ``mean()`` bit-for-bit: the values are small
    integers, so numpy's float64 accumulation is exact regardless of
    order.
    """
    starts = offsets[:-1]
    maxs = np.maximum.reduceat(detected, starts)
    at_max = detected == np.repeat(maxs, np.diff(offsets))
    first = np.where(at_max, np.arange(detected.size), detected.size)
    return (
        np.add.reduceat(detected, starts),
        np.minimum.reduceat(detected, starts),
        maxs,
        np.minimum.reduceat(first, starts),
    )
