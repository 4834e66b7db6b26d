"""Streaming sinks: where incremental telemetry lines go.

A sink accepts batches of already-encoded NDJSON lines (see
:mod:`repro.obs.stream` for the record schema) and must never raise into
the simulation hot path: a sink that cannot deliver *drops and counts*.
Two implementations:

* :class:`NdjsonFileSink` — append-only file, opened lazily on the first
  flush (so ``--obs-out`` is never created for a run that dies before
  producing telemetry) and flushed every publisher flush, which makes the
  file crash-tolerant: at worst the final line is truncated, and the tail
  readers (:func:`repro.obs.stream.iter_ndjson`) hold a partial line back
  until it completes.
* :class:`RelaySink` — bounded ``multiprocessing`` queue bridge used by
  pool workers to relay their stream to the parent collector during a
  ``run_matrix``/``run_sweep``; a full queue is backpressure, so the
  batch is dropped and counted (surfaced as ``obs.relay_backpressure``).

Every sink exposes ``dropped`` so silent loss is always visible in the
exported metrics.
"""

from __future__ import annotations

import os
from pathlib import Path


class Sink:
    """Protocol for streaming sinks (duck-typed; this base documents it).

    Sinks receive *encoded* NDJSON lines (each ending in ``"\\n"``) in
    batches.  They must be non-throwing: delivery failures increment
    :attr:`dropped` instead of propagating into the simulation.
    """

    #: Lines this sink failed to deliver.
    dropped: int = 0

    def write_lines(self, lines: list[str]) -> None:  # pragma: no cover
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered lines to the backing store (default: no-op)."""

    def close(self) -> None:
        """Release resources (default: no-op)."""


class NdjsonFileSink(Sink):
    """Append-only NDJSON file, lazily created at the first flush.

    Laziness is load-bearing: attaching the sink must not touch the
    filesystem, so a run that fails before its first interval leaves no
    half-made ``--obs-out`` directory behind (and
    :meth:`cleanup_if_empty` removes one this sink *did* create but never
    wrote into).  A path ending in ``.gz`` appends through gzip, so a
    long-running stream can compress at rest; ``iter_ndjson`` reads both
    transparently.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.dropped = 0
        self.lines_written = 0
        self._fh = None
        self._created_dir: Path | None = None

    def write_lines(self, lines: list[str]) -> None:
        """Append a batch, creating the file (and parent dir) on demand.

        Gzip paths append each batch as a *complete* gzip member
        (open/write/close per batch): multi-member files decompress as
        one stream, so a live tail — or a crash — never leaves an
        unterminated member behind, and readers see every flushed batch
        without waiting for the final close.
        """
        if not lines:
            return
        if not self._ensure_dir():
            self.dropped += len(lines)
            return
        if str(self.path).endswith(".gz"):
            import gzip

            try:
                with gzip.open(self.path, "at", encoding="utf-8") as fh:
                    fh.writelines(lines)
                self.lines_written += len(lines)
            except OSError:
                self.dropped += len(lines)
            return
        if self._fh is None:
            try:
                self._fh = open(self.path, "a", encoding="utf-8")
            except OSError:
                self.dropped += len(lines)
                return
        try:
            self._fh.writelines(lines)
            self.lines_written += len(lines)
        except OSError:
            self.dropped += len(lines)

    def _ensure_dir(self) -> bool:
        try:
            parent = self.path.parent
            if not parent.exists():
                parent.mkdir(parents=True, exist_ok=True)
                self._created_dir = parent
        except OSError:
            return False
        return True

    def flush(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
            except OSError:
                pass

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def cleanup_if_empty(self) -> bool:
        """Remove the directory this sink created if nothing was written."""
        if self.lines_written or self._created_dir is None:
            return False
        try:
            os.rmdir(self._created_dir)
        except OSError:
            return False
        self._created_dir = None
        return True


class RelaySink(Sink):
    """Bridges a worker's stream onto a bounded multiprocessing queue.

    The parent collector drains the queue while the pool runs, so a
    pooled matrix is watchable live.  ``put_nowait`` keeps the worker's
    hot path wait-free: a full queue means the parent is not keeping up,
    and the batch is dropped and counted rather than blocking simulation.
    """

    def __init__(self, queue) -> None:
        self.queue = queue
        self.dropped = 0
        self.batches_sent = 0

    def write_lines(self, lines: list[str]) -> None:
        if not lines:
            return
        try:
            self.queue.put_nowait(list(lines))
            self.batches_sent += 1
        except Exception:  # queue.Full, or a closed queue at teardown
            self.dropped += len(lines)


__all__ = [
    "NdjsonFileSink",
    "RelaySink",
    "Sink",
]
