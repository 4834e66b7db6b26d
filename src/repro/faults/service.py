"""Process-level fault injection for the sweep service.

:mod:`repro.faults.injector` perturbs the *simulated* kernel (EBUSY,
ENOMEM, sample loss) inside one process.  This module scripts the
failure modes a *fleet* has and a process pool cannot survive:

* **worker crash** — SIGKILL a process now, or arm a delayed SIGKILL
  mid-cell (no atexit, no flush, no goodbye — exactly what an
  OOM-killed or preempted worker looks like to the scheduler);
* **cache corruption** — flip one byte inside an on-disk result-cache
  entry, the rot the checksum discipline must catch.

The ``repro worker --chaos-*`` flags and the chaos tests use these
helpers for deterministic scripting; a flip with no explicit offset
draws it from a private seeded generator.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np

from repro.errors import ConfigError


class ServiceFaultInjector:
    """Scripted process-level chaos.

    One injector serves one process (a worker, or a test harness acting
    on others).  Its generator is private, so a seeded flip never
    perturbs simulation RNG streams — the same independence guarantee
    the in-process injector gives.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    # -- worker crash ----------------------------------------------------------

    @staticmethod
    def kill_now(pid: int | None = None) -> None:
        """SIGKILL ``pid`` (default: this process). No cleanup runs."""
        os.kill(pid if pid is not None else os.getpid(), signal.SIGKILL)

    def arm_midcell_kill(self, delay: float) -> threading.Timer:
        """Schedule a SIGKILL of this process ``delay`` seconds from now.

        Returns the timer so a test can cancel it; the worker never
        does — once armed, the crash lands wherever the cell happens to
        be (that unpredictability *is* the point; determinism lives in
        the requeued re-execution, not the crash site).
        """
        timer = threading.Timer(delay, self.kill_now)
        timer.daemon = True
        timer.start()
        return timer

    # -- cache corruption ------------------------------------------------------

    def flip_byte(self, path, offset: int | None = None) -> int:
        """XOR one payload byte of the file at ``path``; returns offset.

        The flip lands past the header (magic + digest) when the file is
        long enough, so it corrupts *data* the checksum must catch, not
        the magic the reader rejects trivially.
        """
        from repro.service.cache import MAGIC, _DIGEST_BYTES

        size = os.path.getsize(path)
        if size == 0:
            raise ConfigError(f"cannot flip a byte of empty file {path}")
        if offset is None:
            header = len(MAGIC) + _DIGEST_BYTES
            lo = header if size > header + 1 else 0
            offset = int(self.rng.integers(lo, size))
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        return offset


__all__ = ["ServiceFaultInjector"]
