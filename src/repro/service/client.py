"""The ``repro submit`` client: hand a sweep to the service, await bits.

Clients are the deliberately dumb end of the service: submit a
:class:`~repro.service.protocol.JobSpec`, poll status with jittered
backoff (surviving scheduler restarts — a resumed scheduler keeps job
ids, so re-polling after a reconnect just works), and fetch the
assembled :class:`~repro.bench.runner.MatrixResult` when the job lands.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING

from repro.errors import ProtocolError, ServiceError
from repro.service.protocol import Connection, JobSpec, connect, supported_codecs
from repro.service.worker import jittered_backoff

if TYPE_CHECKING:
    from repro.bench.runner import MatrixResult


class ServiceClient:
    """One client connection, self-healing across scheduler bounces.

    With ``compress`` (default) the client offers its frame codecs in a
    hello so fetched matrices travel compressed — the biggest frames in
    the protocol by far.
    """

    def __init__(self, address: str, connect_timeout: float = 30.0,
                 reconnect_base: float = 0.25,
                 reconnect_cap: float = 5.0,
                 secret: bytes | None = None,
                 compress: bool = True) -> None:
        self.address = address
        self.secret = secret
        self.connect_timeout = connect_timeout
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
        self.compress = compress
        self._rng = random.Random()
        self._conn: Connection | None = None

    def _connect(self) -> Connection:
        conn = connect(self.address, secret=self.secret)
        if self.compress:
            hello = {"op": "hello", "role": "client",
                     "codecs": list(supported_codecs())}
            try:
                reply = conn.request(hello)
            except Exception:
                conn.close()
                raise
            # Plain until the hello round trip lands; then both sides flip.
            conn.codec = reply.get("codec")
        return conn

    def _request(self, message: dict) -> dict:
        """Request with reconnect-on-failure (jittered capped backoff)."""
        deadline = time.monotonic() + self.connect_timeout
        attempt = 0
        while True:
            try:
                if self._conn is None:
                    self._conn = self._connect()
                return self._conn.request(message)
            except (OSError, ProtocolError):
                if self._conn is not None:
                    self._conn.close()
                    self._conn = None
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"no scheduler reachable at {self.address} within "
                        f"{self.connect_timeout:.0f}s"
                    ) from None
                time.sleep(jittered_backoff(attempt, self.reconnect_base,
                                            self.reconnect_cap, self._rng))
                attempt += 1

    def _checked(self, message: dict) -> dict:
        reply = self._request(message)
        if reply.get("op") == "error":
            raise ServiceError(reply.get("message", "service error"))
        return reply

    # -- operations ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Submit a job; returns its id."""
        return self._checked({"op": "submit", "spec": spec})["job_id"]

    def status(self, job_id: str) -> dict:
        return self._checked({"op": "status", "job_id": job_id})

    def ping(self) -> dict:
        return self._checked({"op": "ping"})["stats"]

    def fleet(self) -> dict:
        """Fleet snapshot (workers, queue, lease latency) — the
        ``repro fleet --connect`` dashboard's feed."""
        return self._checked({"op": "fleet"})["fleet"]

    def fetch(self, job_id: str) -> "MatrixResult":
        return self._checked({"op": "fetch", "job_id": job_id})["result"]

    def wait(self, job_id: str, timeout: float | None = None,
             poll: float = 0.2, on_progress=None) -> dict:
        """Poll until the job is terminal; returns the final status.

        Raises:
            ServiceError: the job failed (dead-lettered cells), or
                ``timeout`` expired first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        last_done = -1
        while True:
            status = self.status(job_id)
            if on_progress is not None and status["cells_done"] != last_done:
                last_done = status["cells_done"]
                on_progress(status)
            if status["state"] == "done":
                return status
            if status["state"] == "failed":
                dead = ", ".join(f"{d['workload']}/{d['solution']}"
                                 for d in status["dead_letters"])
                raise ServiceError(f"job {job_id} failed; dead letters: {dead}")
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(f"timed out waiting for job {job_id} "
                                   f"({status['cells_done']}/"
                                   f"{status['cells_total']} cells)")
            time.sleep(poll * (0.5 + self._rng.random()))

    def run(self, spec: JobSpec, timeout: float | None = None,
            on_progress=None) -> "MatrixResult":
        """Submit + wait + fetch in one call (the CLI's happy path)."""
        job_id = self.submit(spec)
        self.wait(job_id, timeout=timeout, on_progress=on_progress)
        return self.fetch(job_id)

    def shutdown(self, drain: bool = True) -> None:
        """Ask the scheduler to exit (tests, CI teardown)."""
        self._checked({"op": "shutdown", "drain": drain})

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["ServiceClient"]
