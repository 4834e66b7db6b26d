"""Wire protocol of the sweep service: framing + message vocabulary.

Messages are plain dicts with an ``"op"`` discriminator, pickled
(protocol 5 — cell results are :class:`~repro.sim.engine.SimulationResult`
objects, which already travel pickled through the pool runner) and
framed with a 4-byte big-endian length prefix.  Framing failures raise
:class:`~repro.errors.ProtocolError`; a clean EOF between frames returns
``None`` so connection loops can distinguish "peer hung up" from "peer
sent garbage".

Ops (requests are answered with exactly one reply per request):

=================  ==========================================================
``hello``          ``{op, role: "worker"|"client", worker_id?, pid?,
                   codecs?}`` — ``codecs`` offers frame codecs; the reply's
                   ``codec`` picks one (both sides switch *after* hello)
``claim``          worker asks for a cell lease -> ``lease`` or ``idle``;
                   carries ``warm_keys``/``warm_stats`` advertisements
``heartbeat``      ``{op, worker_id, lease_id, warm_keys?}``
                   -> ``ok``/``error``
``result``         ``{op, worker_id, lease_id, payload}`` -> ``ok``/``error``
``nack``           ``{op, worker_id, lease_id, message, transient}`` -> ``ok``
``submit``         ``{op, spec: JobSpec}`` -> ``ok {job_id}``
``status``         ``{op, job_id}`` -> ``job {state, ...}``
``fetch``          ``{op, job_id}`` -> ``ok {result: MatrixResult}``/``error``
``ping``           liveness probe -> ``ok {stats}``
``fleet``          fleet snapshot -> ``ok {fleet}`` (fleet dashboard)
``shutdown``       ``{op, drain: bool}`` -> ``ok`` (then the server exits)
=================  ==========================================================

Replies: ``ok``, ``lease {lease_id, job_id, workload, solution, spec,
attempt, deadline}``, ``idle {retry_after}``, ``job {...}``,
``error {message, transient}``.

Trust boundary
--------------

Frames are *pickle*, which means a peer that can speak the protocol can
execute arbitrary code in the receiver — the wire format is only safe
between mutually-trusting processes.  The boundary is enforced in
layers:

* **unix sockets** (the default for ``repro serve``) confine peers to
  local users who can open the socket path — filesystem permissions are
  the access control;
* **loopback TCP** confines peers to the local machine;
* **non-loopback TCP** (remote fleets) additionally requires a shared
  secret: every frame carries an HMAC-SHA256 of its payload, verified
  with :func:`hmac.compare_digest` *before* any unpickling, so a peer
  that does not hold the secret cannot get bytes into ``pickle.loads``.
  The scheduler refuses to bind plaintext TCP on a non-loopback address
  (see ``repro serve --secret-file`` / ``REPRO_SERVICE_SECRET``).

Both ends must agree on whether (and which) secret is in use — the MAC
rides inside the length-framed body, so any mismatch surfaces as a
:class:`ProtocolError` on the first frame, never as decoded data and
never as a stalled read.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import socket
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.bench.scaling import BenchProfile
from repro.errors import ConfigError, FrameTooLarge, ProtocolError

try:  # optional accelerator; the stdlib zlib codec is always available
    import zstandard as _zstd
except ImportError:  # pragma: no cover - depends on the environment
    _zstd = None

#: Bump when a message shape changes; ``hello`` carries it both ways.
PROTOCOL_VERSION = 1

#: Upper bound on one frame (a pickled MatrixResult of a large job is
#: megabytes; a corrupted length prefix would otherwise ask for GiB).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Environment variable ``resolve_secret`` falls back to.
SECRET_ENV = "REPRO_SERVICE_SECRET"

#: Payloads smaller than this ship raw even on a compressed connection
#: (compressing a 200-byte heartbeat costs more than it saves).
COMPRESS_MIN_BYTES = 1024

_LEN = struct.Struct("!I")
_MAC_BYTES = 32  # HMAC-SHA256 digest size

# One flag byte precedes the payload on codec-negotiated connections so
# each frame can individually opt out of compression (tiny or
# incompressible payloads ship raw under the same negotiated codec).
_FLAG_RAW = b"\x00"
_FLAG_COMPRESSED = b"\x01"

#: Codec preference order (first mutually-supported entry wins the
#: negotiation).  ``zstd`` is gated on the optional ``zstandard``
#: module; ``zlib`` is stdlib and always available.
FRAME_CODECS: tuple[str, ...] = (
    ("zstd", "zlib") if _zstd is not None else ("zlib",)
)


def supported_codecs() -> tuple[str, ...]:
    """Frame codecs this process can encode/decode, best first."""
    return FRAME_CODECS


def negotiate_codec(offered) -> str | None:
    """Pick the frame codec for one connection (server side of hello).

    ``offered`` is the peer's ``codecs`` list from its hello; the reply
    carries the chosen name (or ``None`` for raw frames).  Both sides
    switch codecs only *after* the hello exchange, so the handshake
    itself is always plain frames.
    """
    if not offered:
        return None
    for name in FRAME_CODECS:
        if name in offered:
            return name
    return None


def _compress(codec: str, data: bytes) -> bytes:
    if codec == "zstd" and _zstd is not None:
        return _zstd.ZstdCompressor(level=3).compress(data)
    if codec == "zlib":
        return zlib.compress(data, 6)
    raise ProtocolError(f"unknown frame codec {codec!r}")


def _decompress(codec: str, data: bytes) -> bytes:
    """Inflate one frame body, bounded by ``MAX_FRAME_BYTES``.

    The bound defuses decompression bombs: a hostile (or corrupt) frame
    cannot expand past the same limit that applies to raw frames.
    """
    if codec == "zstd" and _zstd is not None:
        try:
            return _zstd.ZstdDecompressor().decompress(
                data, max_output_size=MAX_FRAME_BYTES
            )
        except _zstd.ZstdError as exc:
            raise ProtocolError(f"bad zstd frame: {exc}") from exc
    if codec == "zlib":
        obj = zlib.decompressobj()
        try:
            out = obj.decompress(data, MAX_FRAME_BYTES)
        except zlib.error as exc:
            raise ProtocolError(f"bad zlib frame: {exc}") from exc
        if obj.unconsumed_tail:
            raise ProtocolError(
                "decompressed frame exceeds MAX_FRAME_BYTES"
            )
        return out
    raise ProtocolError(f"unknown frame codec {codec!r}")


def _frame_mac(secret: bytes, payload: bytes) -> bytes:
    return hmac.new(secret, payload, hashlib.sha256).digest()


def resolve_secret(secret_file: str | None = None) -> bytes | None:
    """Load the shared frame secret: explicit file > env var > None.

    A secret file holds arbitrary bytes (trailing whitespace stripped,
    so ``openssl rand -hex 32 > secret`` works); the ``REPRO_SERVICE_SECRET``
    environment variable is the file-less fallback for CI fleets.
    """
    if secret_file:
        try:
            data = open(secret_file, "rb").read().strip()
        except OSError as exc:
            raise ConfigError(f"cannot read secret file {secret_file}: {exc}")
        if not data:
            raise ConfigError(f"secret file {secret_file} is empty")
        return data
    env = os.environ.get(SECRET_ENV)
    if env:
        return env.encode("utf-8")
    return None


@dataclass(frozen=True)
class SweepSpec:
    """Shared-warmup sweep layered onto a job: one solution, N variants.

    Every variant runs the *same* engine through the same
    ``warmup_intervals`` prefix, then diverges when ``apply`` sets the
    variant's knobs — exactly the :func:`repro.bench.runner.run_sweep`
    discipline, lifted into the service so a warm fleet can fork the
    shared prefix from a snapshot instead of re-simulating it per cell.

    Attributes:
        solution: the engine solution every variant runs (e.g. "mtm").
        apply: importable ``"module:function"`` path of the knob setter
            ``apply(engine, params)`` invoked at the branch point.  It
            must be importable by *workers* (inside ``repro.*``), not a
            script-local closure.
        warmup_intervals: length of the shared prefix (>= 1 and strictly
            less than every workload's total interval count).
        variants: mapping (or pair sequence) of variant label ->
            parameter dict; canonicalized to sorted tuples so the spec
            stays hashable and its fingerprint is order-independent.
    """

    solution: str
    apply: str
    warmup_intervals: int
    variants: tuple[tuple[str, tuple[tuple[str, float], ...]], ...] = field(
        default=()
    )

    def __post_init__(self) -> None:
        if ":" not in self.apply:
            raise ConfigError(
                f"sweep apply {self.apply!r} must be 'module:function'"
            )
        if self.warmup_intervals < 1:
            raise ConfigError("sweep warmup_intervals must be >= 1")
        pairs = (
            self.variants.items()
            if isinstance(self.variants, Mapping)
            else self.variants
        )
        canonical = []
        seen: set[str] = set()
        for label, params in pairs:
            label = str(label)
            if label in seen:
                raise ConfigError(f"duplicate sweep variant {label!r}")
            seen.add(label)
            items = params.items() if isinstance(params, Mapping) else params
            canonical.append(
                (label, tuple(sorted((str(k), v) for k, v in items)))
            )
        if not canonical:
            raise ConfigError("sweep needs at least one variant")
        object.__setattr__(self, "variants", tuple(canonical))

    @property
    def labels(self) -> tuple[str, ...]:
        """Variant labels, in submission order (the job's 'solutions')."""
        return tuple(label for label, _ in self.variants)

    def params_for(self, label: str) -> dict:
        """The parameter dict of one variant."""
        for name, items in self.variants:
            if name == label:
                return dict(items)
        raise ConfigError(f"unknown sweep variant {label!r}")

    def resolve_apply(self) -> Callable:
        """Import and return the ``apply(engine, params)`` callable."""
        import importlib

        module_name, _, func_name = self.apply.partition(":")
        try:
            module = importlib.import_module(module_name)
            func = getattr(module, func_name)
        except (ImportError, AttributeError) as exc:
            raise ConfigError(
                f"cannot resolve sweep apply {self.apply!r}: {exc}"
            ) from exc
        if not callable(func):
            raise ConfigError(f"sweep apply {self.apply!r} is not callable")
        return func


@dataclass(frozen=True)
class JobSpec:
    """Picklable description of one workload x solution matrix job.

    The spec is the *entire* input of every cell: cell execution is a
    deterministic function of ``(spec, workload, solution)``, which is
    what makes crash-requeue and cache dedup result-preserving.

    Attributes:
        workloads: workload names (rows of the matrix).
        solutions: solution names (columns); ``baseline`` must be one.
        profile: bench sizing profile (scale, seeds, interval defaults).
        intervals: fixed interval count, or ``None`` for the profile's
            per-workload defaults.
        baseline: normalization column for the assembled MatrixResult.
        fault_rate / fault_seed: in-process fault injection per cell.
        recovery: planner retry/backoff on (False = fail-fast).
        tag: free-form label for humans (journal, status output).
        sweep: shared-warmup sweep description, or ``None`` for a plain
            matrix.  With a sweep, the "solutions" axis becomes the
            sweep's variant labels (auto-filled when left empty) and
            every cell runs ``sweep.solution`` with that variant's
            parameters applied after the shared warmup.
    """

    workloads: tuple[str, ...]
    solutions: tuple[str, ...]
    profile: BenchProfile
    intervals: int | None = None
    baseline: str = "first-touch"
    fault_rate: float = 0.0
    fault_seed: int = 0
    recovery: bool = True
    tag: str = ""
    sweep: SweepSpec | None = None

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ConfigError("JobSpec needs at least one workload")
        if self.sweep is not None:
            labels = self.sweep.labels
            if not self.solutions:
                object.__setattr__(self, "solutions", labels)
            elif tuple(self.solutions) != labels:
                raise ConfigError(
                    "sweep jobs derive their solutions from the variant "
                    "labels; leave solutions empty"
                )
            if self.baseline not in labels:
                # The matrix default ("first-touch") is a solution name,
                # not a variant label; normalize to the first variant.
                object.__setattr__(self, "baseline", labels[0])
            for workload in self.workloads:
                total = (
                    self.intervals
                    if self.intervals is not None
                    else self.profile.intervals_for(workload)
                )
                if self.sweep.warmup_intervals >= total:
                    raise ConfigError(
                        f"sweep warmup_intervals "
                        f"{self.sweep.warmup_intervals} must be < "
                        f"{total} total intervals for {workload!r}"
                    )
        if not self.solutions:
            raise ConfigError("JobSpec needs at least one solution")
        if self.baseline not in self.solutions:
            raise ConfigError(
                f"baseline {self.baseline!r} must be one of the solutions"
            )
        # Tuples keep the spec hashable and defeat accidental mutation;
        # accept lists from callers.
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "solutions", tuple(self.solutions))

    @property
    def cells(self) -> list[tuple[str, str]]:
        """Every (workload, solution) cell, in matrix order."""
        return [(w, s) for w in self.workloads for s in self.solutions]


@dataclass
class Envelope:
    """One decoded message plus the connection it arrived on."""

    message: dict
    conn: "Connection"


def encode_frame(message: dict, secret: bytes | None = None,
                 codec: str | None = None) -> tuple[bytes, int]:
    """Encode one message into a wire frame; returns (frame, payload_len).

    Raises :class:`FrameTooLarge` *before* producing anything the caller
    could put on the wire, so an oversized message never tears the
    stream — the sender can report it in-band instead.
    """
    payload = pickle.dumps(message, protocol=5)
    data = payload
    if codec is not None:
        flag = _FLAG_RAW
        if len(payload) >= COMPRESS_MIN_BYTES:
            compressed = _compress(codec, payload)
            if len(compressed) < len(payload):
                flag, data = _FLAG_COMPRESSED, compressed
        data = flag + data
    if len(data) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES",
            frame_bytes=len(data),
        )
    body = data if secret is None else _frame_mac(secret, data) + data
    return _LEN.pack(len(body)) + body, len(payload)


def send_message(sock: socket.socket, message: dict,
                 secret: bytes | None = None,
                 codec: str | None = None) -> int:
    """Frame and send one message (length prefix + [MAC +] [flag +] pickle).

    With ``secret``, the MAC travels *inside* the length-framed body,
    so peers that disagree about whether a secret is in use still agree
    on frame boundaries — the mismatch fails fast as a
    :class:`ProtocolError` instead of a stalled read.  With ``codec``
    (negotiated via hello), the body carries a flag byte plus the
    possibly-compressed payload, and the MAC covers the *compressed*
    bytes — verification stays ahead of decompression and unpickling.
    Returns the number of bytes put on the wire.
    """
    frame, _ = encode_frame(message, secret=secret, codec=codec)
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message_sized(sock: socket.socket,
                       secret: bytes | None = None,
                       codec: str | None = None) -> tuple[dict | None, int]:
    """Receive one framed message; returns (message, wire_bytes).

    ``(None, 0)`` on clean EOF.  With ``secret``, the frame's MAC is
    verified *before* the body reaches decompression or
    ``pickle.loads`` — an unauthenticated peer gets a
    :class:`ProtocolError`, never code execution.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None, 0
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES + _MAC_BYTES:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and payload")
    wire = _LEN.size + length
    if secret is not None:
        if length < _MAC_BYTES:
            raise ProtocolError(
                "frame too short to carry a MAC (unauthenticated peer?)"
            )
        mac, payload = body[:_MAC_BYTES], body[_MAC_BYTES:]
        if not hmac.compare_digest(mac, _frame_mac(secret, payload)):
            raise ProtocolError(
                "frame MAC mismatch (peer holds a different shared secret)"
            )
    else:
        payload = body
    if codec is not None:
        if not payload:
            raise ProtocolError("empty frame on a codec connection")
        flag, payload = payload[:1], payload[1:]
        if flag == _FLAG_COMPRESSED:
            payload = _decompress(codec, payload)
        elif flag != _FLAG_RAW:
            raise ProtocolError(f"unknown frame flag {flag!r}")
    try:
        message = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "op" not in message:
        raise ProtocolError(f"message must be a dict with an 'op', got "
                            f"{type(message).__name__}")
    return message, wire


def recv_message(sock: socket.socket,
                 secret: bytes | None = None,
                 codec: str | None = None) -> dict | None:
    """Receive one framed message; ``None`` on clean EOF."""
    message, _ = recv_message_sized(sock, secret=secret, codec=codec)
    return message


class Connection:
    """One request/response channel over a stream socket.

    Thin, lock-guarded wrapper so a single connection can be shared by
    callers that promise request/response discipline (the worker keeps a
    *separate* connection for heartbeats instead of interleaving).
    """

    def __init__(self, sock: socket.socket,
                 secret: bytes | None = None,
                 codec: str | None = None) -> None:
        import threading

        self.sock = sock
        self.secret = secret
        #: Negotiated frame codec; flipped after the hello exchange
        #: (the handshake itself always travels as plain frames).
        self.codec = codec
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self._lock = threading.Lock()

    def request(self, message: dict) -> dict:
        """Send one message and wait for its reply."""
        with self._lock:
            self._send_locked(message)
            reply = self._recv_locked()
        if reply is None:
            raise ProtocolError("peer closed the connection before replying")
        return reply

    def send(self, message: dict) -> None:
        with self._lock:
            self._send_locked(message)

    def recv(self) -> dict | None:
        return self._recv_locked()

    def _send_locked(self, message: dict) -> None:
        n = send_message(self.sock, message, secret=self.secret,
                         codec=self.codec)
        self.bytes_sent += n
        self.frames_sent += 1

    def _recv_locked(self) -> dict | None:
        message, wire = recv_message_sized(self.sock, secret=self.secret,
                                           codec=self.codec)
        if message is not None:
            self.bytes_received += wire
            self.frames_received += 1
        return message

    def wire_stats(self) -> dict:
        """Cumulative bytes/frames this connection moved (both ways)."""
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
        }

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def parse_address(address: str) -> tuple[str, object]:
    """Parse a service address into ``("unix", path)`` or ``("tcp", (host, port))``.

    Accepted forms: ``unix:/path/to.sock``, a bare path containing ``/``,
    ``host:port``, or ``:port`` (binds/connects on 127.0.0.1).
    """
    if not address:
        raise ConfigError("empty service address")
    if address.startswith("unix:"):
        return ("unix", address[len("unix:"):])
    if "/" in address or os.sep in address:
        return ("unix", address)
    host, _, port = address.rpartition(":")
    if not port.isdigit():
        raise ConfigError(
            f"service address must be unix:PATH, PATH, or HOST:PORT, got {address!r}"
        )
    return ("tcp", (host or "127.0.0.1", int(port)))


def connect(address: str, timeout: float = 5.0,
            secret: bytes | None = None) -> Connection:
    """Open a client/worker connection to a scheduler at ``address``
    (any form :func:`parse_address` accepts)."""
    family, target = parse_address(address)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(target)
    sock.settimeout(None)
    return Connection(sock, secret=secret)


def reply_error(message: str, transient: bool = False) -> dict:
    return {"op": "error", "message": message, "transient": transient}


def reply_ok(**fields) -> dict:
    return {"op": "ok", **fields}


__all__ = [
    "COMPRESS_MIN_BYTES",
    "Connection",
    "Envelope",
    "FRAME_CODECS",
    "JobSpec",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "SECRET_ENV",
    "SweepSpec",
    "connect",
    "encode_frame",
    "negotiate_codec",
    "parse_address",
    "recv_message",
    "recv_message_sized",
    "reply_error",
    "reply_ok",
    "resolve_secret",
    "send_message",
    "supported_codecs",
]
