"""Deterministic columnar store for offline observability analytics.

The analytics engine (:mod:`repro.obs.analytics`) folds a run
directory's NDJSON record into numpy column arrays and persists them
here as a versioned ``.npz``-style bundle (``analytics.npz``): a plain
zip whose members are one ``.npy`` file per column plus a
``manifest.json`` describing tables, dtypes, dictionaries, and run
metadata.  Two properties are load-bearing:

* **Determinism** — the writer fixes every zip timestamp, orders
  members canonically, and stores (never deflates) the payload, so
  ingesting the same directory twice produces *byte-identical* bundles.
  ``np.savez`` cannot promise this (it stamps member mtimes), hence the
  hand-rolled writer.
* **Laziness** — the reader parses only the manifest up front; each
  column array is decoded from the zip member on first access, so a
  query touching one table never pays for the others.

String-valued columns are dictionary-encoded: the column stores int32
codes and the manifest stores the code→string list, which keeps the
bundle compact and makes group-bys integer operations.

:func:`sim_fingerprint` hashes only the *simulation-domain* content —
host timestamps, ``cache.*``/``perf.*``/``obs.*`` telemetry, and span
wall-clock are excluded — extending the serial/pooled identity
guarantee of ``tests/test_obs_identity.py`` to the analytics layer.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import ConfigError

#: Bump when a table or column changes shape; the validator checks it.
STORE_SCHEMA_VERSION = 1

#: Default bundle name inside a run directory.
STORE_NAME = "analytics.npz"

#: Column kinds: fixed-width numerics, or ``cat`` (int32 codes into a
#: per-column dictionary held in the manifest).
_KIND_DTYPES = {"i64": np.int64, "i32": np.int32, "f64": np.float64,
                "cat": np.int32}

#: Numeric event fields lifted into dedicated columns (NaN when the
#: event does not carry the field); everything else in an event's
#: payload is dropped at ingest — the schema is closed on purpose.
EVENT_FIELD_COLUMNS = ("pages", "src", "dst", "score", "count",
                      "attempt", "nbytes")

#: Closed table schemas, column order significant (it is the member
#: order inside the bundle and the row tuple order in fingerprints).
TABLE_SCHEMAS: dict[str, dict[str, str]] = {
    "provenance": {
        "interval": "i64", "page_start": "i64", "npages": "i64",
        "src_node": "i32", "dst_node": "i32", "attempt": "i32",
        "score": "f64", "stage": "cat", "reason": "cat",
    },
    "events": {
        "interval": "i64", "ts": "f64", "sim_time": "f64",
        "name": "cat", "track": "cat",
        **{field: "f64" for field in EVENT_FIELD_COLUMNS},
    },
    "metrics": {
        "name": "cat", "kind": "cat", "value": "f64",
        "count": "f64", "total": "f64", "min": "f64", "max": "f64",
    },
    "spans": {
        "name": "cat", "track": "cat", "ts": "f64", "dur": "f64",
    },
}

#: Metric/event name prefixes that are host-side, not simulated (see
#: tests/test_obs_identity.py); excluded from :func:`sim_fingerprint`.
HOST_METRIC_PREFIXES = ("cache.", "perf.", "obs.")
HOST_EVENT_PREFIXES = ("cache.",)
#: Event columns carrying host wall-clock, excluded from the fingerprint.
_HOST_EVENT_COLUMNS = ("ts",)


class TableBuilder:
    """Accumulates one table's rows, then freezes into column arrays.

    Categorical values are dictionary-encoded in first-appearance order,
    so a deterministic row order yields deterministic dictionaries.
    """

    def __init__(self, name: str) -> None:
        if name not in TABLE_SCHEMAS:
            raise ConfigError(f"unknown analytics table {name!r}")
        self.name = name
        self.schema = TABLE_SCHEMAS[name]
        self._cells: dict[str, list] = {col: [] for col in self.schema}
        self._dicts: dict[str, dict[str, int]] = {
            col: {} for col, kind in self.schema.items() if kind == "cat"
        }

    def add(self, **values) -> None:
        for col, kind in self.schema.items():
            value = values.get(col)
            if kind == "cat":
                codes = self._dicts[col]
                text = "" if value is None else str(value)
                code = codes.setdefault(text, len(codes))
                self._cells[col].append(code)
            elif value is None:
                self._cells[col].append(np.nan if kind == "f64" else -1)
            else:
                self._cells[col].append(value)

    def __len__(self) -> int:
        return len(self._cells[next(iter(self.schema))])

    def freeze(self) -> dict:
        """Snapshot into ``{"columns": {col: array}, "dicts": {col: strings}}``."""
        columns = {
            col: np.asarray(cells, dtype=_KIND_DTYPES[self.schema[col]])
            for col, cells in self._cells.items()
        }
        dicts = {col: list(codes) for col, codes in self._dicts.items()}
        return {"columns": columns, "dicts": dicts}


def _member_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(array),
                              allow_pickle=False)
    return buf.getvalue()


def write_store(path, tables: dict[str, dict], meta: dict | None = None) -> Path:
    """Persist frozen tables (from :meth:`TableBuilder.freeze`) to ``path``.

    Byte-deterministic: fixed zip timestamps (the DOS epoch), stored
    (uncompressed) members, canonical member order, canonical manifest
    JSON.  Determinism beats compression here — the idempotence test
    compares raw bundle bytes, and columns are small after dictionary
    encoding.
    """
    path = Path(path)
    manifest: dict = {
        "version": STORE_SCHEMA_VERSION,
        "meta": dict(sorted((meta or {}).items())),
        "tables": {},
    }
    members: list[tuple[str, bytes]] = []
    for table in sorted(tables):
        frozen = tables[table]
        columns, dicts = frozen["columns"], frozen["dicts"]
        schema = TABLE_SCHEMAS[table]
        rows = {len(arr) for arr in columns.values()}
        if len(rows) > 1:
            raise ConfigError(f"table {table!r} has ragged columns: {rows}")
        manifest["tables"][table] = {
            "rows": int(rows.pop()) if rows else 0,
            "columns": list(schema),
            "dicts": {col: dicts.get(col, []) for col, kind in schema.items()
                      if kind == "cat"},
        }
        for col in schema:
            members.append((f"{table}.{col}.npy",
                            _member_bytes(columns[col])))
    manifest_bytes = json.dumps(manifest, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name, data in [("manifest.json", manifest_bytes)] + members:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o600 << 16
            zf.writestr(info, data)
    return path


class Store:
    """Lazy reader over a bundle written by :func:`write_store`.

    Only the manifest is parsed at open; column arrays decode from
    their zip members on first access and are cached thereafter.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise ConfigError(f"no analytics store at {self.path} — "
                              f"ingest one with `repro query --run DIR`")
        self._zf = zipfile.ZipFile(self.path, "r")
        try:
            manifest_bytes = self._zf.read("manifest.json")
        except KeyError:
            raise ConfigError(
                f"{self.path} has no manifest.json — not an analytics store"
            ) from None
        self.manifest = json.loads(manifest_bytes)
        self.version = self.manifest.get("version")
        self.meta: dict = self.manifest.get("meta", {})
        self._cache: dict[tuple[str, str], np.ndarray] = {}

    # -- context manager -----------------------------------------------------

    def close(self) -> None:
        self._zf.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- access --------------------------------------------------------------

    def tables(self) -> list[str]:
        return sorted(self.manifest.get("tables", {}))

    def rows(self, table: str) -> int:
        return int(self._table_manifest(table)["rows"])

    def columns(self, table: str) -> list[str]:
        return list(self._table_manifest(table)["columns"])

    def _table_manifest(self, table: str) -> dict:
        try:
            return self.manifest["tables"][table]
        except KeyError:
            raise ConfigError(
                f"store {self.path} has no table {table!r} "
                f"(tables: {', '.join(self.tables()) or 'none'})"
            ) from None

    def column(self, table: str, col: str) -> np.ndarray:
        """Raw column array (int32 codes for categorical columns)."""
        key = (table, col)
        if key not in self._cache:
            if col not in self._table_manifest(table)["columns"]:
                raise ConfigError(f"table {table!r} has no column {col!r}")
            data = self._zf.read(f"{table}.{col}.npy")
            self._cache[key] = np.lib.format.read_array(
                io.BytesIO(data), allow_pickle=False)
        return self._cache[key]

    def strings(self, table: str, col: str) -> list[str]:
        """Code→string dictionary of a categorical column."""
        dicts = self._table_manifest(table).get("dicts", {})
        if col not in dicts:
            raise ConfigError(f"column {table}.{col} is not categorical")
        return list(dicts[col])

    def decoded(self, table: str, col: str) -> np.ndarray:
        """Categorical column as an array of strings."""
        codes = self.column(table, col)
        return np.asarray(self.strings(table, col), dtype=object)[codes]

    def is_categorical(self, table: str, col: str) -> bool:
        return TABLE_SCHEMAS[table].get(col) == "cat"


def validate_store(store: "Store | str | Path") -> list[str]:
    """Structural problems with an analytics store ([] when valid)."""
    if not isinstance(store, Store):
        try:
            store = Store(store)
        except (ConfigError, zipfile.BadZipFile, ValueError) as exc:
            return [str(exc)]
    problems: list[str] = []
    if store.version != STORE_SCHEMA_VERSION:
        problems.append(f"schema version {store.version!r} "
                        f"!= {STORE_SCHEMA_VERSION}")
    for table, entry in sorted(store.manifest.get("tables", {}).items()):
        if table not in TABLE_SCHEMAS:
            problems.append(f"unknown table {table!r}")
            continue
        schema = TABLE_SCHEMAS[table]
        if list(entry.get("columns", [])) != list(schema):
            problems.append(f"{table}: columns {entry.get('columns')} "
                            f"!= schema {list(schema)}")
            continue
        rows = entry.get("rows")
        for col, kind in schema.items():
            try:
                arr = store.column(table, col)
            except Exception as exc:  # missing/corrupt member
                problems.append(f"{table}.{col}: unreadable ({exc})")
                continue
            if arr.ndim != 1 or len(arr) != rows:
                problems.append(f"{table}.{col}: length {len(arr)} "
                                f"!= rows {rows}")
            if arr.dtype != _KIND_DTYPES[kind]:
                problems.append(f"{table}.{col}: dtype {arr.dtype} "
                                f"!= {_KIND_DTYPES[kind].__name__}")
            if kind == "cat" and len(arr):
                ncodes = len(entry.get("dicts", {}).get(col, []))
                if arr.min(initial=0) < 0 or arr.max(initial=-1) >= ncodes:
                    problems.append(f"{table}.{col}: code out of range "
                                    f"(dictionary has {ncodes} entries)")
    return problems


def _hash_rows(digest, columns: list[np.ndarray]) -> None:
    for row in zip(*[c.tolist() for c in columns]):
        digest.update(repr(row).encode("utf-8"))
        digest.update(b"\n")


def sim_fingerprint(store: Store) -> str:
    """Hex digest of the store's simulation-domain content.

    Two stores built from a serial and a ``workers=K`` run of the same
    matrix must agree here: host wall-clock columns, ``cache.*`` events,
    ``cache.*``/``perf.*``/``obs.*`` metrics, and the spans table (pure
    wall-clock) are excluded; event rows are compared track-by-track in
    each track's own emission order, which the ingest canonicalization
    already guarantees.
    """
    digest = hashlib.sha256()
    tables = set(store.tables())
    if "provenance" in tables:
        digest.update(b"provenance\n")
        schema = TABLE_SCHEMAS["provenance"]
        cols = [store.decoded("provenance", c)
                if schema[c] == "cat" else store.column("provenance", c)
                for c in schema]
        _hash_rows(digest, cols)
    if "events" in tables:
        digest.update(b"events\n")
        names = store.decoded("events", "name")
        keep = ~np.array(
            [n.startswith(HOST_EVENT_PREFIXES) for n in names], dtype=bool
        ) if len(names) else np.zeros(0, dtype=bool)
        schema = TABLE_SCHEMAS["events"]
        cols = []
        for col in schema:
            if col in _HOST_EVENT_COLUMNS:
                continue
            arr = (store.decoded("events", col) if schema[col] == "cat"
                   else store.column("events", col))
            cols.append(arr[keep])
        _hash_rows(digest, cols)
    if "metrics" in tables:
        digest.update(b"metrics\n")
        names = store.decoded("metrics", "name")
        keep = ~np.array(
            [n.startswith(HOST_METRIC_PREFIXES) for n in names], dtype=bool
        ) if len(names) else np.zeros(0, dtype=bool)
        schema = TABLE_SCHEMAS["metrics"]
        cols = [(store.decoded("metrics", c) if schema[c] == "cat"
                 else store.column("metrics", c))[keep] for c in schema]
        _hash_rows(digest, cols)
    return digest.hexdigest()


__all__ = [
    "EVENT_FIELD_COLUMNS",
    "HOST_EVENT_PREFIXES",
    "HOST_METRIC_PREFIXES",
    "STORE_NAME",
    "STORE_SCHEMA_VERSION",
    "Store",
    "TABLE_SCHEMAS",
    "TableBuilder",
    "sim_fingerprint",
    "validate_store",
    "write_store",
]
