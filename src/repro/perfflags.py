"""Process-wide switches between optimized and legacy hot paths.

One switch, **vectorized**, selects the optimized hot paths (the
default): struct-of-arrays region bookkeeping, bulk entry/node
resolution, the :mod:`repro.kernels` array pipelines (fused MMU batch
ingest, span resolution, per-node accumulation, batched region
scoring), and the delta-driven interval pipeline, whose per-interval
work (entry resolution, region node lookup, PTE bookkeeping) scales
with the pages *touched this interval* plus dirty-region invalidations
instead of with the total footprint.

All optimized implementations are bit-identical to the original
per-region Python loops by construction — every RNG draw happens in
the same order (a batched draw consumes the stream element by element,
as the per-region calls did), and cached values are invalidated
whenever the state they derive from changes.  The legacy
paths stay behind the switch as the reference that the differential
tests compare against.

A second, independent override forces the page-table storage layout
(dense or chunked) so the differential suites can exercise both.

The flags are process-global (workers forked by the parallel matrix
runner inherit them), defaulting to fully optimized.
"""

from __future__ import annotations

from contextlib import contextmanager

_VECTORIZED = True
_CHUNKED_OVERRIDE: bool | None = None


def vectorized() -> bool:
    """Whether the optimized hot paths are active (the default)."""
    return _VECTORIZED


def set_vectorized(enabled: bool) -> None:
    """Switch every flagged hot path between optimized and legacy."""
    global _VECTORIZED
    _VECTORIZED = bool(enabled)


def chunked_override() -> bool | None:
    """Process-wide page-table storage override.

    ``None`` (the default) lets each :class:`~repro.mm.pagetable.PageTable`
    auto-select dense vs chunked storage by footprint; ``True``/``False``
    forces one layout for every newly created table.  Storage layout is
    bit-identical either way — the override exists so the differential
    suites can exercise chunked storage on small spaces (and dense
    storage on huge ones).
    """
    return _CHUNKED_OVERRIDE


def set_chunked_override(value: bool | None) -> None:
    """Force (True/False) or restore auto (None) page-table chunking."""
    global _CHUNKED_OVERRIDE
    _CHUNKED_OVERRIDE = None if value is None else bool(value)


@contextmanager
def chunked_mode(value: bool = True):
    """Run a block with page-table chunking forced on (or off)."""
    prev = _CHUNKED_OVERRIDE
    set_chunked_override(value)
    try:
        yield
    finally:
        set_chunked_override(prev)


@contextmanager
def legacy_mode():
    """Run a block on the legacy (pre-optimization) code paths.

    Disables the vectorized switch and restores its previous value on
    exit.
    """
    prev = _VECTORIZED
    set_vectorized(False)
    try:
        yield
    finally:
        set_vectorized(prev)
