"""Deterministic random-source management.

An engine spawns its workload and PEBS generators from one seed
(:func:`named_rngs`), so runs are reproducible and the two do not
perturb each other's streams; profilers and mechanisms take their own
:func:`make_rng` from the baseline factory.
:func:`poisson_nonzero` is the sparse Poisson draw behind batch synthesis.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """A fresh PCG64 generator from ``seed`` (None = OS entropy)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from one seed."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def named_rngs(seed: int, names: list[str]) -> dict[str, np.random.Generator]:
    """Independent generators keyed by component name.

    The same (seed, names) pair always yields the same streams, and adding
    a name at the end never disturbs the earlier streams.
    """
    return dict(zip(names, spawn_rngs(seed, len(names))))


#: ``poisson_nonzero`` decodes only rates below this.  Above it the
#: uniforms that continue an entry are dense enough that ``rng.poisson`` is
#: faster.  On 2^20 entries (2-core x86-64 VM) the decode is 2.9x faster
#: at 0.0125, 1.7x at 0.2 and 1.2x at 0.4, breaks even at 0.5 and is 0.89x
#: at 0.6.
POISSON_DECODE_MAX_LAM = 0.5
#: Arrays shorter than this go to ``rng.poisson``, whole segments and the
#: rest after the last decode block alike, because the decode's fixed cost
#: per block loses there.  It breaks even near 2^11 entries at rate 0.0125
#: and near 2^15 at rate 0.2.
POISSON_DECODE_MIN_PAGES = 1 << 14
#: Uniforms drawn per decode block (512 KB of float64).
_DECODE_BLOCK = 1 << 16

_EMPTY = np.empty(0, dtype=np.int64)


def poisson_nonzero(
    rng: np.random.Generator, lam: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of ``rng.poisson(lam, n)``, without the dense array.

    Returns ``(offsets, counts)`` as int64 arrays: the ascending positions
    of the nonzero draws and their values.  The generator is left in
    exactly the state ``rng.poisson(lam, n)`` would leave it in, so callers
    may switch between the two without moving any later draw.

    For ``0 < lam < 10`` numpy draws each entry by multiplication: uniforms
    from the same ``next_double`` stream as :meth:`Generator.random` are
    multiplied into a running product until it falls to ``exp(-lam)`` or
    below, and the entry is the number of uniforms that kept it above.  A
    uniform at or below ``exp(-lam)`` therefore always ends an entry, and
    with the small rates of sparse workloads almost every uniform does,
    alone: a zero entry.  This function draws the uniforms in bulk, takes
    every uniform at or below ``exp(-lam)`` as an entry end, and replays
    numpy's running product only over the sparse runs above it, so the
    decoded values equal numpy's to the bit.  Blocks never hold more
    uniforms than entries remain (each entry consumes at least one), an
    entry cut by a block end is finished with scalar draws, and a rest
    shorter than :data:`POISSON_DECODE_MIN_PAGES` is drawn by
    ``rng.poisson``, which continues the same stream.  Rates outside
    ``(0, POISSON_DECODE_MAX_LAM)`` and short arrays are drawn by
    ``rng.poisson`` directly.

    ``tests/test_workload_synthesis.py`` checks the equality, generator
    state included; it is what fails if numpy changes its method.
    """
    if not 0.0 < lam < POISSON_DECODE_MAX_LAM or n < POISSON_DECODE_MIN_PAGES:
        return _poisson_dense(rng, lam, n)
    # The same libm call numpy makes, so the threshold matches to the bit.
    enlam = math.exp(-lam)
    buf = np.empty(min(n, _DECODE_BLOCK))
    offsets_l: list[np.ndarray] = []
    counts_l: list[np.ndarray] = []
    done = 0
    while n - done >= POISSON_DECODE_MIN_PAGES:
        u = buf[: min(n - done, _DECODE_BLOCK)]
        rng.random(out=u)
        consumed, offsets, counts = _decode_block(rng, u, enlam)
        offsets_l.append(offsets + done)
        counts_l.append(counts)
        done += consumed
    offsets, counts = _poisson_dense(rng, lam, n - done)
    offsets_l.append(offsets + done)
    counts_l.append(counts)
    return np.concatenate(offsets_l), np.concatenate(counts_l)


def _poisson_dense(
    rng: np.random.Generator, lam: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    counts = rng.poisson(lam, n)
    offsets = np.flatnonzero(counts)
    return offsets, counts[offsets]


def _decode_block(
    rng: np.random.Generator, u: np.ndarray, enlam: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """Decode the entries that start in one block of uniforms.

    ``u`` starts at an entry boundary.  A uniform *continues* its entry
    when the running product stays above ``enlam`` and *ends* it
    otherwise; an entry's value is its number of continuing uniforms, and
    only uniforms above ``enlam`` can continue.  Returns the number of
    entries consumed, and the block-relative offsets and values of the
    nonzero ones.
    """
    m = u.size
    cont = np.flatnonzero(u > enlam)
    if cont.size == 0:
        return m, _EMPTY, _EMPTY
    # Runs of adjacent uniforms above enlam; a run's first uniform always
    # starts an entry, because the uniform before it ended one.
    breaks = np.flatnonzero(np.diff(cont) != 1) + 1
    if breaks.size + 1 < cont.size:
        ends = _ends_inside_runs(u[cont], breaks, enlam)
        if ends.size:
            keep = np.ones(cont.size, dtype=bool)
            keep[ends] = False
            cont = cont[keep]
            breaks = np.flatnonzero(np.diff(cont) != 1) + 1
    # Adjacent continuing uniforms belong to one entry.
    starts = np.concatenate(([0], breaks))
    counts = np.diff(starts, append=cont.size)
    # Entry index of a start = its position minus the continuing uniforms
    # before it, since every other uniform ended an entry.
    offsets = cont[starts] - starts
    consumed = m - cont.size
    if cont[-1] == m - 1:
        # The last entry is cut by the block end: finish it from the stream.
        prod = 1.0
        for x in u[cont[starts[-1]]:].tolist():
            prod *= x
        counts[-1] += _finish_entry(rng, prod, enlam)
        consumed += 1
    return consumed, offsets, counts


def _ends_inside_runs(big: np.ndarray, breaks: np.ndarray, enlam: float) -> np.ndarray:
    """Indices into ``big`` of the uniforms that end an entry inside a run.

    ``big`` holds the uniforms above ``enlam`` and ``breaks`` the indices
    where a run of adjacent ones begins (besides 0).  numpy's running
    product is replayed over every run of two or more in the same order,
    one position per step across all runs at once; it restarts at 1.0
    after an end.
    """
    bounds = np.concatenate(([0], breaks, [big.size]))
    length = np.diff(bounds)
    multi = np.flatnonzero(length > 1)
    at = bounds[multi]
    left = length[multi] - 1
    prod = big[at]
    ends: list[np.ndarray] = []
    while at.size:
        at = at + 1
        prod *= big[at]
        stop = prod <= enlam
        if stop.any():
            ends.append(at[stop])
            prod[stop] = 1.0
        left -= 1
        live = left > 0
        if not live.all():
            at, left, prod = at[live], left[live], prod[live]
    return np.concatenate(ends) if ends else _EMPTY


def _finish_entry(rng: np.random.Generator, prod: float, enlam: float) -> int:
    """Continuing uniforms drawn until ``prod`` falls to ``enlam``."""
    extra = 0
    while True:
        prod *= rng.random()
        if prod > enlam:
            extra += 1
        else:
            return extra
