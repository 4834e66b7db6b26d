"""Chunked storage for page-granular state arrays.

Dense per-page arrays cost O(n_pages) memory the moment an address
space is created — at the paper's regime (hundreds of GB, hundreds of
millions of base pages) that is tens of GB of simulator state per
array, mostly holding the fill value.  :class:`ChunkedArray` divides
the index space into fixed-size power-of-two chunks where each chunk is
either a **scalar** (every element holds that value — the initial state
of all chunks, and again whenever a whole chunk is assigned one value)
or a **dense ndarray**, materialized the first time a chunk is written
non-uniformly.  Sparse workloads therefore pay for the chunks they
touch, not the footprint.

The class implements the indexing surface the simulator's hot paths
actually use — integer/slice/fancy get and set (including the
read-modify-write ``arr[idx] |= x`` desugaring), whole-array ``==
scalar``, bit tests over a range (``any_and``) or the whole array
(``count_nonzero_and``), ``nbytes`` and ``__array__`` — so :class:`~repro.mm.pagetable.PageTable` can swap it
in without changing callers.  Scatter order is preserved per chunk, so duplicate-index assignment
keeps numpy's last-write-wins semantics and stays bit-identical to the
dense arrays.  Integer and fancy indices follow dense bounds rules:
negative indices wrap once, and out-of-range ones raise ``IndexError``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Default chunk length in elements (256 Ki pages = 1 GB of 4 KB pages).
DEFAULT_CHUNK_PAGES = 1 << 18


class ChunkedArray:
    """A 1-D array of ``n`` elements stored as scalar-or-dense chunks."""

    __slots__ = ("n", "dtype", "fill_value", "chunk_pages", "_shift", "_chunks")

    def __init__(self, n: int, dtype, fill_value, chunk_pages: int = DEFAULT_CHUNK_PAGES) -> None:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        if chunk_pages < 1 or chunk_pages & (chunk_pages - 1):
            raise ConfigError(f"chunk_pages must be a power of two, got {chunk_pages}")
        self.n = n
        self.dtype = np.dtype(dtype)
        self.fill_value = self.dtype.type(fill_value)
        self.chunk_pages = chunk_pages
        self._shift = chunk_pages.bit_length() - 1
        nchunks = -(-n // chunk_pages)
        self._chunks: list = [self.fill_value] * nchunks

    # -- shape protocol --------------------------------------------------------

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    @property
    def size(self) -> int:
        return self.n

    def __len__(self) -> int:
        return self.n

    def _chunk_len(self, c: int) -> int:
        return min(self.n - (c << self._shift), self.chunk_pages)

    def _dense(self, c: int) -> np.ndarray:
        """The dense backing of chunk ``c``, materializing it if uniform."""
        data = self._chunks[c]
        if not isinstance(data, np.ndarray):
            data = np.full(self._chunk_len(c), data, dtype=self.dtype)
            self._chunks[c] = data
        return data

    def chunks(self):
        """Yield ``(start, end, data)`` per chunk; ``data`` is scalar or array."""
        for c, data in enumerate(self._chunks):
            start = c << self._shift
            yield start, start + self._chunk_len(c), data

    def _pieces(self, start: int, stop: int):
        """Yield ``(chunk, lo, hi)`` for each chunk ``[start, stop)`` meets.

        ``lo``/``hi`` bound the piece within the chunk, so the piece is
        elements ``[(chunk << shift) + lo, (chunk << shift) + hi)``.  The
        range must lie within ``[0, n]``: slices are clamped by
        ``slice.indices`` and explicit ranges by :meth:`_check_span`.
        """
        pos = start
        while pos < stop:
            c = pos >> self._shift
            cstart = c << self._shift
            hi = min(stop, cstart + self._chunk_len(c))
            yield c, pos - cstart, hi - cstart
            pos = hi

    def _check_span(self, start: int, stop: int) -> None:
        """Reject an explicit range outside ``0 <= start <= stop <= n``."""
        if not 0 <= start <= stop <= self.n:
            raise IndexError(f"range [{start}, {stop}) is out of bounds for size {self.n}")

    def _check_int(self, i: int) -> int:
        """Wrap a negative scalar index; reject an out-of-range one."""
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} is out of bounds for size {self.n}")
        return i

    def _grouped(self, key) -> tuple[np.ndarray, list]:
        """Normalize a fancy index and group its positions by chunk.

        Returns ``(idx, groups)``: ``idx`` is the int64 index with
        negative entries wrapped, and ``groups`` lists ``(chunk,
        positions)`` for every chunk the index touches, where
        ``positions`` (a slice or an int array into ``idx``) is in
        ascending order — which preserves numpy's last-write-wins
        scatter semantics for duplicate indices.  Out-of-range indices
        raise ``IndexError`` as a dense array would.

        Cost is O(indices + chunks spanned) with no hashing: one compare
        pass detects a non-decreasing index, whose chunk boundaries are a
        single ``searchsorted`` over the chunk edges; any other index is
        grouped by one stable argsort of its chunk ids.
        """
        idx = np.asarray(key)
        if idx.dtype == bool:
            if idx.shape != (self.n,):
                raise IndexError(f"boolean index of shape {idx.shape} for size {self.n}")
            idx = np.flatnonzero(idx)
        idx = idx.astype(np.int64, copy=False)
        if idx.size == 0:
            return idx, []
        ascending = bool(np.all(idx[1:] >= idx[:-1]))
        if ascending:
            lo, hi = int(idx[0]), int(idx[-1])
        else:
            lo, hi = int(idx.min()), int(idx.max())
        if lo < -self.n or hi >= self.n:
            bad = lo if lo < -self.n else hi
            raise IndexError(f"index {bad} is out of bounds for size {self.n}")
        if lo < 0:
            return self._grouped(np.where(idx < 0, idx + self.n, idx))
        c0, c1 = lo >> self._shift, hi >> self._shift
        if c0 == c1:
            return idx, [(c0, slice(None))]
        if ascending:
            edges = np.arange(c0 + 1, c1 + 1, dtype=np.int64) << self._shift
            cuts = [0, *np.searchsorted(idx, edges).tolist(), idx.size]
            order = None
        else:
            cid = (idx >> self._shift) - c0
            if c1 - c0 < 1 << 16:
                cid = cid.astype(np.uint16)  # stable sort of 16-bit keys is a radix sort
            order = np.argsort(cid, kind="stable")
            cuts = [0, *np.cumsum(np.bincount(cid, minlength=c1 - c0 + 1)).tolist()]
        return idx, [
            (c0 + k, slice(a, b) if order is None else order[a:b])
            for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))
            if b > a
        ]

    # -- reads -----------------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = self._check_int(int(key))
            data = self._chunks[i >> self._shift]
            if isinstance(data, np.ndarray):
                return data[i - ((i >> self._shift) << self._shift)]
            return data
        if isinstance(key, slice):
            start, stop, step = key.indices(self.n)
            if step != 1:
                return self.__getitem__(np.arange(start, stop, step, dtype=np.int64))
            out = np.empty(max(stop - start, 0), dtype=self.dtype)
            for c, lo, hi in self._pieces(start, stop):
                data = self._chunks[c]
                at = (c << self._shift) - start
                out[at + lo : at + hi] = data[lo:hi] if isinstance(data, np.ndarray) else data
            return out
        idx, groups = self._grouped(key)
        out = np.empty(idx.size, dtype=self.dtype)
        for c, sel in groups:
            data = self._chunks[c]
            if isinstance(data, np.ndarray):
                out[sel] = data[idx[sel] - (c << self._shift)]
            else:
                out[sel] = data
        return out

    # -- writes ----------------------------------------------------------------

    def __setitem__(self, key, value) -> None:
        if isinstance(key, (int, np.integer)):
            i = self._check_int(int(key))
            self._dense(i >> self._shift)[i - ((i >> self._shift) << self._shift)] = value
            return
        if isinstance(key, slice):
            start, stop, step = key.indices(self.n)
            if step != 1:
                self.__setitem__(np.arange(start, stop, step, dtype=np.int64), value)
                return
            scalar = np.ndim(value) == 0
            vals = None if scalar else np.asarray(value)
            for c, lo, hi in self._pieces(start, stop):
                if scalar:
                    if lo == 0 and hi == self._chunk_len(c):
                        # Whole-chunk uniform assignment collapses back
                        # to scalar storage.
                        self._chunks[c] = self.dtype.type(value)
                    else:
                        data = self._chunks[c]
                        if isinstance(data, np.ndarray) or data != self.dtype.type(value):
                            self._dense(c)[lo:hi] = value
                else:
                    at = (c << self._shift) - start
                    self._dense(c)[lo:hi] = vals[at + lo : at + hi]
            return
        idx, groups = self._grouped(key)
        scalar = np.ndim(value) == 0
        vals = None if scalar else np.asarray(value)
        for c, sel in groups:
            local = idx[sel] - (c << self._shift)
            if scalar:
                data = self._chunks[c]
                if not isinstance(data, np.ndarray) and data == self.dtype.type(value):
                    continue
                self._dense(c)[local] = value
            else:
                self._dense(c)[local] = vals[sel]

    # -- whole-array operations ------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        if np.ndim(other) == 0:
            out = np.empty(self.n, dtype=bool)
            for start, end, data in self.chunks():
                out[start:end] = data == other
            return out
        return np.asarray(self) == other

    def __ne__(self, other):  # type: ignore[override]
        result = self.__eq__(other)
        return ~result

    def __hash__(self) -> int:  # eq returns arrays; identity hash keeps pickling sane
        return id(self)

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.n, dtype=self.dtype)
        for start, end, data in self.chunks():
            out[start:end] = data
        if dtype is not None:
            out = out.astype(dtype, copy=False)
        return out

    def count_equal(self, value) -> int:
        """Number of elements equal to ``value`` (O(dense chunks))."""
        total = 0
        for start, end, data in self.chunks():
            if isinstance(data, np.ndarray):
                total += int(np.count_nonzero(data == value))
            elif data == self.dtype.type(value):
                total += end - start
        return total

    def any_and(self, mask, start: int, stop: int) -> bool:
        """Whether an element of ``[start, stop)`` has any of ``mask``'s bits.

        O(1) per scalar chunk; a dense chunk tests only its piece.
        """
        self._check_span(start, stop)
        for c, lo, hi in self._pieces(start, stop):
            data = self._chunks[c]
            if isinstance(data, np.ndarray):
                if np.any(data[lo:hi] & mask):
                    return True
            elif data & mask:
                return True
        return False

    def count_nonzero_and(self, mask) -> int:
        """Number of elements with any of ``mask``'s bits set."""
        total = 0
        for start, end, data in self.chunks():
            if isinstance(data, np.ndarray):
                total += int(np.count_nonzero(data & mask))
            elif int(data) & mask:
                total += end - start
        return total

    # -- storage accounting ----------------------------------------------------

    def dense_chunks(self) -> int:
        """Number of chunks that have been materialized."""
        return sum(1 for d in self._chunks if isinstance(d, np.ndarray))

    @property
    def nbytes(self) -> int:
        """Bytes held by materialized chunks (scalar chunks are free)."""
        return sum(d.nbytes for d in self._chunks if isinstance(d, np.ndarray))
