"""K-way merge machinery shared by all merge-based sorting systems.

The merge phase of every system (external merge sort over record runs,
WiscSort/PMSort over IndexMap runs) follows the paper's cursor protocol
(Sec 3.7, steps 6-9): the read buffer is split evenly among the run
files, cursors track the current window of each run, exhausted windows
are refilled, and when a run drains its buffer share is redistributed.

For simulation efficiency the merge is executed in *batches* rather than
record-at-a-time: all windowed entries whose key is <= the smallest
"window-end" key across still-readable runs are globally safe to emit
(any unread entry of run *j* is >= the last key currently windowed from
run *j*).  Batching changes nothing about the output or the I/O pattern
-- it only aggregates the per-record CPU cost into one op.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.records.format import key_columns as _key_columns
from repro.records.format import key_sort_indices, key_words
from repro.sim.fluid import vector_enabled
from repro.storage.file import SimFile
from repro.units import ceil_div


class RunCursor:
    """Window over one sorted run file of fixed-size entries.

    The driver loop must uphold the protocol::

        while not cursor.done:
            if cursor.needs_refill:
                data = yield cursor.refill_op(tag, threads)
                cursor.accept(data)
            ...

    Hot-path note: installing a window (via :meth:`accept` or assigning
    ``cursor.window``) precomputes the window's big-endian uint64 key
    columns and its last key as Python ``bytes``.  ``count_leq`` then
    runs two-level binary search over the cached columns (the window is
    sorted) instead of re-deriving columns and scanning a boolean mask
    per call, and ``take`` advances an offset rather than reslicing.
    """

    def __init__(
        self,
        run_file: SimFile,
        entry_size: int,
        key_size: int,
        window_bytes: int,
    ):
        if entry_size < key_size:
            raise SimulationError("entry_size must be >= key_size")
        self.file = run_file
        self.entry_size = entry_size
        self.key_size = key_size
        self.window_entries = max(1, window_bytes // entry_size)
        self.pos = 0
        #: Set by :class:`_FrontierIndex` when it mirrors this cursor's
        #: windows: the scalar search caches (``_cols``, first/last key
        #: bytes) are then skipped on install and materialized lazily if
        #: a scalar consumer ever asks.
        self._index_owned = False
        self.window = np.zeros((0, entry_size), dtype=np.uint8)
        self.bytes_loaded = 0
        #: Entries consumed via :meth:`take` (checkpoint/recovery state).
        self.taken = 0

    # ------------------------------------------------------------------
    @property
    def window(self) -> np.ndarray:
        """Entries not yet taken from the current window (a view)."""
        if self._start:
            return self._window[self._start :]
        return self._window

    @window.setter
    def window(self, data: np.ndarray) -> None:
        self._window = data
        self._start = 0
        self._n = data.shape[0]
        if self._n and not self._index_owned:
            self._install_search_caches()
        else:
            self._cols = []
            self._first_bytes = None
            self._last_bytes = None

    def _install_search_caches(self) -> None:
        keys = self._window[:, : self.key_size]
        # Native-endian copies of the big-endian comparison columns:
        # identical numeric values, faster searchsorted.
        self._cols = [
            np.ascontiguousarray(c, dtype=np.uint64)
            for c in _key_columns(keys)
        ]
        self._first_bytes = keys[self._start].tobytes()
        self._last_bytes = keys[-1].tobytes()

    @property
    def remaining(self) -> int:
        """Entries left in the current window."""
        return self._n - self._start

    @property
    def file_exhausted(self) -> bool:
        return self.pos >= self.file.size

    @property
    def done(self) -> bool:
        return self.file_exhausted and self._n - self._start == 0

    @property
    def needs_refill(self) -> bool:
        return self._n - self._start == 0 and not self.file_exhausted

    def grow_window(self, extra_bytes: int) -> None:
        """Absorb buffer space released by a drained neighbour (Sec 3.7)."""
        self.window_entries += max(0, extra_bytes // self.entry_size)

    def refill_op(self, tag: str, threads: int = 1):
        """Build the sequential read op for the next window."""
        if not self.needs_refill:
            raise SimulationError("refill_op called on a non-empty cursor")
        nbytes = min(self.window_entries * self.entry_size, self.file.size - self.pos)
        op = self.file.read(self.pos, nbytes, tag=tag, threads=threads)
        self.pos += nbytes
        self.bytes_loaded += nbytes
        return op

    def accept(self, data: np.ndarray) -> None:
        """Install the bytes returned by a refill op as the new window."""
        if data.size % self.entry_size:
            raise SimulationError("window is not a whole number of entries")
        self.window = data.reshape(-1, self.entry_size)

    # ------------------------------------------------------------------
    def last_key(self) -> np.ndarray:
        return self.window[-1, : self.key_size]

    def count_leq(self, bound: np.ndarray) -> int:
        """How many windowed entries have key <= bound (window is sorted)."""
        return self._count_leq_words(key_words(bound))

    def _count_leq_words(self, bound_words: Tuple[int, ...]) -> int:
        """count_leq with the bound pre-split into uint64 words.

        Narrows the candidate band column by column: rows strictly below
        the bound word are counted; rows equal to it stay undecided and
        pass to the next column.  Exact unsigned-lexicographic count,
        O(cols * log n).
        """
        lo, hi = self._start, self._n
        if lo >= hi:
            return 0
        if not self._cols:
            # Index-owned cursor: caches were skipped on install;
            # materialize them for this scalar consumer.
            self._install_search_caches()
        less = 0
        for col, b in zip(self._cols, bound_words):
            seg = col[lo:hi]
            lt = int(seg.searchsorted(b, side="left"))
            r = int(seg.searchsorted(b, side="right"))
            less += lt
            lo, hi = lo + lt, lo + r
            if lo == hi:
                break
        return less + (hi - lo)

    def take(self, count: int) -> np.ndarray:
        start = self._start
        end = start + count
        self._start = end
        self.taken += count
        if end < self._n:
            self._first_bytes = self._window[end, : self.key_size].tobytes()
        return self._window[start:end]

    def skip_entries(self, count: int) -> None:
        """Crash-recovery resume: mark the first ``count`` file entries
        as already consumed.

        Must be called before the first refill (empty window); the next
        refill reads from the new position.  Entries that were merely
        *windowed* (prefetched) before a crash are volatile and simply
        re-read -- only ``taken`` counts, which the checkpoint recorded,
        are skipped.
        """
        nbytes = count * self.entry_size
        if self._n - self._start:
            raise SimulationError("skip_entries requires an empty window")
        if nbytes > self.file.size:
            raise SimulationError(
                f"cannot skip {count} entries past end of {self.file.name!r}"
            )
        self.pos = nbytes
        self.taken = count


def _frontier_step(
    live: List[RunCursor], exhausted_flags: Optional[dict] = None
) -> Tuple[np.ndarray, int, List[RunCursor]]:
    """Emit one batch of globally-safe entries from non-empty cursors.

    Precondition: every cursor in ``live`` has a non-empty window.
    Returns ``(entries, ways, emptied)`` -- the key-sorted emitted rows,
    the number of participating runs, and the cursors whose window the
    step drained (they need a refill, or are done if their file is
    exhausted).  ``exhausted_flags`` optionally maps cursors to a cached
    ``file_exhausted`` value so the property need not be re-evaluated
    every step.
    """
    if exhausted_flags is None:
        bounds = [c._last_bytes for c in live if not c.file_exhausted]
    else:
        bounds = [c._last_bytes for c in live if not exhausted_flags[c]]
    pieces = []
    emptied: List[RunCursor] = []
    if bounds:
        # Python bytes comparison is unsigned lexicographic, identical
        # to min_key over the stacked key rows (all bounds equal-width).
        threshold_bytes = min(bounds)
        threshold = key_words(threshold_bytes)
        for cursor in live:
            # A cursor contributes iff its window head is <= the
            # threshold; the bytes compare skips the binary search for
            # the (typical) majority of cursors that contribute nothing.
            if cursor._first_bytes > threshold_bytes:
                continue
            count = cursor._count_leq_words(threshold)
            if count:
                pieces.append(cursor.take(count))
                if cursor._start == cursor._n:
                    emptied.append(cursor)
    else:
        # Every file fully windowed: drain everything.
        for cursor in live:
            pieces.append(cursor.take(cursor.remaining))
            emptied.append(cursor)
    if not pieces:
        # Impossible: the cursor that defines the threshold always has
        # its whole window <= threshold.
        raise SimulationError("merge_step emitted nothing")
    merged = np.concatenate(pieces, axis=0)
    key_size = live[0].key_size
    order = key_sort_indices(merged[:, :key_size])
    return merged[order], len(live), emptied


def merge_step(cursors: List[RunCursor]) -> Tuple[np.ndarray, int]:
    """Emit one batch of globally-safe entries from the cursor set.

    Preconditions: every non-done cursor has a non-empty window.
    Returns ``(entries, ways)`` where ``entries`` is a key-sorted matrix
    of emitted rows and ``ways`` the number of runs still participating
    (for merge-cost accounting).  Raises if nothing can be emitted
    (which the protocol makes impossible).
    """
    live = [c for c in cursors if c.remaining]
    if not live:
        return np.zeros((0, cursors[0].entry_size if cursors else 0), dtype=np.uint8), 0
    emitted, ways, _emptied = _frontier_step(live)
    return emitted, ways


class _FrontierIndex:
    """Columnar mirror of every live window for batched frontier steps.

    One row per cursor: ``S`` is a ``(k, W)`` matrix of fixed-width
    ``S<key_size>`` byte strings (the window keys), ``E`` mirrors the
    raw window entries ``(k, W, entry_size)``, and k-vectors ``L`` /
    ``F`` track each row's last and current-head key.  Fixed-width
    bytes compares order keys exactly as unsigned lexicographic
    comparison (the argument is in
    :func:`repro.records.format.key_strings`).  A frontier step is
    therefore a handful of whole-array bytes compares -- threshold =
    min over ``L`` of the still-readable rows (cached between steps; it
    only changes on refill or drain), ``F <= threshold`` picks the
    contributing rows, ``S[rows] <= threshold`` gives the emit counts,
    and one segment-gather pulls every emitted entry (plus its sort key)
    out of the mirrors without a per-cursor Python loop.

    Bit-identity with :func:`_frontier_step` (asserted by the
    equivalence suite): per-row emit counts equal ``_count_leq_words``
    exactly (isomorphic predicate; already-taken rows are covered by
    threshold monotonicity -- the frontier threshold never decreases,
    so everything taken under an earlier threshold is ``<=`` the
    current one); pieces are gathered in ascending row order, which is
    the scalar path's ``live`` order (live-list filtering preserves
    construction order); and the final stable argsort over the gathered
    keys is the same stable argsort :func:`key_sort_indices` runs.

    The index owns its cursors' windows outright -- they skip their
    scalar search caches on install (see ``RunCursor._index_owned``).
    Only uniform fleets of plain :class:`RunCursor` qualify (subclasses
    may redefine window semantics); :class:`MergeFrontier` falls back
    to the scalar step otherwise or when ``REPRO_SIM_VECTOR=0``.
    """

    __slots__ = (
        "row_cursors",
        "k",
        "key_size",
        "sdtype",
        "entry_size",
        "width",
        "S",
        "E",
        "L",
        "F",
        "starts",
        "ns",
        "ready",
        "exhausted",
        "_threshold",
        "_tdirty",
    )

    def __init__(self, cursors: List[RunCursor]):
        self.row_cursors = list(cursors)
        self.k = len(self.row_cursors)
        first = self.row_cursors[0]
        self.key_size = first.key_size
        self.sdtype = np.dtype("S%d" % self.key_size)
        self.entry_size = first.entry_size
        width = 1
        for c in self.row_cursors:
            width = max(width, c._n)
        self.width = width
        k = self.k
        self.S = np.zeros((k, width), dtype=self.sdtype)
        self.E = np.zeros((k, width, self.entry_size), dtype=np.uint8)
        self.L = np.zeros(k, dtype=self.sdtype)
        self.F = np.zeros(k, dtype=self.sdtype)
        self.starts = np.zeros(k, dtype=np.int64)
        self.ns = np.zeros(k, dtype=np.int64)
        #: Rows with an installed window; unready live rows are awaiting
        #: their refill and never participate in a step (the driver
        #: protocol refills before stepping).
        self.ready = np.zeros(k, dtype=bool)
        self.exhausted = np.zeros(k, dtype=bool)
        #: Cached frontier threshold key (``None`` = drain-all); valid
        #: while ``_tdirty`` is clear -- the threshold depends only on
        #: last keys and exhaustion, which change on refill/death, not
        #: on takes.
        self._threshold: Optional[bytes] = None
        self._tdirty = True
        for i, c in enumerate(self.row_cursors):
            c._vrow = i
            c._index_owned = True
            if c._n:
                self.load_row(c)
            else:
                self.exhausted[i] = c.file_exhausted

    @staticmethod
    def eligible(cursors: List[RunCursor]) -> bool:
        if not cursors:
            return False
        first = cursors[0]
        return all(
            type(c) is RunCursor
            and c.key_size == first.key_size
            and c.entry_size == first.entry_size
            for c in cursors
        )

    def _grow(self, needed: int) -> None:
        new_width = max(needed, self.width * 2)
        fresh_s = np.zeros((self.k, new_width), dtype=self.sdtype)
        fresh_s[:, : self.width] = self.S
        self.S = fresh_s
        fresh_e = np.zeros((self.k, new_width, self.entry_size), dtype=np.uint8)
        fresh_e[:, : self.width] = self.E
        self.E = fresh_e
        self.width = new_width

    def load_row(self, c: RunCursor) -> None:
        """(Re)install a cursor's freshly accepted window into its row."""
        i = c._vrow
        n = c._n
        if n > self.width:
            self._grow(n)
        start = c._start
        keys = np.ascontiguousarray(c._window[:, : self.key_size])
        skeys = keys.reshape(-1).view(self.sdtype)
        self.S[i, :n] = skeys
        self.L[i] = skeys[n - 1]
        self.F[i] = skeys[start]
        self.E[i, :n] = c._window
        self.starts[i] = start
        self.ns[i] = n
        self.ready[i] = True
        self.exhausted[i] = c.file_exhausted
        self._tdirty = True

    def mark_dead(self, c: RunCursor) -> None:
        """Retire a drained cursor's row (zero rows emit nothing)."""
        i = c._vrow
        self.ready[i] = False
        self.exhausted[i] = True
        self.starts[i] = 0
        self.ns[i] = 0
        self._tdirty = True

    def _refresh_threshold(self) -> None:
        # Lexicographic min of the still-readable last keys.  ``None``
        # means every file is fully windowed (drain-all mode).  numpy
        # has no min-reduction for bytes dtypes, so take the Python min
        # over the (at most k) candidates.
        sel = self.ready & ~self.exhausted
        if sel.any():
            self._threshold = min(self.L[sel].tolist())
        else:
            self._threshold = None
        self._tdirty = False

    def step_batch(self) -> Tuple[np.ndarray, List[RunCursor]]:
        """One frontier step over the mirrors; see class docstring."""
        ns = self.ns
        starts = self.starts
        if self._tdirty:
            self._refresh_threshold()
        threshold = self._threshold
        if threshold is not None:
            # Contributing rows: installed window whose head key is <=
            # the threshold -- the matrix analogue of the scalar path's
            # ``_first_bytes > threshold_bytes`` skip.
            mask = self.F <= threshold
            mask &= self.ready
            rows = np.nonzero(mask)[0]
            if not rows.size:
                # Impossible under the driver protocol: the cursor that
                # defines the threshold always contributes its head.
                raise SimulationError("merge_step emitted nothing")
            # Emit counts for just those rows: entries with key <= the
            # threshold, counted by binary search over each sorted
            # mirrored row -- exactly _count_leq_words' predicate by
            # the isomorphism.  Entries before `starts` were taken
            # under an earlier (<=) threshold, so the count minus
            # `starts` is the number of fresh entries to take.
            S = self.S
            counts = [
                S[r, :n].searchsorted(threshold, side="right")
                for r, n in zip(rows.tolist(), ns[rows].tolist())
            ]
            lens = np.asarray(counts, dtype=np.int64) - starts[rows]
        else:
            # Every file fully windowed: drain everything left.
            rows = np.nonzero(self.ready)[0]
            if not rows.size:
                raise SimulationError("merge_step emitted nothing")
            lens = (ns - starts)[rows]
        s_arr = starts[rows]
        new_starts = s_arr + lens
        ns_r = ns[rows]
        # Cursor bookkeeping (replaces per-piece ``take`` calls).
        emptied: List[RunCursor] = []
        row_cursors = self.row_cursors
        ready = self.ready
        for r, s_new, n_row, cnt in zip(
            rows.tolist(), new_starts.tolist(), ns_r.tolist(), lens.tolist()
        ):
            c = row_cursors[r]
            c._start = s_new
            c.taken += cnt
            if s_new == n_row:
                # Await refill (or death): a drained row must not keep
                # feeding its stale last key into the threshold.
                ready[r] = False
                emptied.append(c)
        starts[rows] = new_starts
        if rows.size == 1:
            # Single contributing window: the slice is already sorted
            # (a stable sort would be the identity permutation).
            i = int(rows[0])
            s = int(s_arr[0])
            e = int(new_starts[0])
            if e < ns[i]:
                self.F[i] = self.S[i, e]
            return self.E[i, s:e].copy(), emptied
        # Segment-gather every emitted entry (and its sort key) out of
        # the mirrors in one shot: rows ascending, then window order --
        # identical to the scalar path's piece concatenation order.
        total = int(lens.sum())
        rep_rows = np.repeat(rows, lens)
        csum = np.cumsum(lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(csum - lens, lens)
        pos = np.repeat(s_arr, lens) + within
        merged = self.E[rep_rows, pos]
        skeys = self.S[rep_rows, pos]
        # Refresh head keys of rows that still have entries windowed.
        open_mask = new_starts < ns_r
        alive = rows[open_mask]
        if alive.size:
            self.F[alive] = self.S[alive, new_starts[open_mask]]
        order = np.argsort(skeys, kind="stable")
        return merged[order], emptied


class MergeFrontier:
    """Incremental cursor bookkeeping for a k-way merge loop.

    The naive loop re-derives everything from the full cursor list every
    step -- ``any(not c.done)``, ``[c for c in cursors if
    c.needs_refill]``, the live filter inside :func:`merge_step` and two
    more filters inside :func:`redistribute_on_drain` -- which is O(k)
    property evaluations per emitted batch and dominates wide merges.
    The frontier tracks the same state transitions incrementally: a
    cursor only changes state when a step empties its window, so refill
    and drain sets fall out of :func:`_frontier_step` for free, and
    ``file_exhausted`` is evaluated once per refill instead of once per
    step.  Buffer-share redistribution on drain is applied identically
    to :func:`redistribute_on_drain`.
    """

    def __init__(self, cursors: List[RunCursor]):
        self.cursors = list(cursors)
        self.live = [c for c in self.cursors if not c.done]
        self.to_refill = [c for c in self.live if c.needs_refill]
        self._exhausted = {c: c.file_exhausted for c in self.live}
        # Cursors already done before the merge starts (empty run files)
        # still hold a buffer share; the reference loop hands it to the
        # survivors on its first redistribute call, i.e. after the first
        # step -- not before the first refill.
        self._initial_drained = [
            c for c in self.cursors if c.done and c.window_entries > 0
        ]
        #: Columnar batch index (vector path); ``None`` falls back to
        #: the scalar :func:`_frontier_step` -- non-uniform or
        #: subclassed cursor fleets, or ``REPRO_SIM_VECTOR=0``.
        self._index = (
            _FrontierIndex(self.live)
            if vector_enabled() and _FrontierIndex.eligible(self.live)
            else None
        )

    @property
    def done(self) -> bool:
        return not self.live

    def take_refills(self) -> List[RunCursor]:
        """Cursors whose window must be refilled before the next step."""
        refills, self.to_refill = self.to_refill, []
        return refills

    def note_refilled(self, cursors: List[RunCursor]) -> None:
        """Refresh cached exhaustion state after ``accept`` calls."""
        exhausted = self._exhausted
        index = self._index
        for c in cursors:
            exhausted[c] = c.file_exhausted
            if index is not None:
                index.load_row(c)

    def step(self) -> Tuple[np.ndarray, int]:
        """One merge step; updates refill/drain bookkeeping."""
        if self._index is not None:
            emitted, emptied = self._index.step_batch()
            ways = len(self.live)
        else:
            emitted, ways, emptied = _frontier_step(self.live, self._exhausted)
        newly_drained: List[RunCursor] = []
        for c in emptied:
            if self._exhausted[c]:
                newly_drained.append(c)
            else:
                self.to_refill.append(c)
        drained = self._initial_drained + newly_drained
        if newly_drained:
            dset = set(newly_drained)
            self.live = [c for c in self.live if c not in dset]
            for c in newly_drained:
                del self._exhausted[c]
                if self._index is not None:
                    self._index.mark_dead(c)
        if drained:
            if self.live:
                self._initial_drained = []
                # Same arithmetic as redistribute_on_drain: the freshly
                # drained cursors' buffer share moves to the survivors.
                freed_entries = sum(c.window_entries for c in drained)
                for c in drained:
                    c.window_entries = 0
                share = ceil_div(freed_entries, len(self.live))
                for c in self.live:
                    c.window_entries += share
        return emitted, ways


def redistribute_on_drain(cursors: List[RunCursor]) -> None:
    """Hand a freshly-drained cursor's buffer share to live neighbours.

    "the read buffer space allotted to this IndexMap will be transferred
    to a neighboring IndexMaps evenly" (Sec 3.7, step 9).
    """
    live = [c for c in cursors if not c.done]
    drained = [c for c in cursors if c.done and c.window_entries > 0]
    if not live or not drained:
        return
    freed_entries = sum(c.window_entries for c in drained)
    for c in drained:
        c.window_entries = 0
    share = ceil_div(freed_entries, len(live))
    for c in live:
        c.window_entries += share


def window_bytes_per_run(read_buffer: int, n_runs: int, entry_size: int) -> int:
    """Split the read buffer evenly among runs, aligned to entries."""
    if n_runs < 1:
        raise SimulationError("need at least one run")
    per_run = read_buffer // n_runs
    return max(entry_size, (per_run // entry_size) * entry_size)
