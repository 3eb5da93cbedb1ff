"""Fixed-size record geometry and byte-exact key ordering.

Keys are arbitrary binary strings compared lexicographically as unsigned
bytes (gensort semantics).  Matrix-wide compares and sorts run on a
fixed-width ``S<k>`` view of the key rows (:func:`key_strings`); the
scalar merge cursor keeps big-endian uint64 words (:func:`key_columns`,
:func:`key_words`) for its two-level binary search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import RecordFormatError
from repro.units import ceil_div


@dataclass(frozen=True)
class RecordFormat:
    """Geometry of a fixed-size sortbenchmark record.

    The default matches the paper's workloads: 10-byte key, 90-byte
    value, 5-byte pointers in IndexMaps (a 5-byte pointer addresses 2^40
    record offsets, Sec 3.3 footnote).
    """

    key_size: int = 10
    value_size: int = 90
    pointer_size: int = 5

    def __post_init__(self):
        if self.key_size < 1:
            raise RecordFormatError("key_size must be >= 1")
        if self.value_size < 0:
            raise RecordFormatError("value_size must be >= 0")
        if self.pointer_size < 1 or self.pointer_size > 8:
            raise RecordFormatError("pointer_size must be in [1, 8]")

    @property
    def record_size(self) -> int:
        return self.key_size + self.value_size

    @property
    def index_entry_size(self) -> int:
        """Bytes per IndexMap entry: key + pointer."""
        return self.key_size + self.pointer_size

    def file_bytes(self, n_records: int) -> int:
        return n_records * self.record_size

    def max_addressable_records(self) -> int:
        """How many record slots a pointer of this width can address."""
        return 1 << (8 * self.pointer_size)

    def describe(self) -> str:
        return (
            f"{self.key_size}B key + {self.value_size}B value "
            f"({self.record_size}B records, {self.pointer_size}B pointers)"
        )


def key_columns(keys: np.ndarray) -> List[np.ndarray]:
    """Convert an ``(n, k)`` uint8 key matrix to big-endian u64 columns.

    The returned columns are most-significant first: comparing rows by
    these columns in order is exactly unsigned lexicographic comparison
    of the original byte strings.
    """
    if keys.ndim != 2:
        raise RecordFormatError(f"keys must be 2-D, got shape {keys.shape}")
    n, k = keys.shape
    width = ceil_div(max(k, 1), 8) * 8
    padded = np.zeros((n, width), dtype=np.uint8)
    if k:
        padded[:, :k] = keys
    cols = []
    for j in range(width // 8):
        chunk = np.ascontiguousarray(padded[:, j * 8 : (j + 1) * 8])
        cols.append(chunk.view(">u8").reshape(n))
    return cols


def key_words(key) -> tuple:
    """One key (bytes or 1-D uint8 array) as big-endian uint64 words.

    Zero-pads on the right to a multiple of 8 bytes, matching the column
    layout of :func:`key_columns`: comparing the word tuples is exactly
    unsigned lexicographic comparison of the original byte strings.
    """
    b = bytes(key)
    width = ceil_div(max(len(b), 1), 8) * 8
    if len(b) < width:
        b = b.ljust(width, b"\x00")
    return tuple(
        int.from_bytes(b[j : j + 8], "big") for j in range(0, width, 8)
    )


def key_strings(keys: np.ndarray) -> np.ndarray:
    """Rows of an ``(n, k)`` uint8 key matrix as a length-n ``S<k>`` array.

    numpy compares ``S`` items as byte strings with trailing NULs
    stripped.  On items of equal width that order is isomorphic to
    unsigned lexicographic order of the raw bytes: at the first byte
    where two items differ, either both stripped strings extend past it
    (the same byte decides both compares) or exactly the side holding a
    NUL there ended early (a prefix sorts before its extension, and NUL
    is the smallest byte -- the same verdict).  Equality agrees too,
    since equal-width items that strip to the same string hold the same
    bytes.  So ``<``, ``==``, ``np.sort``, stable ``np.argsort`` and
    ``np.searchsorted`` on the result order keys exactly as gensort
    does.

    A C-contiguous input is viewed, not copied; any other layout (a key
    slice of a record matrix) is copied once.  Zero-width keys all
    compare equal, so they map to ``n`` empty ``S1`` items (numpy has no
    sized ``S0``).
    """
    if keys.ndim != 2:
        raise RecordFormatError(f"keys must be 2-D, got shape {keys.shape}")
    n, k = keys.shape
    if k == 0:
        return np.zeros(n, dtype="S1")
    rows = np.ascontiguousarray(keys, dtype=np.uint8)
    return rows.view("S%d" % k).reshape(n)


def key_sort_indices(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of binary keys (rows of an ``(n, k)`` uint8 matrix)."""
    return np.argsort(key_strings(keys), kind="stable")


def record_sort_indices(records: np.ndarray, key_size: int) -> np.ndarray:
    """Stable argsort of fixed-size records by their leading key bytes."""
    if records.ndim != 2:
        raise RecordFormatError("records must be a 2-D uint8 matrix")
    if key_size > records.shape[1]:
        raise RecordFormatError("key_size exceeds record size")
    return key_sort_indices(records[:, :key_size])


def keys_ascending(keys: np.ndarray) -> bool:
    """True iff consecutive rows are in non-decreasing key order."""
    strings = key_strings(keys)
    return bool(np.all(strings[:-1] <= strings[1:]))


def leq_mask(keys: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Boolean mask: row key <= ``bound`` (unsigned lexicographic).

    ``bound`` is a single key as a 1-D uint8 array of the same width.
    """
    strings = key_strings(keys)
    bound = np.asarray(bound, dtype=np.uint8).reshape(1, -1)
    if bound.shape[1] != keys.shape[1]:
        raise RecordFormatError("bound width must match key width")
    return strings <= key_strings(bound)[0]


def min_key(candidates: np.ndarray) -> np.ndarray:
    """Lexicographic minimum row of an ``(n, k)`` uint8 key matrix."""
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise RecordFormatError("need a non-empty 2-D key matrix")
    order = key_sort_indices(candidates)
    return candidates[order[0]]
