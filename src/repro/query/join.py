"""Sort-merge join over IndexMaps, without moving non-matching values.

"two IndexMap files can be used to perform joins on relations without
moving entire values associated with them" (paper Sec 5).  Both sides'
IndexMaps are already sorted, so the match phase is a linear merge over
key-pointer entries; values are gathered -- concurrently, in batches --
only for rows that actually join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.device.profile import Pattern
from repro.errors import ConfigError
from repro.query.sorted_index import SortedIndex
from repro.records.format import key_strings

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine


@dataclass
class JoinResult:
    """Matched row pairs plus the simulated cost of producing them."""

    left_records: np.ndarray  # (n, left_record_size)
    right_records: np.ndarray  # (n, right_record_size)
    elapsed: float
    matches: int = 0
    extras: dict = field(default_factory=dict)


def _keys_as_bytes(keys: np.ndarray) -> List[bytes]:
    # Python compares the (NUL-stripped) items in key order; see key_strings.
    return key_strings(keys).tolist()


def _match_sorted(left_keys, right_keys) -> Tuple[List[int], List[int]]:
    """Indices of matching pairs between two sorted key lists (inner join,
    producing the full cross product for duplicate keys)."""
    li, ri = 0, 0
    left_idx: List[int] = []
    right_idx: List[int] = []
    nl, nr = len(left_keys), len(right_keys)
    while li < nl and ri < nr:
        if left_keys[li] < right_keys[ri]:
            li += 1
        elif left_keys[li] > right_keys[ri]:
            ri += 1
        else:
            key = left_keys[li]
            l_end = li
            while l_end < nl and left_keys[l_end] == key:
                l_end += 1
            r_end = ri
            while r_end < nr and right_keys[r_end] == key:
                r_end += 1
            for a in range(li, l_end):
                for b in range(ri, r_end):
                    left_idx.append(a)
                    right_idx.append(b)
            li, ri = l_end, r_end
    return left_idx, right_idx


def indexmap_join(
    left: SortedIndex, right: SortedIndex, batch_rows: int = 8192
) -> JoinResult:
    """Inner-join two indexed relations on their full keys.

    Both indexes must be built and share one machine (one device).  The
    merge over key-pointer entries is charged as single-threaded compare
    work; value gathers run at the random-read pool size, batched, with
    left and right gathers of a batch issued back-to-back (reads only --
    no interference concern).
    """
    if left.machine is not right.machine:
        raise ConfigError("join requires both relations on one machine")
    if left.fmt.key_size != right.fmt.key_size:
        raise ConfigError("join keys must have equal width")
    machine: "Machine" = left.machine
    left_map = left._require_built()
    right_map = right._require_built()

    t0 = machine.now
    left_keys = _keys_as_bytes(left_map.keys)
    right_keys = _keys_as_bytes(right_map.keys)
    left_idx, right_idx = _match_sorted(left_keys, right_keys)
    holder = {"left": [], "right": []}

    def proc():
        # Linear merge over both IndexMaps: ~one comparison per entry.
        yield machine.compute(
            machine.host.merge_compare_seconds(
                len(left_keys) + len(right_keys), ways=2
            ),
            tag="JOIN merge",
            cores=1,
        )
        for start in range(0, len(left_idx), batch_rows):
            stop = min(start + batch_rows, len(left_idx))
            lpart = left_map.select(np.asarray(left_idx[start:stop], dtype=np.int64))
            rpart = right_map.select(np.asarray(right_idx[start:stop], dtype=np.int64))
            ldata = yield left.relation.read_gather(
                lpart.pointers,
                left.fmt.record_size,
                tag="JOIN gather",
                threads=left._controller.read_threads(Pattern.RAND),
            )
            rdata = yield right.relation.read_gather(
                rpart.pointers,
                right.fmt.record_size,
                tag="JOIN gather",
                threads=right._controller.read_threads(Pattern.RAND),
            )
            holder["left"].append(ldata)
            holder["right"].append(rdata)

    machine.run(proc(), name="indexmap-join")
    empty_l = np.zeros((0, left.fmt.record_size), dtype=np.uint8)
    empty_r = np.zeros((0, right.fmt.record_size), dtype=np.uint8)
    left_records = (
        np.concatenate(holder["left"]) if holder["left"] else empty_l
    )
    right_records = (
        np.concatenate(holder["right"]) if holder["right"] else empty_r
    )
    return JoinResult(
        left_records=left_records,
        right_records=right_records,
        elapsed=machine.now - t0,
        matches=len(left_idx),
    )
