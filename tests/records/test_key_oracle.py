"""Key helpers against a brute-force Python ``bytes`` oracle.

Python compares ``bytes`` as unsigned lexicographic strings and
``sorted`` is stable, so ``sorted(range(n), key=lambda i: bytes(keys[i]))``
is an oracle independent of numpy's ``S`` dtype.  Inputs lean on the
cases a fixed-width byte-string compare could get wrong: keys ending in
``0x00``, all-equal and all-``0xFF`` keys, and heavy duplication.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.sharded import ShardedWiscSort
from repro.core.natural_runs import find_natural_runs
from repro.errors import RecordFormatError, ValidationError
from repro.records.format import (
    RecordFormat,
    key_sort_indices,
    key_strings,
    keys_ascending,
    leq_mask,
)
from repro.records.validate import validate_sorted_records

#: Few distinct byte values: many duplicate keys and many trailing NULs.
_BYTES = st.sampled_from([0x00, 0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF])


@st.composite
def key_matrices(draw, max_n: int = 40):
    width = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16]) | st.integers(1, 16))
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(0, max_n))
    kind = draw(st.sampled_from(["mixed", "equal", "ff", "nul-tail"]))
    if kind == "equal":
        row = draw(st.lists(_BYTES, min_size=width, max_size=width))
        rows = [row] * n
    elif kind == "ff":
        rows = [[0xFF] * width] * n
    else:
        rows = draw(
            st.lists(
                st.lists(_BYTES, min_size=width, max_size=width),
                min_size=n,
                max_size=n,
            )
        )
        if kind == "nul-tail":
            cut = draw(st.integers(0, width))
            rows = [r[:cut] + [0] * (width - cut) for r in rows]
    return np.array(rows, dtype=np.uint8).reshape(n, width)


def oracle_order(keys):
    return sorted(range(keys.shape[0]), key=lambda i: bytes(keys[i]))


def oracle_runs(keys):
    n = keys.shape[0]
    runs, start = [], 0
    for i in range(1, n):
        if bytes(keys[i - 1]) > bytes(keys[i]):
            runs.append((start, i))
            start = i
    return runs + [(start, n)] if n else []


def check_all(keys: np.ndarray, bound: np.ndarray) -> None:
    n, width = keys.shape
    as_bytes = [bytes(k) for k in keys]
    assert key_sort_indices(keys).tolist() == oracle_order(keys)
    assert keys_ascending(keys) == all(
        as_bytes[i] <= as_bytes[i + 1] for i in range(n - 1)
    )
    ordered = keys[oracle_order(keys)]
    assert keys_ascending(ordered)
    assert leq_mask(keys, bound).tolist() == [b <= bytes(bound) for b in as_bytes]
    assert find_natural_runs(keys) == oracle_runs(keys)
    # Splitters: a sorted sample of the keys themselves, duplicates kept.
    splitters = ordered[:: max(1, n // 3)][:3]
    sharded = ShardedWiscSort(fmt=RecordFormat(key_size=width, value_size=0))
    pids = sharded._partition_ids(keys, splitters)
    assert pids.dtype == np.int64
    # Equal keys stay in the lower shard: a key goes past a splitter
    # only if it is strictly greater.
    assert pids.tolist() == [
        sum(b > bytes(s) for s in splitters) for b in as_bytes
    ]


class TestKeyHelpersAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(keys=key_matrices(), data=st.data())
    def test_helpers_match_bytes_oracle(self, keys, data):
        width = keys.shape[1]
        if keys.shape[0] and data.draw(st.booleans()):
            bound = keys[data.draw(st.integers(0, keys.shape[0] - 1))]
        else:
            bound = np.array(
                data.draw(st.lists(_BYTES, min_size=width, max_size=width)),
                dtype=np.uint8,
            )
        check_all(keys, bound)

    @pytest.mark.parametrize("width", [1, 8, 10, 16])
    def test_large_n_with_duplicates(self, width):
        rng = np.random.default_rng(width)
        # Four byte values over the leading bytes, NUL tails: ties galore.
        keys = np.zeros((5000, width), dtype=np.uint8)
        lead = min(width, 3)
        keys[:, :lead] = rng.choice(
            np.array([0x00, 0x01, 0x80, 0xFF], dtype=np.uint8), size=(5000, lead)
        )
        check_all(keys, keys[1234])

    def test_key_slice_of_record_matrix(self):
        # A non-contiguous key view sorts like its contiguous copy.
        records = np.random.default_rng(3).integers(0, 4, (300, 12), dtype=np.uint8)
        keys = records[:, :5]
        assert key_sort_indices(keys).tolist() == oracle_order(keys)


class TestKeyStringsEdges:
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    def test_non_2d_input_is_a_typed_error(self, shape):
        with pytest.raises(RecordFormatError):
            key_strings(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_zero_width_keys_all_compare_equal(self, n):
        keys = np.zeros((n, 0), dtype=np.uint8)
        strings = key_strings(keys)
        assert strings.shape == (n,)
        assert (strings == strings[:1]).all()
        assert key_sort_indices(keys).tolist() == list(range(n))
        assert keys_ascending(keys)
        assert leq_mask(keys, np.zeros(0, dtype=np.uint8)).all()

    def test_contiguous_input_is_viewed_not_copied(self):
        keys = np.arange(40, dtype=np.uint8).reshape(4, 10)
        assert np.shares_memory(key_strings(keys), keys)


def _tied_records(n: int = 60, key_size: int = 2, seed: int = 0):
    """Records with many equal keys, each with a distinct value."""
    rng = np.random.default_rng(seed)
    rec = np.zeros((n, key_size + 4), dtype=np.uint8)
    rec[:, :key_size] = rng.choice(np.array([0, 0xFF], np.uint8), (n, key_size))
    rec[:, key_size:] = rng.integers(0, 256, (n, 4), dtype=np.uint8)
    return rec


class TestValidateWithDuplicateKeys:
    def test_accepts_permuted_equal_key_ties(self):
        rec = _tied_records()
        out = rec[oracle_order(rec[:, :2])]
        validate_sorted_records(rec, out, 2)
        # Reverse each tie class: still a sorted permutation.
        keys = [bytes(k) for k in out[:, :2]]
        rev = sorted(range(len(out)), key=lambda i: (keys[i], -i))
        assert rev != list(range(len(out)))
        validate_sorted_records(rec, out[rev], 2)

    def test_rejects_flipped_value_byte(self):
        rec = _tied_records()
        out = rec[oracle_order(rec[:, :2])].copy()
        out[17, 4] ^= 0x01
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(rec, out, 2)

    def test_rejects_record_duplicated_over_another(self):
        rec = _tied_records()
        out = rec[oracle_order(rec[:, :2])].copy()
        # Neighbours share a key (60 records, 4 keys), so order still holds.
        i = next(i for i in range(len(out) - 1) if bytes(out[i, :2]) == bytes(out[i + 1, :2]))
        out[i + 1] = out[i]
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(rec, out, 2)

    def test_rejects_out_of_order_pair(self):
        rec = _tied_records()
        out = rec[oracle_order(rec[:, :2])].copy()
        j = next(j for j in range(len(out) - 1) if bytes(out[j, :2]) < bytes(out[j + 1, :2]))
        out[[j, j + 1]] = out[[j + 1, j]]
        with pytest.raises(ValidationError, match="ascending"):
            validate_sorted_records(rec, out, 2)

    def test_trailing_nul_records_are_distinct(self):
        # "a" + NULs vs "a\x00\x01": equal as NUL-stripped prefixes, not as records.
        rec = np.array([[1, 0, 0], [1, 0, 1]], dtype=np.uint8)
        out = np.array([[1, 0, 0], [1, 0, 0]], dtype=np.uint8)
        with pytest.raises(ValidationError, match="permutation"):
            validate_sorted_records(rec, out, 1)
