"""Gather payloads against the index-matrix reference expression.

``SimFile.read_gather`` and ``read_strided`` move one contiguous row per
access.  These properties pin their payloads to the elementwise
``data[starts[:, None] + arange(access_size)]`` gather they replaced,
under every injector mode, and check that each payload is a fresh
C-contiguous array that does not alias the file.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.machine import Machine

#: ``None``: no injector.  ``"count"``: armed as a pure op counter.
#: ``"transient"``: the first timed op fails once and is retried, so the
#: payload is built twice.
INJECTOR_MODES = (None, "count", "transient")


def reference_gather(data: np.ndarray, starts, access_size: int) -> np.ndarray:
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    return data[starts[:, None] + np.arange(access_size, dtype=np.int64)]


def reference_strided(data, offset, count, stride, access_size) -> np.ndarray:
    starts = offset + np.arange(count, dtype=np.int64) * stride
    return reference_gather(data, starts, access_size)


def make_file(content: np.ndarray, mode):
    machine = Machine()
    if mode == "count":
        machine.install_faults(FaultPlan(), count_only=True)
    elif mode == "transient":
        machine.install_faults(
            FaultPlan(events=[FaultEvent("transient", at_op=0)], seed=1)
        )
    f = machine.fs.create("data")
    f.poke(0, content)
    return machine, f


def run_op(machine, op):
    def job():
        return (yield op)

    return machine.run(job())


def check_payload(machine, f, op, expected: np.ndarray, mode=None) -> None:
    payload = run_op(machine, op)
    if mode == "transient" and expected.size:
        assert machine.faults.stats.retries == 1
    assert payload.dtype == np.uint8
    assert payload.flags.c_contiguous
    assert np.array_equal(payload, expected)
    assert not np.shares_memory(payload, f._data)
    # Overwriting the file afterwards must not reach the payload.
    f.poke(0, np.bitwise_not(f.peek()))
    assert np.array_equal(payload, expected)


@st.composite
def file_and_gather(draw):
    size = draw(st.integers(1, 400))
    access_size = draw(st.integers(1, min(size, 40)))
    content = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), np.uint8)
    pool = draw(st.lists(st.integers(0, size - access_size), min_size=1, max_size=6))
    # Draws from a small pool give repeated and overlapping offsets.
    offsets = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=30))
    return content, access_size, offsets


@st.composite
def file_and_strided(draw):
    size = draw(st.integers(1, 400))
    access_size = draw(st.integers(1, min(size, 40)))
    content = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), np.uint8)
    stride = draw(st.one_of(st.just(access_size), st.integers(access_size, 80)))
    offset = draw(st.integers(0, size - access_size))
    max_count = (size - access_size - offset) // stride + 1
    count = draw(st.integers(0, max_count))
    return content, offset, count, stride, access_size


class TestGatherEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(case=file_and_gather(), mode=st.sampled_from(INJECTOR_MODES))
    def test_read_gather_matches_index_matrix(self, case, mode):
        content, access_size, offsets = case
        machine, f = make_file(content, mode)
        expected = reference_gather(content, offsets, access_size)
        op = f.read_gather(offsets, access_size, tag="g")
        check_payload(machine, f, op, expected, mode)

    @settings(max_examples=150, deadline=None)
    @given(case=file_and_strided(), mode=st.sampled_from(INJECTOR_MODES))
    def test_read_strided_matches_index_matrix(self, case, mode):
        content, offset, count, stride, access_size = case
        machine, f = make_file(content, mode)
        expected = reference_strided(content, offset, count, stride, access_size)
        op = f.read_strided(offset, count, stride, access_size, tag="s")
        check_payload(machine, f, op, expected, mode)


class TestGatherEdges:
    @pytest.mark.parametrize("mode", INJECTOR_MODES)
    def test_size_not_a_multiple_of_access_size(self, mode):
        content = (np.arange(1003) * 7 % 251).astype(np.uint8)
        machine, f = make_file(content, mode)
        offsets = [993, 0, 500, 993, 3]
        check_payload(
            machine, f, f.read_gather(offsets, 10, tag="g"),
            reference_gather(content, offsets, 10), mode,
        )
        machine, f = make_file(content, mode)
        check_payload(
            machine, f, f.read_strided(3, 100, 10, 10, tag="s"),
            reference_strided(content, 3, 100, 10, 10), mode,
        )

    @pytest.mark.parametrize("mode", INJECTOR_MODES)
    def test_count_zero(self, mode):
        content = np.arange(64, dtype=np.uint8)
        machine, f = make_file(content, mode)
        check_payload(
            machine, f, f.read_gather([], 8, tag="g"), np.zeros((0, 8), np.uint8)
        )
        check_payload(
            machine, f, f.read_strided(0, 0, 16, 8, tag="s"), np.zeros((0, 8), np.uint8)
        )

    def test_poke_after_build_does_not_reach_payload(self):
        content = np.arange(256, dtype=np.uint8)
        machine, f = make_file(content, None)
        gather = f.read_gather([5, 100, 5], 16, tag="g")
        strided = f.read_strided(7, 8, 30, 12, tag="s")
        f.poke(0, np.zeros(256, dtype=np.uint8))
        assert np.array_equal(
            run_op(machine, gather), reference_gather(content, [5, 100, 5], 16)
        )
        assert np.array_equal(
            run_op(machine, strided), reference_strided(content, 7, 8, 30, 12)
        )

    def test_last_byte_past_end_still_rejected(self):
        machine, f = make_file(np.zeros(100, dtype=np.uint8), None)
        with pytest.raises(StorageError):
            f.read_gather([91], 10, tag="g")
        with pytest.raises(StorageError):
            f.read_strided(1, 10, 10, 10, tag="s")
        with pytest.raises(StorageError):
            f.read_strided(0, 2, 4, 5, tag="s")
