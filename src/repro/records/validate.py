"""valsort-workalike output validation.

The sortbenchmark rules require the output to be "a permutation of the
input file, sorted in key ascending order" (Sec 4.1).  We check both
properties byte-exactly:

* sortedness: consecutive keys compare non-decreasing;
* permutation: the multisets of whole records in input and output match
  (each side's records sorted as fixed-width byte strings, then compared).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError
from repro.records.format import RecordFormat, key_strings, keys_ascending
from repro.records.klv import KLVFormat, decode_klv

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.file import SimFile


def _as_record_matrix(data: np.ndarray, record_size: int) -> np.ndarray:
    if data.size % record_size:
        raise ValidationError(
            f"file size {data.size} is not a multiple of record size {record_size}"
        )
    return data.reshape(-1, record_size)


def validate_sorted_records(
    input_records: np.ndarray, output_records: np.ndarray, key_size: int
) -> None:
    """Raise :class:`ValidationError` unless output is a sorted permutation."""
    if input_records.shape != output_records.shape:
        raise ValidationError(
            f"record counts differ: input {input_records.shape} vs "
            f"output {output_records.shape}"
        )
    if not keys_ascending(output_records[:, :key_size]):
        raise ValidationError("output keys are not in ascending order")
    left = np.sort(key_strings(input_records))
    right = np.sort(key_strings(output_records))
    # Equal-width items are equal iff their bytes are: compare raw bytes.
    if not np.array_equal(left.view(np.uint8), right.view(np.uint8)):
        raise ValidationError("output is not a permutation of the input records")


def validate_sorted_file(
    input_file: "SimFile", output_file: "SimFile", fmt: RecordFormat
) -> int:
    """Validate fixed-size-record output; returns the record count."""
    input_data = input_file.peek()
    output_data = output_file.peek()
    input_records = _as_record_matrix(input_data, fmt.record_size)
    output_records = _as_record_matrix(output_data, fmt.record_size)
    validate_sorted_records(input_records, output_records, fmt.key_size)
    return input_records.shape[0]


def validate_sorted_klv(
    input_file: "SimFile", output_file: "SimFile", fmt: KLVFormat
) -> int:
    """Validate variable-length KLV output; returns the record count."""
    input_pairs = decode_klv(input_file.peek(), fmt)
    output_pairs = decode_klv(output_file.peek(), fmt)
    if len(input_pairs) != len(output_pairs):
        raise ValidationError(
            f"record counts differ: {len(input_pairs)} vs {len(output_pairs)}"
        )
    keys = [k for k, _ in output_pairs]
    if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
        raise ValidationError("KLV output keys are not in ascending order")
    if sorted(input_pairs) != sorted(output_pairs):
        raise ValidationError("KLV output is not a permutation of the input")
    return len(input_pairs)
