"""Fixed-width bit packing over numpy arrays.

The PFoR-style codec in :mod:`repro.storage.compression` packs each block's
values into ``b`` bits each.  This module implements that primitive:
:func:`pack_fixed_width` packs one ``uint64`` array into a little-endian
bitstream of ``width`` bits per value, and :func:`unpack_width_group` is
its inverse in the batched form the record decoder drives — many
same-width blocks, concatenated byte-aligned, unpacked with a single
``unpackbits`` + gather + matmul.  It trusts its byte ranges: the block
header walk (:meth:`~repro.storage.compression.BatchIdDecoder.read_list`)
rejects a truncated payload before a block is ever queued for unpacking.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.utils.segments import segmented_arange

__all__ = [
    "pack_fixed_width",
    "unpack_width_group",
    "bits_needed",
]

_MAX_WIDTH = 64


def bits_needed(values: np.ndarray) -> int:
    """Smallest width (>= 1) that can represent every value in ``values``."""
    if len(values) == 0:
        return 1
    top = int(np.asarray(values).max())
    if top < 0:
        raise StorageError("bit packing requires non-negative values")
    return max(1, top.bit_length())


def pack_fixed_width(values: np.ndarray, width: int) -> bytes:
    """Pack ``values`` into ``width``-bit little-endian fields.

    Raises :class:`~repro.errors.StorageError` when a value does not fit.
    """
    if not 1 <= width <= _MAX_WIDTH:
        raise StorageError(f"width must be in [1, {_MAX_WIDTH}], got {width}")
    arr = np.ascontiguousarray(values, dtype=np.uint64)
    if len(arr) and width < _MAX_WIDTH and int(arr.max()) >= (1 << width):
        raise StorageError(
            f"value {int(arr.max())} does not fit in {width} bits"
        )
    if len(arr) == 0:
        return b""
    # Expand each value into its bits (LSB first), then pack.
    bit_matrix = (
        arr[:, None] >> np.arange(width, dtype=np.uint64)[None, :]
    ) & np.uint64(1)
    bits = bit_matrix.reshape(-1).astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_width_group(
    packed: np.ndarray,
    byte_starts: np.ndarray,
    value_counts: np.ndarray,
    width: int,
) -> np.ndarray:
    """Unpack many same-``width`` blocks concatenated in ``packed``.

    ``packed`` is a ``uint8`` array holding the blocks' payload bytes back
    to back; block ``i`` starts at byte ``byte_starts[i]`` and carries
    ``value_counts[i]`` values (each block's values start byte-aligned,
    exactly as :func:`pack_fixed_width` emits them).  Returns the
    ``uint64`` values of every block, concatenated — one ``unpackbits``
    + segmented gather + matmul for the whole group, which is how the
    batch record decoder amortises thousands of tiny blocks.
    """
    if not 1 <= width <= _MAX_WIDTH:
        raise StorageError(f"width must be in [1, {_MAX_WIDTH}], got {width}")
    bits = np.unpackbits(packed, bitorder="little")
    gather = segmented_arange(byte_starts * 8, value_counts * width)
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    return bits[gather].reshape(-1, width).astype(np.uint64) @ weights
