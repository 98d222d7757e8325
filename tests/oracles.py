"""Reference implementations the tests compare ``src/`` against.

Not collected by pytest (the name matches no ``python_files`` pattern);
test modules import it as ``from oracles import ...``.
"""

import numpy as np

from repro.errors import StorageError
from repro.storage.compression import Codec
from repro.storage.varint import decode_varint, decode_varints_block


def seed_greedy_max_coverage(n_vertices, rr_sets, k):
    """The seed (pre-CSR) greedy, verbatim: dict inversion, masked argmax.

    The only independent oracle for ``repro.greedy_max_coverage`` — the
    benchmark's own answer check runs the same kernel on both sides.
    """
    rr_sets = [np.asarray(rr, dtype=np.int64) for rr in rr_sets]
    inverted = {}
    for set_id, rr in enumerate(rr_sets):
        for v in rr:
            inverted.setdefault(int(v), []).append(set_id)
    counts = np.zeros(n_vertices, dtype=np.int64)
    for v, ids in inverted.items():
        counts[v] = len(ids)
    covered = np.zeros(len(rr_sets), dtype=bool)
    selected = np.zeros(n_vertices, dtype=bool)
    seeds, marginals = [], []
    for _ in range(min(k, n_vertices)):
        masked = np.where(selected, -1, counts)
        best = int(np.argmax(masked))
        seeds.append(best)
        marginals.append(int(counts[best]))
        selected[best] = True
        for set_id in inverted.get(best, ()):
            if not covered[set_id]:
                covered[set_id] = True
                counts[rr_sets[set_id]] -= 1
    return seeds, marginals


# ----------------------------------------------------------------------
# The per-list id-list decoder, moved verbatim from src/ when the batch
# decoder became the only one there (``decompress_ids``, ``_pfor_decode``
# and ``bitpack.unpack_fixed_width``).  The only independent oracle for
# ``decompress_ids_batch`` — the benchmark decodes with the batch decoder
# on both sides.
# ----------------------------------------------------------------------
_PFOR_BLOCK = 128
_MAX_WIDTH = 64


def decompress_ids(data, offset=0):
    """Decode one id list at ``offset``; returns ``(ids, next_offset)``."""
    if offset >= len(data):
        raise StorageError("truncated id list: missing codec tag")
    try:
        codec = Codec(data[offset])
    except ValueError:
        raise StorageError(f"unknown codec tag {data[offset]}") from None
    count, pos = decode_varint(data, offset + 1)
    if count == 0:
        return np.empty(0, dtype=np.int64), pos
    if codec is Codec.RAW:
        nbytes = count * 8
        if pos + nbytes > len(data):
            raise StorageError("truncated RAW id list")
        arr = np.frombuffer(data[pos : pos + nbytes], dtype="<u8").astype(np.int64)
        return arr, pos + nbytes
    if codec is Codec.VARINT:
        gaps, pos = decode_varints_block(data, count, pos)
        _check_id_gaps(gaps)
        return np.cumsum(gaps.astype(np.int64)), pos
    gaps, pos = _pfor_decode(data, count, pos)
    _check_id_gaps(gaps)
    return np.cumsum(gaps.astype(np.int64)), pos


def _check_id_gaps(gaps):
    if len(gaps) and int(gaps.max()) > 0x7FFF_FFFF_FFFF_FFFF:
        raise StorageError("id gap exceeds the signed 64-bit id domain")


def _pfor_decode(data, count, offset):
    gaps = np.empty(count, dtype=np.uint64)
    filled = 0
    pos = offset
    while filled < count:
        block_len = min(_PFOR_BLOCK, count - filled)
        if pos >= len(data):
            raise StorageError("truncated PFoR block header")
        width = data[pos]
        pos += 1
        if not 1 <= width <= 64:
            raise StorageError(f"bad PFoR width {width}")
        n_exceptions, pos = decode_varint(data, pos)
        if n_exceptions:
            # (position, excess) pairs are back-to-back varints: one
            # block decode, then de-interleave.  Range-check on the
            # unsigned values — an int64 cast first would wrap corrupt
            # positions >= 2^63 negative, past the guard.
            pairs, pos = decode_varints_block(data, 2 * n_exceptions, pos)
            if np.any(pairs[0::2] >= np.uint64(block_len)):
                raise StorageError("PFoR exception position out of range")
            positions_ = pairs[0::2].astype(np.int64)
        payload_bytes = (width * block_len + 7) // 8
        if pos + payload_bytes > len(data):
            raise StorageError("truncated PFoR payload")
        block = unpack_fixed_width(data[pos : pos + payload_bytes], width, block_len)
        pos += payload_bytes
        if n_exceptions:
            # bitwise_or.at, not fancy |=: duplicate positions (corrupt
            # but decodable) must OR-accumulate like the sequential walk.
            np.bitwise_or.at(block, positions_, pairs[1::2] << np.uint64(width))
        gaps[filled : filled + block_len] = block
        filled += block_len
    return gaps, pos


def unpack_fixed_width(data, width, count):
    """Inverse of ``pack_fixed_width``; returns ``uint64`` array."""
    if not 1 <= width <= _MAX_WIDTH:
        raise StorageError(f"width must be in [1, {_MAX_WIDTH}], got {width}")
    if count < 0:
        raise StorageError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    needed_bits = width * count
    needed_bytes = (needed_bits + 7) // 8
    if len(data) < needed_bytes:
        raise StorageError(
            f"bit-packed payload truncated: need {needed_bytes} bytes, "
            f"have {len(data)}"
        )
    bits = np.unpackbits(
        np.frombuffer(data[:needed_bytes], dtype=np.uint8), bitorder="little"
    )[:needed_bits]
    bit_matrix = bits.reshape(count, width).astype(np.uint64)
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    return bit_matrix @ weights
