"""List-of-arrays adapters for the CSR-taking writers.

The record encoders and the inversion take flat CSR arrays; tests read
better with literal lists.  Not collected by pytest; test modules import
it as ``from listform import ...``.
"""

import numpy as np

from repro.core.rr_index import invert_csr
from repro.storage.records import InvertedListsRecord, RRSetsRecord
from repro.utils.rrsets import FlatRRSets


def encode_rr_sets(sets, *args, **kwargs):
    """``RRSetsRecord.encode`` of a sequence of id arrays."""
    flat = FlatRRSets.from_sets(sets)
    return RRSetsRecord.encode(flat.ptr, flat.vertices, *args, **kwargs)


def encode_inverted_lists(lists, *args):
    """``InvertedListsRecord.encode`` of ``[(key, ids)]``."""
    flat = FlatRRSets.from_sets([ids for _key, ids in lists])
    keys = np.asarray([key for key, _ids in lists], dtype=np.int64)
    return InvertedListsRecord.encode(keys, flat.ptr, flat.vertices, *args)


def invert(sets):
    """Vertex → ascending RR-set ids (the ``L_w`` of Figure 2) as
    ``[(vertex, ids)]``, through the writers' own ``invert_csr``."""
    keys, ptr, set_ids = invert_csr(FlatRRSets.from_sets(sets))
    return list(zip(keys.tolist(), np.split(set_ids, ptr[1:-1])))
