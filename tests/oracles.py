"""Reference implementations the tests compare ``src/`` against.

Not collected by pytest (the name matches no ``python_files`` pattern);
test modules import it as ``from oracles import ...``.
"""

import numpy as np


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
