#!/usr/bin/env python
"""Walkthrough of the paper's running example (Figure 1, Examples 1-3).

Reproduces, with exact arithmetic where the paper gives it:

* Example 1 — `E[I({e, g})] = 4.8125` with per-node activation
  probabilities (1, 0.75, 0.6875, 0.375, 1, 0, 1);
* Example 2 — maximum coverage over four RR sets; `{e, f}` covers all;
* Example 3 — the `({music}, 2)` KB-TIM query prefers music-relevant
  seeds, diverging from the untargeted optimum `{e, g}`.

Run:  python examples/paper_walkthrough.py
"""

import numpy as np

from repro import (
    CoverageInstance,
    IndependentCascade,
    KBTIMQuery,
    exact_activation_probabilities,
    exact_optimal_seed_set,
    exact_spread,
    greedy_max_coverage,
    wris_query,
)
from repro.datasets.paper_example import (
    NODE_IDS,
    NODE_NAMES,
    paper_example_graph,
    paper_example_profiles,
)


def main() -> None:
    graph = paper_example_graph()
    profiles = paper_example_profiles()
    model = IndependentCascade(graph)

    print("Figure 1 graph (reconstructed; see repro/datasets/paper_example.py):")
    for u, v, p in graph.edges():
        print(f"  {NODE_NAMES[u]} -> {NODE_NAMES[v]}  p={p}")

    # ----- Example 1 -------------------------------------------------
    print("\nExample 1: exact influence of S = {e, g}")
    seeds = [NODE_IDS["e"], NODE_IDS["g"]]
    probs = exact_activation_probabilities(graph, seeds)
    for name in NODE_NAMES:
        print(f"  p(S -> {name}) = {probs[NODE_IDS[name]]:.4f}")
    total = exact_spread(graph, seeds)
    print(f"  E[I(S)] = {total}  (paper: 4.8125)")
    assert abs(total - 4.8125) < 1e-12

    best, value = exact_optimal_seed_set(graph, 2)
    print(
        f"  brute-force optimal 2-seed set: "
        f"{{{', '.join(NODE_NAMES[v] for v in best)}}} with {value}"
    )

    # ----- Example 2 -------------------------------------------------
    print("\nExample 2: greedy maximum coverage over 4 random RR sets")
    a, b, d, e, f = (NODE_IDS[x] for x in "abdef")
    rr_sets = [
        np.array(sorted([b, d, f])),
        np.array([e]),
        np.array(sorted([d, f])),
        np.array(sorted([a, b, e])),
    ]
    instance = CoverageInstance(graph.n, rr_sets)
    seeds2, marginals = greedy_max_coverage(instance, 2)
    # The inverted CSR: vertex v is in sets vtx_sets[vtx_ptr[v]:vtx_ptr[v + 1]].
    ptr, sets_of = instance.vtx_ptr, instance.vtx_sets
    covered_by_ef = set(sets_of[ptr[e] : ptr[e + 1]].tolist()) | set(
        sets_of[ptr[f] : ptr[f + 1]].tolist()
    )
    print(f"  greedy picks: {[NODE_NAMES[s] for s in seeds2]} "
          f"covering {sum(marginals)} sets")
    print(f"  {{e, f}} covers {len(covered_by_ef)}/4 sets "
          "(the paper's chosen tie-break)")

    # ----- Example 3 -------------------------------------------------
    print("\nExample 3: targeted query Q = ({music}, 2)")
    weights = profiles.phi_vector(["music"])
    targeted, targeted_value = exact_optimal_seed_set(graph, 2, weights)
    print(
        f"  exact targeted optimum: "
        f"{{{', '.join(NODE_NAMES[v] for v in targeted)}}} "
        f"with E[I^music] = {targeted_value:.4f}"
    )
    print("  (differs from the untargeted {e, g}: g only cares about cars)")

    answer = wris_query(
        model, profiles, KBTIMQuery(["music"], 2), theta_override=20_000, rng=1
    )
    achieved = exact_spread(graph, sorted(answer.seeds), weights)
    print(
        f"  WRIS (theta=20000) returns "
        f"{{{', '.join(NODE_NAMES[v] for v in answer.seeds)}}} "
        f"achieving {achieved:.4f} = {achieved / targeted_value:.1%} of optimal"
    )


if __name__ == "__main__":
    main()
