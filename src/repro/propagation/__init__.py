"""Propagation substrate: the IC and LT models, simulation, exact math.

Every model exposes the two primitives the paper's machinery needs:

* ``sample_rr_sets(roots, rng)`` — one Reverse Reachable set
  (Definition 2) per root, as one batched ``FlatRRSets``;
* ``simulate(seeds, rng)`` — one forward cascade ``I(S)``.

RIS-style algorithms only ever call ``sample_rr_sets``; forward simulation
exists to *validate* the reverse samplers (the two must agree on expected
spread) and to report influence numbers in the experiment tables.
"""

from repro.propagation.base import PropagationModel
from repro.propagation.ic import IndependentCascade
from repro.propagation.lt import LinearThreshold
from repro.propagation.simulate import SpreadEstimate, estimate_spread
from repro.propagation.exact import (
    exact_activation_probabilities,
    exact_optimal_seed_set,
    exact_spread,
)

__all__ = [
    "PropagationModel",
    "IndependentCascade",
    "LinearThreshold",
    "SpreadEstimate",
    "estimate_spread",
    "exact_activation_probabilities",
    "exact_optimal_seed_set",
    "exact_spread",
]
