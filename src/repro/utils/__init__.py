"""Shared utilities: RNG plumbing, validation helpers, log-combinatorics."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.logmath import log_binomial, log_n_choose_k
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "log_binomial",
    "log_n_choose_k",
    "check_fraction",
    "check_positive",
    "check_positive_int",
]
