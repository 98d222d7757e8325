"""Small argument-validation helpers.

These exist so that public entry points fail fast with a clear message
instead of deep inside numpy with an opaque broadcasting error.  Each
helper returns the (possibly coerced) value so it can be used inline:

    k = check_positive_int("k", k)
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


def check_positive_int(name: str, value: int) -> int:
    """Require ``value`` to be an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_positive(name: str, value: Number) -> float:
    """Require ``value`` to be a finite number > 0 and return it as ``float``."""
    value = _check_number(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_fraction(name: str, value: Number, *, inclusive: bool = False) -> float:
    """Require ``value`` to lie in ``(0, 1)`` (or ``[0, 1]`` if inclusive)."""
    value = _check_number(name, value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def _check_number(name: str, value: Number) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{name} must be finite, got {value}")
    return value
