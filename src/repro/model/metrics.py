"""System-level quality metrics (Section 4 of the paper).

The paper evaluates query-allocation methods with three complementary
metrics applied over a set ``S`` of participants and a characteristic
``g`` (adequation, satisfaction, allocation satisfaction, or utilisation):

* :func:`mean` — the arithmetic mean ``µ(g, S)`` (Equation 3), reflecting
  the *efficiency* of the method.
* :func:`fairness` — Jain's fairness index ``f(g, S)`` (Equation 4,
  citing Jain et al., DEC-TR-301), reflecting the *sensitivity* of the
  method to individual participants.
* :func:`min_max_ratio` — the Min-Max balance ``σ(g, S)`` (Equation 5),
  reflecting how far the worst-off participant is from the best-off.

Each metric has a value-based form (takes an array of ``g`` values) and
an entity-based convenience form (takes ``g`` as a callable plus the set
``S``), matching the paper's ``g, S`` notation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TypeVar

import numpy as np

__all__ = [
    "DEFAULT_MIN_MAX_C0",
    "fairness",
    "fairness_of",
    "mean",
    "mean_of",
    "min_max_ratio",
    "min_max_ratio_of",
    "summarize",
]

T = TypeVar("T")

#: Default for the paper's pre-fixed constant ``c0 > 0`` in Equation 5.
DEFAULT_MIN_MAX_C0 = 0.1


#: Smallest normal float64: a ``Σ g²`` below it has lost precision.
_TINY = float(np.finfo(float).tiny)


def _as_values(values: Iterable[float]) -> np.ndarray:
    array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=float)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D collection of values, got shape {array.shape}")
    if array.size == 0:
        raise ValueError("metrics are undefined over an empty set of participants")
    if not np.all(np.isfinite(array)):
        raise ValueError("metrics require finite values")
    return array


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean ``µ`` of a set of characteristic values (Eq. 3).

    The paper uses the arithmetic mean because participant
    characteristics are additive and may legitimately be zero (which
    rules out the geometric/harmonic means).

    Raises
    ------
    ValueError
        If ``values`` is empty or contains non-finite entries.
    """
    return float(_as_values(values).mean())


def fairness(values: Iterable[float]) -> float:
    """Jain's fairness index ``f`` of a set of values (Eq. 4).

    ``f(g, S) = (Σ g(s))² / (|S| · Σ g(s)²)``, in ``[0, 1]``; the greater
    the value, the fairer the allocation across ``S``.

    An all-zero set is treated as perfectly fair (``1.0``): every
    participant gets exactly the same (null) outcome, and the paper's
    formula is otherwise undefined there.

    The index is scale invariant, so when ``Σ g²`` underflows (tiny
    non-zero values) it is computed on ``g / max|g|`` instead; every
    other input takes the plain formula.
    """
    array = _as_values(values)
    denom = float(np.square(array).sum())
    if denom < _TINY:
        peak = float(np.abs(array).max())
        if peak == 0.0:
            return 1.0
        array = array / peak
        denom = float(np.square(array).sum())
    total = float(array.sum())
    return (total * total) / (array.size * denom)


def min_max_ratio(
    values: Iterable[float], c0: float = DEFAULT_MIN_MAX_C0
) -> float:
    """Min-Max balance ``σ`` of a set of values (Eq. 5).

    ``σ(g, S) = (min g(s) + c0) / (max g(s) + c0)`` with a pre-fixed
    constant ``c0 > 0`` that keeps the ratio defined when the maximum is
    zero.  Values lie in ``(0, 1]`` for non-negative inputs; the greater,
    the better balanced.  A low value flags a *punished* participant.
    """
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    array = _as_values(values)
    return (float(array.min()) + c0) / (float(array.max()) + c0)


def mean_of(g: Callable[[T], float], entities: Iterable[T]) -> float:
    """``µ(g, S)`` in the paper's notation: mean of ``g`` over ``S``."""
    return mean([g(entity) for entity in entities])


def fairness_of(g: Callable[[T], float], entities: Iterable[T]) -> float:
    """``f(g, S)`` in the paper's notation: fairness of ``g`` over ``S``."""
    return fairness([g(entity) for entity in entities])


def min_max_ratio_of(
    g: Callable[[T], float],
    entities: Iterable[T],
    c0: float = DEFAULT_MIN_MAX_C0,
) -> float:
    """``σ(g, S)`` in the paper's notation: balance of ``g`` over ``S``."""
    return min_max_ratio([g(entity) for entity in entities], c0=c0)


def summarize(
    values: Iterable[float], c0: float = DEFAULT_MIN_MAX_C0
) -> dict[str, float]:
    """All three Section 4 metrics of one value set, as a dict.

    The paper stresses the metrics are *complementary* — using only one
    loses information — so reports should usually carry all three.
    """
    array = _as_values(values)
    return {
        "mean": mean(array),
        "fairness": fairness(array),
        "min_max_ratio": min_max_ratio(array, c0=c0),
    }
