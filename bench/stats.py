"""Percentiles that refuse what the sample cannot support, and spreads."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """The sample is too small for the requested percentile."""


def percentile(ordered: list, fraction: float):
    """Nearest-rank ``fraction``-quantile of an ascending sample.

    Raises :class:`TooFewSamples` unless at least ``MIN_TAIL_SAMPLES``
    samples lie beyond the percentile (for the median: on each side), so a
    p99.9 is never read off a few hundred operations.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    count = len(ordered)
    beyond = count * min(fraction, 1.0 - fraction)
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"{count} samples leave {beyond:.1f} beyond p{fraction * 100:g}; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return ordered[min(count - 1, max(0, math.ceil(fraction * count) - 1))]


def percentile_or_none(ordered: list, fraction: float):
    try:
        return percentile(ordered, fraction)
    except TooFewSamples:
        return None


def relative_spread(values: list[float]) -> float | None:
    """Interquartile range over the median (the driver's steadiness test)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else None
