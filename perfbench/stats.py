"""Percentile and bound arithmetic of the benchmark.

Every percentile is exact: computed by nearest rank from the raw
per-request samples, never from a histogram. A percentile is published
only when at least MIN_BEYOND samples lie beyond it; a run that needs an
unpublishable one fails instead of reporting a guess.
"""

import math
import statistics
from fractions import Fraction

MIN_BEYOND = 10


class NotPublishable(ValueError):
    """Too few samples lie beyond the requested percentile."""


def nearest_rank(n, p):
    """1-based nearest rank of percentile p (0 < p <= 100) among n samples."""
    if n <= 0:
        raise NotPublishable("no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile %r outside (0, 100]" % (p,))
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p, min_beyond=MIN_BEYOND):
    """(value, n, beyond) of the p-th percentile of values by nearest rank.

    Raises NotPublishable when fewer than min_beyond samples lie beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = nearest_rank(n, p)
    beyond = n - rank
    if beyond < min_beyond:
        raise NotPublishable(
            "p%s needs %d samples beyond it, has %d of %d"
            % (p, min_beyond, beyond, n))
    return ordered[rank - 1], n, beyond


def median(values):
    """The median of a run's repeated measurements (set-up times, say)."""
    return statistics.median(values)


def spread(values):
    """Inter-quartile distance as a share of the median.

    The quartiles are Python's statistics.quantiles(values, n=4), the
    definition the acceptance check of the benchmark uses.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`.

    Negative when it improved. better is "lower" or "higher".
    """
    if better == "lower":
        return (after - before) / before
    if better == "higher":
        return (before - after) / before
    raise ValueError("better must be 'lower' or 'higher', not %r" % (better,))


def within_bound(before, after, better, bound):
    """True when `after` is not worse than `before` by more than bound."""
    return worsening(before, after, better) <= bound
