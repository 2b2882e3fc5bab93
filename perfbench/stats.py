"""Summary statistics and the compare-mode verdict for perfbench.

Every timing is reported as its median and the highest percentile that
still has at least ten samples beyond it, together with the sample count.
A change is judged against its parent from repeated runs of both: it
improved only when it wins at least nine tenths of the run pairs and the
medians differ by more than the parent's inter-quartile spread; it
regressed when its median is worse than the parent's by more than the
metric's bound. Unit-tested in tests/test_stats.py.
"""

import math
import statistics

# Percentiles tried for the tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
# A claimed improvement needs this share of pair wins (ties count for
# neither side) over at least MIN_PAIRS pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if not xs:
        raise ValueError("quartiles of no samples")
    if len(xs) == 1:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def spread(xs):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(xs)
    m = median(xs)
    return (q3 - q1) / m if m else math.inf


def percentile(xs, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def tail_percentile(xs, beyond=10):
    """The highest percentile of TAIL_LADDER with at least `beyond`
    samples above its rank, as (p, value); None when even the median has
    fewer than `beyond` samples beyond it."""
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            return (p, percentile(xs, p))
    return None


def pair_wins(parent, change, better):
    """Pair run i of the parent with run i of the change; count the pairs
    the change wins and loses (`better` is "lower" or "higher")."""
    wins = losses = 0
    for p, c in zip(parent, change):
        if c == p:
            continue
        if (c < p) == (better == "lower"):
            wins += 1
        else:
            losses += 1
    return wins, losses


def verdict(parent, change, better, bound):
    """improved, unchanged, regressed or unresolved (see module doc)."""
    pairs = min(len(parent), len(change))
    mp, mc = median(parent), median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mc - mp) / mp if mp else 0.0
    q1, _, q3 = quartiles(parent)
    wins, _ = pair_wins(parent, change, better)
    gap = -sign * (mc - mp)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gap > (q3 - q1):
        return "improved"
    if spread(parent) > bound:
        # Too noisy to call "no worse" unless every change run beats
        # every parent run.
        if better == "lower":
            all_better = max(change) < min(parent)
        else:
            all_better = min(change) > max(parent)
        return "unchanged" if all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    return "unchanged"
