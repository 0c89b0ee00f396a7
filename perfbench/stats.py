"""Statistics of the perfbench benchmark.

Timings are reported as a median and a tail: the highest percentile that
still has at least ten samples beyond it, together with the sample count.
Run-to-run steadiness is the distance between the first and the third
quartile as a share of the median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.
"""

import statistics

TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) computes them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile). With `beyond` or fewer samples no such
    percentile exists, and the maximum is returned as the 100th.
    """
    if not values:
        raise ValueError("tail of no values")
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    if m == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(m)


def worsening(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`.

    Negative when `new` is better. `better` is "lower" or "higher".
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    if base == 0:
        return 0.0 if new == base else float("inf")
    diff = new - base if better == "lower" else base - new
    return diff / abs(base)


def check_pair(first, second, bound, better):
    """Whether two sets of runs of one metric agree within `bound`.

    Each set's spread must stay within the bound, and the second set's
    median may differ from the first's by at most the bound, in either
    direction: two sets of the same code should agree, so a much better
    second set is as suspect as a much worse one.
    Returns (ok, details).
    """
    s1, s2 = spread(first), spread(second)
    worse = worsening(median(first), median(second), better)
    ok = abs(worse) <= bound and s1 <= bound and s2 <= bound
    return ok, {
        "median_first": median(first),
        "median_second": median(second),
        "spread_first": s1,
        "spread_second": s2,
        "worse_by": worse,
        "bound": bound,
    }
