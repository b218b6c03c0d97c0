"""The benchmark's own arithmetic: medians, tail percentiles, failure
accounting, span self time and closure.

Kept free of any import from the program under test so the tests in
``test_arith.py`` exercise it in isolation.

A span is a tuple ``(name, start, end, parent)`` where ``parent`` is
the index of the enclosing span in the same list, or ``-1``.
"""

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int]

#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10
#: The tail percentile reported when the sample is large enough.
TAIL_PCT = 90.0


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ``TAIL_SAMPLES`` samples
    beyond it under the nearest-rank rule, or ``None`` when there are
    too few samples for any."""
    if count <= TAIL_SAMPLES:
        return None
    return 100.0 * (count - TAIL_SAMPLES) / count


def latency_summary(
    latencies: Iterable[float], failures: int = 0
) -> Dict[str, float]:
    """Median and tail of a latency sample.

    A failed or refused operation counts as exceeding any latency
    limit, so it enters the sample as ``inf``.  The tail is reported
    at ``TAIL_PCT`` when that percentile has at least ``TAIL_SAMPLES``
    samples beyond it, else at the highest percentile that does.
    """
    sample = list(latencies) + [math.inf] * failures
    if not sample:
        raise ValueError("latency summary of no operations")
    highest = highest_percentile(len(sample))
    tail_pct = TAIL_PCT if highest is None else min(TAIL_PCT, highest)
    return {
        "count": len(sample),
        "p50": percentile(sample, 50.0),
        "tail_pct": tail_pct,
        "tail": percentile(sample, tail_pct),
        "highest_pct": 0.0 if highest is None else highest,
    }


def failed_frac(failed: int, attempted: int) -> float:
    """Failed over attempted operations, add-one smoothed.

    ``(failed + 1) / (attempted + 1)`` is never 0 (so a ratio against
    a parent's value is always defined) and a single failure doubles
    it, which no regression bound lets through.
    """
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(
            f"bad failure count: {failed} failed of {attempted}"
        )
    return (failed + 1) / (attempted + 1)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: Sequence[Span]) -> List[List[int]]:
    kids: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(index)
    return kids


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    kids = children_of(spans)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        inner = covered(
            ((spans[k][1], spans[k][2]) for k in kids[index]), start, end
        )
        out.append((end - start) - inner)
    return out


def inclusive_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per name, the summed duration of spans with no same-name
    ancestor, so a recursive or re-entrant call is counted once."""
    totals: Dict[str, float] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def self_totals(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def top_level(
    spans: Sequence[Span], roots: Iterable[int] = ()
) -> List[Tuple[float, float]]:
    """Intervals of the top-level layer spans.

    ``roots`` are the benchmark's own markers (the timed phase and its
    sub-phases); their direct children that are not themselves roots
    are the top-level layer spans.  With no roots, the spans that have
    no parent are.
    """
    root_set = set(roots)
    outer = root_set or {-1}
    return [
        (start, end)
        for index, (_, start, end, parent) in enumerate(spans)
        if parent in outer and index not in root_set
    ]


def unattributed(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Time in ``[lo, hi]`` that no interval covers."""
    return (hi - lo) - covered(intervals, lo, hi)
