"""Pure helpers of the benchmark: percentiles, span arithmetic, oracles.

Nothing here imports ``repro``; the functions are unit-tested in
``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Percentile:
    """A percentile together with the sample it was taken from.

    ``beyond`` counts the samples strictly above ``value``: a percentile
    is only worth reporting when enough samples lie beyond it.
    """

    value: float
    count: int
    beyond: int


def percentile(samples: Iterable[float], p: float) -> Percentile:
    """The ``p``-th percentile (0-100) by linear interpolation.

    Matches ``numpy.percentile``'s default method: rank ``p/100 *
    (n-1)`` in the sorted sample, interpolated between neighbours.
    """
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    rank = p / 100.0 * (len(data) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    value = data[lo] + (data[hi] - data[lo]) * (rank - lo)
    beyond = sum(1 for x in data if x > value)
    return Percentile(value=value, count=len(data), beyond=beyond)


def quartile_spread(values: Sequence[float]) -> float:
    """``(Q3 - Q1) / median`` with ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def per_key_medians(samples: Mapping[object, Sequence[float]]) -> dict:
    """One median per key (e.g. per decision over repeated passes)."""
    return {key: statistics.median(vals) for key, vals in samples.items() if vals}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer.

    ``sid`` and ``parent`` are ``"<pid>:<n>"`` strings, so spans recorded
    in forked pool workers keep pointing at the parent-process span
    that was open when the worker forked.
    """

    sid: str
    name: str
    start: float
    end: float
    parent: str | None
    cell: str | None
    pid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Span id -> self time: duration minus what its children cover.

    Only children in the parent's own process count.  Children in one
    process run nested and one after another, so their durations add up
    to the covered part of the parent's interval; children in pool
    workers run concurrently with the parent and each other, so the
    parent's self time keeps the time it spent waiting on them.
    """
    by_id = {s.sid: s for s in spans}
    covered: dict[str, float] = {s.sid: 0.0 for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.pid == s.pid:
            covered[parent.sid] += s.duration
    return {s.sid: s.duration - covered[s.sid] for s in spans}


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Summed self time (seconds) per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + own[s.sid]
    return totals


def top_level(spans: Sequence[Span], pid: int) -> list[Span]:
    """Spans of process ``pid`` that have no parent span."""
    return [s for s in spans if s.pid == pid and s.parent is None]


def unattributed_frac(spans: Sequence[Span], pid: int, wall: float) -> float:
    """``1 - (top-level span time of process pid) / wall``.

    The residual is the share of the measured wall time spent outside
    every traced layer call: the benchmark's own loop plus any library
    code reached without passing a traced boundary.
    """
    if wall <= 0:
        raise ValueError("wall time must be positive")
    return 1.0 - sum(s.duration for s in top_level(spans, pid)) / wall


def worker_spans(spans: Sequence[Span], pid: int) -> list[Span]:
    """Outermost spans recorded in processes other than ``pid``."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.pid == pid:
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None or parent.pid != s.pid:
            out.append(s)
    return out


# ----------------------------------------------------------------------
# oracle comparisons
# ----------------------------------------------------------------------
def rel_close(a: float, b: float, rel: float = 1e-6) -> bool:
    """``|a - b| <= rel * max(1, |a|, |b|)``; NaN never matches."""
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def schedule_mismatches(
    expected: Mapping[str, float],
    actual: Mapping[str, float],
    tol: float = 1e-6,
) -> list[str]:
    """Differences between two ``accepted name -> start time`` maps."""
    problems = []
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    if missing:
        problems.append(f"not accepted but expected: {missing}")
    if extra:
        problems.append(f"accepted but not expected: {extra}")
    for name in sorted(set(expected) & set(actual)):
        if abs(expected[name] - actual[name]) > tol:
            problems.append(
                f"{name} starts at {actual[name]:.9g}, expected {expected[name]:.9g}"
            )
    return problems


def disagreeing_groups(
    optima: Mapping[object, Mapping[str, float]], rel: float = 1e-6
) -> dict[object, dict[str, float]]:
    """Groups (e.g. a seed/flexibility cell) whose optima differ.

    ``optima`` maps a group key to ``model name -> objective``; a group
    is returned when any two of its objectives are not ``rel_close``.
    """
    bad = {}
    for key, by_model in optima.items():
        values = list(by_model.values())
        if any(not rel_close(values[0], v, rel) for v in values[1:]):
            bad[key] = dict(by_model)
    return bad
