"""Counting motif instances without constructing them (Section 7 future work).

The paper suggests "counting instances of (possibly multiple) motifs without
constructing them (along the direction of [14])" as future work. This module
implements it for a single motif: the ``FindInstances`` recursion of
:mod:`repro.core.enumeration` explores a DAG of states
``(edge index, first usable series index)`` — the number of completions from
a state is independent of how the state was reached, so per-window
memoization turns the potentially exponential enumeration into a polynomial
count.

The count always equals ``len(find_instances(...))`` (property-tested); the
benchmark ``bench_ablation_counting`` measures the speed-up.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.enumeration import match_is_feasible
from repro.core.matching import StructuralMatch
from repro.core.windows import Window, iter_maximal_windows
from repro.graph.timeseries import EdgeSeries


def count_window_instances(
    series_list: Sequence[EdgeSeries],
    window: Window,
    phi: float,
) -> int:
    """Number of maximal instances inside one window (memoized recursion)."""
    m = len(series_list)
    anchor, end = window
    memo: Dict[Tuple[int, int], int] = {}

    def count_from(i: int, start_idx: int) -> int:
        series = series_list[i]
        times = series.times
        n = len(times)
        if start_idx >= n or times[start_idx] > end:
            return 0
        key = (i, start_idx)
        cached = memo.get(key)
        if cached is not None:
            return cached
        last_idx = series.last_index_at_or_before(end)

        if i == m - 1:
            result = 1 if series.flow_between(start_idx, last_idx) >= phi else 0
            memo[key] = result
            return result

        next_series = series_list[i + 1]
        next_times = next_series.times
        next_n = len(next_times)
        next_idx = next_series.first_index_after(times[start_idx])
        result = 0
        for j in range(start_idx, last_idx + 1):
            t_j = times[j]
            while next_idx < next_n and next_times[next_idx] <= t_j:
                next_idx += 1
            if next_idx >= next_n or next_times[next_idx] > end:
                break
            if j + 1 <= last_idx and times[j + 1] < next_times[next_idx]:
                continue  # prefix validity (see enumeration module)
            if series.flow_between(start_idx, j) < phi:
                continue  # φ-pruning
            result += count_from(i + 1, next_idx)
        memo[key] = result
        return result

    first = series_list[0]
    return count_from(0, first.first_index_at_or_after(anchor))


def count_instances_in_match(
    match: StructuralMatch,
    delta: Optional[float] = None,
    phi: Optional[float] = None,
    skip_rule: bool = True,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> int:
    """Number of maximal instances of the motif within one structural match.

    ``anchor_range`` restricts counting to windows anchored in the half-open
    interval ``[lo, hi)`` while still iterating earlier windows for skip-rule
    state (the :mod:`repro.parallel` shard-ownership contract).
    """
    motif = match.motif
    delta = motif.delta if delta is None else delta
    phi = motif.phi if phi is None else phi
    series_list = match.series
    if not match_is_feasible(series_list, phi):
        return 0
    total = 0
    for window in iter_maximal_windows(
        series_list[0], series_list[-1], delta, skip_rule=skip_rule
    ):
        if anchor_range is not None:
            if window.start >= anchor_range[1]:
                break
            if window.start < anchor_range[0]:
                continue
        total += count_window_instances(series_list, window, phi)
    return total


def count_instances(
    matches: Iterable[StructuralMatch],
    delta: Optional[float] = None,
    phi: Optional[float] = None,
    skip_rule: bool = True,
    anchor_range: Optional[Tuple[float, float]] = None,
) -> int:
    """Total maximal instance count across structural matches."""
    return sum(
        count_instances_in_match(
            match,
            delta=delta,
            phi=phi,
            skip_rule=skip_rule,
            anchor_range=anchor_range,
        )
        for match in matches
    )
