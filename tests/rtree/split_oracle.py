"""Scalar reference implementation of Guttman's quadratic split.

This is the pure-Python split the reproduction used before
:func:`repro.rtree.split.quadratic_split` moved to NumPy arrays.  It is
kept verbatim as a test oracle: the vectorised split must return the
same ``(group_a, group_b)`` index lists, in the same order, for every
input (``tests/rtree/test_split_oracle.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.rtree.node import Entry
from repro.rtree.split import _validate_split_input

__all__ = ["quadratic_split"]


def quadratic_split(
    entries: Sequence[Entry], min_fill: int
) -> tuple[list[int], list[int]]:
    """Guttman's quadratic split.

    *PickSeeds* selects the pair of entries that would waste the most
    area if placed together; *PickNext* repeatedly assigns the entry
    with the greatest difference of enlargement between the two groups,
    breaking ties by smaller enlargement, then smaller area, then fewer
    entries — Guttman's tie-break chain.  Whenever one group must absorb
    all remaining entries to reach ``min_fill``, they are assigned
    wholesale.
    """
    _validate_split_input(entries, min_fill)
    # Work on raw corner tuples: splits are O(n²) in the node capacity
    # and allocating Rect objects in these loops dominates TAT loading.
    los = [e.rect.lo for e in entries]
    his = [e.rect.hi for e in entries]
    n = len(entries)
    areas = [_area(lo, hi) for lo, hi in zip(los, his)]

    # PickSeeds: maximise d = area(J) - area(E1) - area(E2).
    best_waste = -float("inf")
    seed_a, seed_b = 0, 1
    for i in range(n - 1):
        lo_i, hi_i, area_i = los[i], his[i], areas[i]
        for j in range(i + 1, n):
            waste = _union_area(lo_i, hi_i, los[j], his[j]) - area_i - areas[j]
            if waste > best_waste:
                best_waste = waste
                seed_a, seed_b = i, j

    group_a = [seed_a]
    group_b = [seed_b]
    cover_a_lo, cover_a_hi = los[seed_a], his[seed_a]
    cover_b_lo, cover_b_hi = los[seed_b], his[seed_b]
    area_a = areas[seed_a]
    area_b = areas[seed_b]
    remaining = [k for k in range(n) if k != seed_a and k != seed_b]

    while remaining:
        # If one group needs every remaining entry to reach min_fill,
        # assign them all to it.
        if len(group_a) + len(remaining) == min_fill:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_fill:
            group_b.extend(remaining)
            break

        # PickNext: entry with maximal |d1 - d2|.
        best_k = -1
        best_pos = -1
        best_diff = -1.0
        best_d = (0.0, 0.0)
        for pos, k in enumerate(remaining):
            d1 = _union_area(cover_a_lo, cover_a_hi, los[k], his[k]) - area_a
            d2 = _union_area(cover_b_lo, cover_b_hi, los[k], his[k]) - area_b
            diff = abs(d1 - d2)
            if diff > best_diff:
                best_diff = diff
                best_k = k
                best_pos = pos
                best_d = (d1, d2)
        remaining.pop(best_pos)

        d1, d2 = best_d
        if d1 < d2:
            choose_a = True
        elif d2 < d1:
            choose_a = False
        elif area_a != area_b:
            choose_a = area_a < area_b
        else:
            choose_a = len(group_a) <= len(group_b)

        if choose_a:
            group_a.append(best_k)
            cover_a_lo, cover_a_hi = _union(cover_a_lo, cover_a_hi, los[best_k], his[best_k])
            area_a = _area(cover_a_lo, cover_a_hi)
        else:
            group_b.append(best_k)
            cover_b_lo, cover_b_hi = _union(cover_b_lo, cover_b_hi, los[best_k], his[best_k])
            area_b = _area(cover_b_lo, cover_b_hi)

    return group_a, group_b


def _area(lo: tuple[float, ...], hi: tuple[float, ...]) -> float:
    result = 1.0
    for a, b in zip(lo, hi):
        result *= b - a
    return result


def _union_area(
    lo1: tuple[float, ...],
    hi1: tuple[float, ...],
    lo2: tuple[float, ...],
    hi2: tuple[float, ...],
) -> float:
    result = 1.0
    for a, b, c, d in zip(lo1, hi1, lo2, hi2):
        result *= max(b, d) - min(a, c)
    return result


def _union(
    lo1: tuple[float, ...],
    hi1: tuple[float, ...],
    lo2: tuple[float, ...],
    hi2: tuple[float, ...],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    lo = tuple(min(a, c) for a, c in zip(lo1, lo2))
    hi = tuple(max(b, d) for b, d in zip(hi1, hi2))
    return lo, hi
