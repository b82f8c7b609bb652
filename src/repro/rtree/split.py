"""Node-splitting heuristics from Guttman's original R-tree paper.

The TAT loading algorithm of the paper inserts one tuple at a time
"using the quadratic split heuristic of Guttman [3]"; the linear split
is provided as well so the buffer model can be used to compare split
policies — one of the stated applications of the model ("the model can
be used to evaluate the quality of any R-tree update operation, such as
node splitting policies").

A split function receives the overflowing list of entries (``max + 1``
of them) and the minimum fill ``m`` and returns two disjoint index
groups, each of size at least ``m``, covering all entries.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .node import Entry

__all__ = [
    "SplitFunction",
    "greene_split",
    "linear_split",
    "quadratic_split",
    "SPLIT_FUNCTIONS",
]

SplitFunction = Callable[[Sequence[Entry], int], tuple[list[int], list[int]]]


def _validate_split_input(entries: Sequence[Entry], min_fill: int) -> None:
    if len(entries) < 2:
        raise ValueError("cannot split fewer than two entries")
    if min_fill < 1:
        raise ValueError("min_fill must be at least 1")
    if 2 * min_fill > len(entries):
        raise ValueError(
            f"min_fill {min_fill} too large for {len(entries)} entries"
        )


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

    Both steps run over ``(d, n)`` corner arrays but keep the scalar
    algorithm's float operations and first-maximum tie-breaks, so the
    groups are exactly those of the textbook double loop: every area
    is a left-to-right product of per-axis extents, waste is
    ``union - area_i - area_j``, and ``np.argmax`` returns the first
    maximum in row-major (PickSeeds) and index (PickNext) order, as a
    strict ``>`` scan does.
    """
    _validate_split_input(entries, min_fill)
    n = len(entries)
    los = [e.rect.lo for e in entries]
    his = [e.rect.hi for e in entries]
    lo = np.array(los).T
    hi = np.array(his).T
    areas = _product(hi - lo)

    # PickSeeds: maximise d = area(J) - area(E1) - area(E2) over i < j,
    # one (n, n) matrix built axis by axis.
    waste = _product(
        np.maximum.outer(hi_k, hi_k) - np.minimum.outer(lo_k, lo_k)
        for lo_k, hi_k in zip(lo, hi)
    )
    waste -= areas[:, None]
    waste -= areas[None, :]
    waste[np.tri(n, dtype=bool)] = -np.inf
    seed_a, seed_b = divmod(int(np.argmax(waste)), n)

    group_a = [seed_a]
    group_b = [seed_b]
    cover_a_lo, cover_a_hi = los[seed_a], his[seed_a]
    cover_b_lo, cover_b_hi = los[seed_b], his[seed_b]
    area_a = float(areas[seed_a])
    area_b = float(areas[seed_b])
    # Enlargement of each group's cover by every entry; only the group
    # that grows is recomputed.  Assigned entries are masked out of the
    # PickNext scan, which sees the rest in index order, as the scalar
    # loop over its ascending ``remaining`` list does.
    d1 = _enlargement(lo, hi, cover_a_lo, cover_a_hi, area_a)
    d2 = _enlargement(lo, hi, cover_b_lo, cover_b_hi, area_b)
    assigned = np.zeros(n, dtype=bool)
    assigned[[seed_a, seed_b]] = True
    remaining = n - 2

    while remaining:
        # If one group needs every remaining entry to reach min_fill,
        # assign them all to it.
        if len(group_a) + remaining == min_fill:
            group_a.extend(np.flatnonzero(~assigned).tolist())
            break
        if len(group_b) + remaining == min_fill:
            group_b.extend(np.flatnonzero(~assigned).tolist())
            break

        # PickNext: entry with maximal |d1 - d2| (differences are >= 0,
        # so -1 keeps assigned entries from ever winning).
        diff = np.abs(d1 - d2)
        diff[assigned] = -1.0
        best_k = int(np.argmax(diff))
        assigned[best_k] = True
        remaining -= 1

        e1 = float(d1[best_k])
        e2 = float(d2[best_k])
        if e1 < e2:
            choose_a = True
        elif e2 < e1:
            choose_a = False
        elif area_a != area_b:
            choose_a = area_a < area_b
        else:
            choose_a = len(group_a) <= len(group_b)

        lo_k, hi_k = los[best_k], his[best_k]
        if choose_a:
            group_a.append(best_k)
            cover_a_lo = tuple(map(min, cover_a_lo, lo_k))
            cover_a_hi = tuple(map(max, cover_a_hi, hi_k))
            area_a = _area(cover_a_lo, cover_a_hi)
            d1 = _enlargement(lo, hi, cover_a_lo, cover_a_hi, area_a)
        else:
            group_b.append(best_k)
            cover_b_lo = tuple(map(min, cover_b_lo, lo_k))
            cover_b_hi = tuple(map(max, cover_b_hi, hi_k))
            area_b = _area(cover_b_lo, cover_b_hi)
            d2 = _enlargement(lo, hi, cover_b_lo, cover_b_hi, area_b)

    return group_a, group_b


def _product(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right elementwise product: the scalar ``1.0 * x0 * x1 ...``.

    Starting from the first factor rather than ``1.0`` changes nothing,
    since ``1.0 * x == x`` exactly.
    """
    factors = iter(factors)
    result = np.array(next(factors))
    for factor in factors:
        result *= factor
    return result


def _enlargement(
    lo: np.ndarray,
    hi: np.ndarray,
    cover_lo: tuple[float, ...],
    cover_hi: tuple[float, ...],
    cover_area: float,
) -> np.ndarray:
    """``area(cover ∪ entry) - area(cover)`` for every entry column."""
    grown = _product(
        np.maximum(hi_k, c_hi) - np.minimum(lo_k, c_lo)
        for lo_k, hi_k, c_lo, c_hi in zip(lo, hi, cover_lo, cover_hi)
    )
    grown -= cover_area
    return grown


def _area(lo: tuple[float, ...], hi: tuple[float, ...]) -> float:
    result = 1.0
    for a, b in zip(lo, hi):
        result *= b - a
    return result


def linear_split(
    entries: Sequence[Entry], min_fill: int
) -> tuple[list[int], list[int]]:
    """Guttman's linear split.

    *LinearPickSeeds* finds, on each axis, the pair with the greatest
    normalised separation (highest low side vs. lowest high side) and
    seeds the groups with the winning pair; the remaining entries are
    assigned in arbitrary (input) order to the group whose cover grows
    the least, with the same min-fill guarantee as the quadratic split.
    """
    _validate_split_input(entries, min_fill)
    rects = [e.rect for e in entries]
    n = len(rects)
    dim = rects[0].dim

    best_norm = -float("inf")
    seed_a, seed_b = 0, 1
    for axis in range(dim):
        lows = [r.lo[axis] for r in rects]
        highs = [r.hi[axis] for r in rects]
        width = max(highs) - min(lows)
        # Entry with the highest low side and entry with the lowest
        # high side form the most separated pair on this axis.
        i_high_low = max(range(n), key=lambda k: lows[k])
        i_low_high = min(range(n), key=lambda k: highs[k])
        if i_high_low == i_low_high:
            continue
        separation = lows[i_high_low] - highs[i_low_high]
        norm = separation / width if width > 0 else separation
        if norm > best_norm:
            best_norm = norm
            seed_a, seed_b = i_low_high, i_high_low

    group_a = [seed_a]
    group_b = [seed_b]
    cover_a = rects[seed_a]
    cover_b = rects[seed_b]
    remaining = [k for k in range(n) if k != seed_a and k != seed_b]

    for pos, k in enumerate(remaining):
        rest = len(remaining) - pos
        if len(group_a) + rest == min_fill:
            group_a.extend(remaining[pos:])
            break
        if len(group_b) + rest == min_fill:
            group_b.extend(remaining[pos:])
            break
        d1 = cover_a.union(rects[k]).area - cover_a.area
        d2 = cover_b.union(rects[k]).area - cover_b.area
        if d1 < d2 or (d1 == d2 and len(group_a) <= len(group_b)):
            group_a.append(k)
            cover_a = cover_a.union(rects[k])
        else:
            group_b.append(k)
            cover_b = cover_b.union(rects[k])

    return group_a, group_b


def greene_split(
    entries: Sequence[Entry], min_fill: int
) -> tuple[list[int], list[int]]:
    """Greene's split (ICDE 1989) — the classic third comparator.

    Choose the axis with the greatest *normalised separation* between
    the linear-pick-seeds pair, sort the entries by their lower value
    on that axis, and cut the sorted order in half.  The halves may
    violate a large ``min_fill``, so entries are rebalanced from the
    bigger half when needed (Greene's original splits at the midpoint
    with m = M/2, where no rebalance is ever required).
    """
    _validate_split_input(entries, min_fill)
    rects = [e.rect for e in entries]
    n = len(rects)
    dim = rects[0].dim

    best_axis = 0
    best_norm = -float("inf")
    for axis in range(dim):
        lows = [r.lo[axis] for r in rects]
        highs = [r.hi[axis] for r in rects]
        width = max(highs) - min(lows)
        i_high_low = max(range(n), key=lambda k: lows[k])
        i_low_high = min(range(n), key=lambda k: highs[k])
        if i_high_low == i_low_high:
            continue
        separation = lows[i_high_low] - highs[i_low_high]
        norm = separation / width if width > 0 else separation
        if norm > best_norm:
            best_norm = norm
            best_axis = axis

    order = sorted(range(n), key=lambda k: rects[k].lo[best_axis])
    half = max(min_fill, min(n - min_fill, (n + 1) // 2))
    return order[:half], order[half:]


SPLIT_FUNCTIONS: dict[str, SplitFunction] = {
    "quadratic": quadratic_split,
    "linear": linear_split,
    "greene": greene_split,
}
"""Registry used by loaders and the experiment harness.

``repro.rtree.rstar`` registers a fourth entry, ``"rstar"``, on import.
"""
