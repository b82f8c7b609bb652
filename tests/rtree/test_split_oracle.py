"""The NumPy quadratic split against its scalar oracle.

:func:`repro.rtree.split.quadratic_split` works on corner arrays, but
its contract is the textbook double loop kept in
``tests/rtree/split_oracle.py``: the same ``(group_a, group_b)`` lists,
in the same order, for every input.  The properties below push on the
places where a vectorised rewrite could drift — ties in waste, in
``|d1 - d2|``, in enlargement and in cover area — by snapping
coordinates to coarse grids, repeating rectangles and collapsing
extents to zero.  The tree-level cases then check that whole TAT
builds and delete/reinsert streams, which split leaves and internal
nodes alike, produce the oracle's trees.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import datasets, packing
from repro.geometry import Rect
from repro.packing import tat_description
from repro.rtree import Entry, RTree, TreeDescription, check_tree
from repro.rtree.split import quadratic_split
from tests.rtree.split_oracle import quadratic_split as oracle_split


def entries_of(rects: list[Rect]) -> list[Entry]:
    return [Entry(r, item=i) for i, r in enumerate(rects)]


@st.composite
def split_inputs(draw) -> tuple[list[Entry], int]:
    """Overflowing entry lists rich in exact ties, plus a legal min_fill.

    Coordinates are multiples of ``1 / grid``.  Power-of-two grids keep
    every corner exact; ``grid = 1`` leaves only 0/1 corners and makes
    nearly every comparison a tie.  The decimal grid ``1 / 10`` gives
    sums that tie in exact arithmetic but round apart, so only the
    scalar order of float operations reproduces the oracle's pick.
    Rectangles are drawn from a small
    pool of distinct shapes, so duplicates are common, and an extent
    of 0 gives points and segments of zero area.
    """
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=101))
    grid = draw(st.sampled_from([1, 2, 4, 10, 16, 1 << 20]))
    cells = st.integers(min_value=0, max_value=grid)
    shape = st.tuples(
        st.lists(cells, min_size=dim, max_size=dim),
        st.lists(cells, min_size=dim, max_size=dim),
    )
    pool = draw(st.lists(shape, min_size=1, max_size=n))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=n,
            max_size=n,
        )
    )
    rects = []
    for k in picks:
        corner, extent = pool[k]
        lo = tuple(c / grid for c in corner)
        hi = tuple((c + e) / grid for c, e in zip(corner, extent))
        rects.append(Rect(lo, hi))
    min_fill = draw(st.integers(min_value=1, max_value=n // 2))
    return entries_of(rects), min_fill


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=split_inputs())
def test_groups_equal_oracle(case):
    entries, min_fill = case
    assert quadratic_split(entries, min_fill) == oracle_split(
        entries, min_fill
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 5, 26, 101])
def test_every_min_fill_on_random_rects(dim, n):
    rng = np.random.default_rng(1000 * dim + n)
    lo = rng.random((n, dim))
    hi = lo + rng.random((n, dim)) * 0.3
    entries = entries_of([Rect(tuple(a), tuple(b)) for a, b in zip(lo, hi)])
    for min_fill in range(1, n // 2 + 1):
        assert quadratic_split(entries, min_fill) == oracle_split(
            entries, min_fill
        )


@pytest.mark.parametrize(
    "rects",
    [
        # All identical: every waste, difference and area ties.
        [Rect((0.2, 0.2), (0.4, 0.4))] * 9,
        # Identical points: zero areas throughout.
        [Rect.from_point((0.5, 0.5))] * 7,
        # Distinct points on a line: zero-area covers that still grow.
        [Rect.from_point((k / 8, 0.0)) for k in range(9)],
        # Nested squares around one centre.
        [Rect((0.5 - k / 20, 0.5 - k / 20), (0.5 + k / 20, 0.5 + k / 20))
         for k in range(10)],
        # Waste ``union - area_i - area_j`` picks pair (1, 3), while
        # ``union - (area_i + area_j)`` would round to pair (1, 2).
        [
            Rect((0.7, 0.6), (1.0, 0.8)),
            Rect((0.5, 0.8), (1.1, 1.1)),
            Rect((0.8, 0.4), (1.6, 1.2000000000000002)),
            Rect((0.7, 0.6), (1.4, 0.8999999999999999)),
        ],
    ],
    ids=["identical", "same-point", "collinear-points", "nested", "float-order"],
)
def test_degenerate_inputs_equal_oracle(rects):
    entries = entries_of(rects)
    for min_fill in range(1, len(entries) // 2 + 1):
        assert quadratic_split(entries, min_fill) == oracle_split(
            entries, min_fill
        )


# ----------------------------------------------------------------------
# Tree level: whole builds and update streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_rects", [1_000, 5_000])
def test_tat_tiger_like_equals_oracle_tree(n_rects):
    data = datasets.tiger_like(n_rects, rng=7)
    assert packing.load_description("tat", data, 100) == tat_description(
        data, 100, split=oracle_split
    )


@pytest.mark.parametrize("capacity", [25, 8])
def test_tat_synthetic_region_equals_oracle_tree(capacity):
    data = datasets.synthetic_region(2_000, rng=11)
    assert packing.load_description(
        "tat", data, capacity
    ) == tat_description(data, capacity, split=oracle_split)


def test_delete_reinsert_stream_equals_oracle_tree():
    """Deleting a vertical strip dissolves whole subtrees.

    CondenseTree reinserts the orphaned subtrees' entries at their own
    level, so internal nodes overflow and split as well as leaves; the
    strip then comes back in a seeded random order.
    """
    rects = list(datasets.synthetic_region(3_000, rng=3))
    internal_splits = 0

    def counted_split(entries, min_fill):
        nonlocal internal_splits
        internal_splits += entries[0].child is not None
        return quadratic_split(entries, min_fill)

    trees = [
        RTree(max_entries=25, split=counted_split),
        RTree(max_entries=25, split=oracle_split),
    ]
    for tree in trees:
        for i, r in enumerate(rects):
            tree.insert(r, i)
    internal_splits = 0

    strip = sorted(range(len(rects)), key=lambda i: rects[i].lo[0])[:1_500]
    for victim in strip:
        for tree in trees:
            assert tree.delete(rects[victim], victim)
    for victim in np.random.default_rng(5).permutation(strip).tolist():
        for tree in trees:
            tree.insert(rects[victim], victim)

    fast, oracle = trees
    check_tree(fast)
    assert internal_splits > 0
    assert TreeDescription.from_tree(fast) == TreeDescription.from_tree(oracle)
    assert list(fast.items()) == list(oracle.items())
