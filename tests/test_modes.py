import math

import pytest

from multigrip.mechanics import SurfaceCounts, gc_mode_count
from multigrip.modes import (SurfaceKind, SurfaceShape, build_mode_table,
                             concave, convex, deformable_flat,
                             distinct_shape_pairs, flat)


def test_surface_shape_validation():
    with pytest.raises(ValueError):
        SurfaceShape(SurfaceKind.CONVEX)          # missing radius
    with pytest.raises(ValueError):
        SurfaceShape(SurfaceKind.CONCAVE, -1.0)
    with pytest.raises(ValueError):
        SurfaceShape(SurfaceKind.FLAT, 5.0)       # flat takes no radius
    for kind in (SurfaceKind.CONVEX, SurfaceKind.CONCAVE):   # a finite one
        with pytest.raises(ValueError, match=f"^{kind.value} surface needs a positive finite"):
            SurfaceShape(kind, math.inf)


def test_reference_table_entries(table):
    assert len(table) == 12
    assert table.entry(1) == (flat(), flat())
    assert table.entry(3) == (concave(10.0), concave(10.0))
    assert table.entry(4) == (flat(), deformable_flat())
    assert table.label(1) == "GC1"
    assert table.label(12) == "GC12"


def test_entry_index_bounds(table):
    with pytest.raises(ValueError):
        table.entry(0)
    with pytest.raises(ValueError):
        table.entry(13)


def test_cycling_invariants(table, counts):
    order_3s = [flat(), convex(10.0), concave(10.0)]
    order_4s = [flat(), convex(10.0), concave(10.0), deformable_flat()]
    for i in range(1, 13):
        s3, s4 = table.entry(i)
        assert s3 == order_3s[(i - 1) % 3]
        assert s4 == order_4s[(i - 1) % 4]


def test_order_length_mismatch(counts):
    with pytest.raises(ValueError, match="3S order"):
        build_mode_table(counts, order_3s=(flat(), flat()))
    with pytest.raises(ValueError, match="4S order"):
        build_mode_table(counts, order_4s=(flat(),))


def test_distinct_pairs_reference_design(table):
    pairs = distinct_shape_pairs(table)
    assert len(pairs) == 9


def test_distinct_pairs_identical_orders():
    counts = SurfaceCounts(3, 3)
    order = (flat(), convex(10.0), concave(10.0))
    t = build_mode_table(counts, order, order)
    # diagonal only: (f,f), (cx,cx), (cc,cc)
    assert len(t) == 3
    assert len(distinct_shape_pairs(t)) == 3


def test_coprime_counts_reach_every_ordered_pair(table):
    ordered = {(s3, s4) for s3, s4 in table.entries}
    assert len(ordered) == 12  # all of 3 x 4


def test_no_shorter_period_for_coprime(table):
    n = len(table)
    for period in range(1, n):
        if table.entries[:period] * (n // period + 1) == list(table.entries)[:n]:
            pytest.fail(f"table repeats with period {period} < {n}")


def test_period_matches_mode_count_many_designs():
    shapes = [flat(), convex(10.0), concave(10.0), deformable_flat()]
    for n_3s in range(1, 7):
        for n_4s in range(n_3s, 7):
            counts = SurfaceCounts(n_3s, n_4s)
            order_3s = tuple(shapes[i % 4] for i in range(n_3s))
            order_4s = tuple(shapes[(i + 1) % 4] for i in range(n_4s))
            t = build_mode_table(counts, order_3s, order_4s)
            assert len(t) == gc_mode_count(counts)
            # extending the cycle reproduces entry 1 exactly at the period
            nxt = (order_3s[len(t) % n_3s], order_4s[len(t) % n_4s])
            assert nxt == t.entry(1)


def test_modes_containing(table):
    deform = table.modes_containing(SurfaceKind.DEFORMABLE_FLAT)
    assert deform == (4, 8, 12)
