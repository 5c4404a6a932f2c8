"""Exhaustive enumeration: pinned class counts, naive cross-check, invariants.

The pinned counts were produced by the first run of the symmetry-reduced
generator and cross-checked, class by class via canonical codes, against the
naive generator for k <= 2; they are regression values of this tool.
"""
from itertools import permutations

import pytest

from morseflow import canonical_code, equivalent
from morseflow.enumeration import (
    CountRow,
    EnumSpec,
    SpecOutOfBounds,
    _cyclic_set_partitions,
    count_table,
    enumerate_classes,
    enumerate_flows,
    naive_enumerate_classes,
)
from morseflow.flowgraph import genus, poincare_hopf_check

# {(genus, sources, sinks): (classes, gradient_like)}
PINNED = {
    0: {(0, 1, 1): (1, 1)},
    1: {(0, 1, 2): (1, 1), (0, 2, 1): (1, 1)},
    2: {
        (0, 1, 3): (2, 2), (0, 2, 2): (7, 6), (0, 3, 1): (2, 2),
        (1, 1, 1): (5, 3),
    },
    3: {
        (0, 1, 4): (9, 9), (0, 2, 3): (53, 45), (0, 3, 2): (53, 45),
        (0, 4, 1): (9, 9), (1, 1, 2): (65, 39), (1, 2, 1): (65, 39),
    },
}

PINNED_TOTALS = {0: 1, 1: 2, 2: 16, 3: 254}


def tally(records):
    out = {}
    for rec in records:
        key = (rec.genus, rec.sources, rec.sinks)
        total, grad = out.get(key, (0, 0))
        out[key] = (total + 1, grad + (1 if rec.gradient_like else 0))
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pinned_regression_counts(k):
    records = enumerate_classes(k)
    assert len(records) == PINNED_TOTALS[k]
    assert tally(records) == PINNED[k]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_naive_cross_check(k):
    fast = enumerate_classes(k)
    naive = naive_enumerate_classes(k)
    assert [r.code.code for r in fast] == [r.code.code for r in naive]
    assert tally(fast) == tally(naive)


def test_k0_is_exactly_the_polar_flow():
    records = enumerate_classes(0)
    assert len(records) == 1
    flow = records[0].flow
    assert flow.special_polar and flow.counts() == (1, 1, 0)


def test_k1_contains_sphere_and_its_reverse(sphere1):
    flows = enumerate_flows(EnumSpec(saddles=1, gradient_like_only=True, genus=0))
    assert len(flows) == 2
    assert any(equivalent(sphere1, f) for f in flows)
    from morseflow import reverse

    assert any(equivalent(reverse(sphere1), f) for f in flows)


def test_k1_no_sinkless_gradient_like():
    assert all(f.counts()[1] > 0 for f in enumerate_flows(EnumSpec(1, gradient_like_only=True)))


def test_fixtures_appear_in_enumeration(torus, cyclic, chain2):
    codes2 = {r.code.code for r in enumerate_classes(2)}
    for fixture in (torus, cyclic, chain2):
        assert canonical_code(fixture).code in codes2


def test_spec_bounds():
    with pytest.raises(SpecOutOfBounds):
        EnumSpec(saddles=4)
    with pytest.raises(SpecOutOfBounds):
        EnumSpec(saddles=-1)
    with pytest.raises(SpecOutOfBounds):
        count_table(4)
    with pytest.raises(SpecOutOfBounds):
        enumerate_classes(4)
    with pytest.raises(SpecOutOfBounds):
        naive_enumerate_classes(-1)


def test_enumeration_output_is_sorted_and_duplicate_free():
    for k in (1, 2, 3):
        codes = [r.code.code for r in enumerate_classes(k)]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_recanonicalization_is_idempotent():
    for k in (0, 1, 2):
        records = enumerate_classes(k)
        again = {canonical_code(r.flow).code for r in records}
        assert len(again) == len(records)
        assert again == {r.code.code for r in records}


def test_genus_filter_is_a_restriction():
    everything = enumerate_flows(EnumSpec(2))
    for g in (0, 1):
        filtered = enumerate_flows(EnumSpec(2, genus=g))
        expected = [f for f in everything if genus(f) == g]
        assert [canonical_code(f).code for f in filtered] == [
            canonical_code(f).code for f in expected
        ]


def test_max_extrema_filter():
    flows = enumerate_flows(EnumSpec(2, max_extrema=2))
    assert flows and all(sum(f.counts()[:2]) <= 2 for f in flows)


def test_poincare_hopf_on_every_class():
    for k in (0, 1, 2, 3):
        for rec in enumerate_classes(k):
            assert poincare_hopf_check(rec.flow)


def test_count_table_kmax0():
    table = count_table(0)
    assert table.rows == (CountRow(0, 0, 1, 1, 1, 1),)


def test_count_table_kmax1_has_infeasible_genus1_rows():
    rows = {(r.genus, r.k, r.sources, r.sinks): (r.classes, r.gradient_like)
            for r in count_table(1).rows}
    assert rows[(1, 1, 1, 0)] == (0, 0)
    assert rows[(1, 1, 0, 1)] == (0, 0)
    assert rows[(0, 1, 1, 2)] == (1, 1)


def test_count_table_invariants():
    table = count_table(3)
    for row in table.rows:
        assert row.gradient_like <= row.classes
        if row.sources == 0 or row.sinks == 0:
            assert row.gradient_like == 0


def test_count_table_symmetric_under_reversal():
    table = count_table(3)
    cells = {(r.genus, r.k, r.sources, r.sinks): (r.classes, r.gradient_like)
             for r in table.rows}
    for (g, k, p, q), counts in cells.items():
        assert cells[(g, k, q, p)] == counts


def test_count_table_csv_shape():
    csv = count_table(1).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "genus,k,sources,sinks,classes,gradient_like"
    assert "0,0,1,1,1,1" in lines


def test_cyclic_partition_count_matches_factorial():
    # partitions into cyclically ordered blocks biject with permutations
    import math

    for n in range(5):
        assert len(list(_cyclic_set_partitions(range(n)))) == math.factorial(n)


def test_all_permutations_of_two_elements_reached():
    # sanity of the naive block construction on the smallest non-trivial set
    blocks = list(_cyclic_set_partitions([0, 1]))
    assert sorted(blocks) == [[(0,), (1,)], [(0, 1)]]


def test_reversal_closure_of_classes():
    from morseflow import reverse

    for k in (1, 2):
        codes = {r.code.code for r in enumerate_classes(k)}
        for rec in enumerate_classes(k):
            assert canonical_code(reverse(rec.flow)).code in codes
