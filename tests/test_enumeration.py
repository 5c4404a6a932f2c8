"""Exhaustive enumeration: pinned class counts, naive cross-check, invariants.

The pinned counts were produced by the first run of the symmetry-reduced
generator and cross-checked, class by class via canonical codes, against the
naive generator for k <= 2; they are regression values of this tool.
"""
import hashlib
import json
import math
from itertools import permutations

import pytest

from morseflow import canonical_code, enumeration, equivalent
from morseflow.enumeration import (
    CountRow,
    EnumSpec,
    SpecOutOfBounds,
    _candidates,
    _connected,
    _cyclic_set_partitions,
    _hop_ends,
    _matchings,
    _symmetries,
    count_table,
    enumerate_classes,
    enumerate_flows,
    naive_enumerate_classes,
)
from morseflow.flowgraph import genus, poincare_hopf_check

from code_oracle import traversal_codes

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


def test_pinned_class_representatives():
    """Every k <= 3 representative, its code and its statistics, one JSON
    line each, hash to the digest recorded when they were first pinned."""
    lines = [json.dumps([r.flow.to_description(), r.code.as_string(), r.genus, r.sources,
                         r.sinks, r.gradient_like], sort_keys=True)
             for k in range(4) for r in enumerate_classes(k)]
    assert len(lines) == 273
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fb392c88a735de10987487c3768f5aefb76a583c517ae5a198e5158bf44b0a24"


def test_records_share_one_string_per_id():
    ids = [x for rec in enumerate_classes(3) for x in rec.flow.vertex_ids + rec.flow.dart_ids]
    assert len(ids) > len(set(ids))
    assert len({id(x) for x in ids}) == len(set(ids))


def _aut_order(flow) -> int:
    """|Aut| of a connected flow: the start darts whose oracle traversal code
    is least."""
    codes = traversal_codes(flow)
    return codes.count(min(codes))


def _apply_to_matching(g: tuple, matching: tuple) -> tuple:
    return tuple(sorted((g[a], g[b]) for a, b in matching))


def _stabilizer(group: list, matching: tuple) -> list:
    return [g for g in group if _apply_to_matching(g, matching) == matching]


def _oracle_canonical_matchings(k):
    """(matching, stab) for the matchings least in their orbit: every image
    of every matching, compared as sorted pairs."""
    group = _symmetries(k)
    return [(matching, _stabilizer(group, matching))
            for matching in _matchings(k)
            if not any(_apply_to_matching(g, matching) < matching for g in group)]


def _sink_variants(darts: list, stab: list) -> list:
    """Images of the ascending darts under the sink permutations that are
    least under conjugation by the stabilizer; coverage is preserved because
    the stabilizer acts jointly on both extremum sides."""
    index = {d: i for i, d in enumerate(darts)}
    inverses = [sorted(range(len(g)), key=g.__getitem__) for g in stab]
    variants = []
    for images in permutations(darts):
        for g, ginv in zip(stab, inverses):
            if tuple([g[images[index[ginv[d]]]] for d in darts]) < images:
                break
        else:
            variants.append(images)
    return variants


def _sink_fed(k: int, matching: tuple) -> list:
    matched = {d for pair in matching for d in pair}
    return [d for d in range(0, 4 * k, 2) if d not in matched]


def _stream(k: int) -> list:
    """The search's (matching, sigma) stream, with sigma as the images of the
    ascending sink-fed darts."""
    return [(matching, tuple(part[d] for d in sink_fed))
            for matching, sink_fed, _, part in _candidates(k)]


def _searched_matchings(k: int) -> list:
    """The matchings of the search, each once, in the order it yields them."""
    return list(dict.fromkeys(matching for matching, _ in _stream(k)))


def _live(k: int, matching: tuple) -> bool:
    part = list(range(4 * k))
    for a, b in matching:
        part[a], part[b] = b, a
    return _hop_ends(4 * k, part) is not None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_matchings_match_the_oracle(k):
    """The generator's orbit test sees only live matchings; the oracle walks
    the whole group over every matching and is filtered afterwards."""
    assert sorted(_searched_matchings(k)) == sorted(
        matching for matching, _ in _oracle_canonical_matchings(k) if _live(k, matching))


@pytest.mark.parametrize("k, live", [(1, 1), (2, 29), (3, 1213)])
def test_live_matchings_are_the_matchings_with_hop_ends(k, live):
    """Every kept matching is sorted and has no chain of connections that
    closes without an extremum, and the kept matchings weighted by orbit size
    |G|/|Stab M| count the live matchings: each live orbit appears once."""
    group = _symmetries(k)
    kept = _searched_matchings(k)
    assert all(list(m) == sorted(m) and _live(k, m) for m in kept)
    assert sum(len(group) // len(_stabilizer(group, m)) for m in kept) == live
    assert live == sum(1 for m in _matchings(k) if _live(k, m))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_prefix_of_a_kept_matching_is_least(k):
    """The search drops a branch at its first prefix that is not least in its
    orbit, which loses no kept matching only if every prefix of a kept
    matching is least (Read 1978)."""
    group = _symmetries(k)
    for matching in _searched_matchings(k):
        for t in range(len(matching) + 1):
            prefix = matching[:t]
            assert all(_apply_to_matching(g, prefix) >= prefix for g in group)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_prefix_of_a_kept_sink_permutation_is_least(k):
    """The same for the sink arcs (d, sigma(d)) of the ascending sink-fed
    darts, under the stabilizer of the matching: every other symmetry maps
    the matching to a larger one already."""
    group = _symmetries(k)
    for matching, images in _stream(k):
        stab = _stabilizer(group, matching)
        arcs = tuple(zip(_sink_fed(k, matching), images))
        for t in range(len(arcs) + 1):
            prefix = arcs[:t]
            assert all(_apply_to_matching(g, prefix) >= prefix for g in stab)


@pytest.mark.parametrize("k, variants", [(1, 2), (2, 19), (3, 290), (4, 7413)])
def test_search_stream_matches_the_sink_variants_oracle(k, variants):
    """The search yields, for each matching and in the same order, the sink
    permutations that the conjugation oracle _sink_variants keeps.  For
    k <= 3 the matchings are the oracle's live canonical ones (compared in
    sorted order, which keeps each matching's sigma order).  At k = 4,
    beyond the cap, they are the search's own 328, whose orbit sizes count
    the 115,609 live matchings."""
    group = _symmetries(k)
    stream = _stream(k)
    if k < 4:
        matchings = sorted(m for m, _ in _oracle_canonical_matchings(k) if _live(k, m))
        stream.sort(key=lambda item: item[0])
    else:
        matchings = list(dict.fromkeys(m for m, _ in stream))
        assert len(matchings) == 328
        assert sum(384 // len(_stabilizer(group, m)) for m in matchings) == 115609
    oracle = [(m, images) for m in matchings
              for images in _sink_variants(_sink_fed(k, m), _stabilizer(group, m))]
    assert stream == oracle
    assert len(stream) == variants


def test_liveness_is_constant_on_orbits():
    """Every symmetry of the encoding keeps liveness, so filtering live
    matchings before the orbit test keeps exactly the live canonical ones."""
    group = _symmetries(3)
    oracle = _oracle_canonical_matchings(3)
    assert len(oracle) == 372
    for matching, _ in oracle:
        live = _live(3, matching)
        assert all(_live(3, _apply_to_matching(g, matching)) is live for g in group)


def _coherent(n: int, part: list, is_ext: list) -> bool:
    """Whether every face of the reduced map has exactly two sign runs,
    counting the implicit extremum hop, which always flips the sign."""
    seen = [False] * n
    for d0 in range(n):
        if seen[d0]:
            continue
        changes = 0
        first = prev = not (d0 & 1)
        d = d0
        while True:
            seen[d] = True
            s = not (d & 1)
            if d != d0 and s != prev:
                changes += 1
                if changes > 2:
                    return False
            prev = s
            if is_ext[d]:
                changes += 1
                if changes > 2:
                    return False
                prev = not s
            p = part[d]
            d = (p & ~3) | ((p + 1) & 3)
            if d == d0:
                break
        if changes + (prev != first) != 2:
            return False
    return True


@pytest.mark.parametrize("k, canonical, live, derived, connected",
                         [(1, 5, 1, 2, 2), (2, 39, 5, 19, 16), (3, 372, 30, 290, 254)])
def test_derived_source_permutation_matches_the_oracle(k, canonical, live, derived, connected):
    """For every canonical matching of the oracle, dead ones included, and
    every kept sink permutation sigma, the source permutations that pass the
    reference face trace _coherent are exactly the one the search derives,
    tau(ends[sigma(d)]) = the source-fed y with ends[y] = d, or none when
    _hop_ends finds a chain of connections without an extremum.  Counts:
    canonical matchings, live matchings, derived candidates, connected
    candidates."""
    n = 4 * k
    searched = {(matching, tuple(part[d] for d in sink_fed)): tuple(part)
                for matching, sink_fed, _, part in _candidates(k)}
    counts = [0, 0, 0, 0]
    for matching, stab in _oracle_canonical_matchings(k):
        counts[0] += 1
        part = list(range(n))
        for a, b in matching:
            part[a], part[b] = b, a
        is_ext = [part[d] == d for d in range(n)]
        sink_fed = [d for d in range(0, n, 2) if is_ext[d]]
        source_fed = [d for d in range(1, n, 2) if is_ext[d]]
        ends = _hop_ends(n, part)
        if ends is not None:
            counts[1] += 1
            assert sorted(ends[x] for x in sink_fed) == source_fed
            assert sorted(ends[y] for y in source_fed) == sink_fed
        for snk_images in _sink_variants(sink_fed, stab):
            for d, img in zip(sink_fed, snk_images):
                part[d] = img
            passing = []
            for src_images in permutations(source_fed):
                for d, img in zip(source_fed, src_images):
                    part[d] = img
                if _coherent(n, part, is_ext):
                    passing.append(src_images)
            if ends is None:
                assert passing == []
                continue
            tau = {ends[img]: y for d, img in zip(sink_fed, snk_images)
                   for y in source_fed if ends[y] == d}
            assert passing == [tuple(tau[y] for y in source_fed)]
            counts[2] += 1
            for y in source_fed:
                part[y] = tau[y]
            assert searched[(matching, snk_images)] == tuple(part)
            counts[3] += _connected(k, part)
    assert counts == [canonical, live, derived, connected]
    assert len(searched) == derived


@pytest.mark.parametrize("k, matchings, candidates", [(1, 7, 2), (2, 209, 100), (3, 13327, 11344)])
def test_orbit_counting_identities(k, matchings, candidates):
    """Mass-formula check of the pruned generator (Walsh & Lehman 1972).

    G, the saddle relabelings and half-turns, acts on the unpruned encoding.
    (a) The canonical matchings, weighted by orbit size |G|/|Stab M|, count
    every matching.  (a') For each canonical M, the sink permutations the
    search yields (the oracle _sink_variants keeps them for a dead M, which
    the search never reaches), weighted by |Stab M|/|C(sigma)|, count every
    permutation.  (b) The classes, weighted by |G|/|Aut c|, count the
    coherent connected candidates of the unpruned encoding, obtained from the
    kept (M, sigma) weighted by |G|/|C(sigma)|.  (a) and (a') catch a wrong
    orbit test or a lost representative; (b) catches a code collision or a
    missed duplicate.  The face filter is the reference trace _coherent,
    which the generator no longer runs; the connectivity filter is shared
    with the generator and is covered by the naive cross-check at k <= 2.
    """
    group = _symmetries(k)
    assert len(group) == math.factorial(k) * 2 ** k
    n = 4 * k
    assert sum(math.comb(2 * k, t) * math.perm(2 * k, t) for t in range(2 * k + 1)) == matchings
    searched = {}
    for matching, images in _stream(k):
        searched.setdefault(matching, []).append(images)
    matching_mass = 0
    candidate_mass = 0
    for matching, stab in _oracle_canonical_matchings(k):
        matching_mass += len(group) // len(stab)
        part = [0] * n
        for a, b in matching:
            part[a], part[b] = b, a
        is_ext = [all(d not in pair for pair in matching) for d in range(n)]
        sink_fed = [d for d in range(n) if is_ext[d] and d % 2 == 0]
        source_fed = [d for d in range(n) if is_ext[d] and d % 2 == 1]
        sigma_mass = 0
        variants = searched[matching] if _live(k, matching) else _sink_variants(sink_fed, stab)
        for snk_images in variants:
            sigma = dict(zip(sink_fed, snk_images))
            centralizer = sum(1 for g in stab if all(g[sigma[d]] == sigma[g[d]] for d in sink_fed))
            assert len(stab) % centralizer == 0
            sigma_mass += len(stab) // centralizer
            for d, img in sigma.items():
                part[d] = img
            kept = 0
            for src_images in permutations(source_fed):
                for d, img in zip(source_fed, src_images):
                    part[d] = img
                if _coherent(n, part, is_ext) and _connected(k, part):
                    kept += 1
            candidate_mass += len(group) // centralizer * kept
        assert sigma_mass == math.factorial(len(sink_fed))
    assert matching_mass == matchings
    class_mass = 0
    for rec in enumerate_classes(k):
        aut = _aut_order(rec.flow)
        assert len(group) % aut == 0
        class_mass += len(group) // aut
    assert class_mass == candidate_mass == candidates


def test_class_mass_by_the_exponential_formula():
    """An independent count of the class mass, sharing no pruning with the
    search (Harary & Palmer 1973; Flajolet & Sedgewick 2009, ch. II).

    On k labelled saddles a live matching M leaves m = 2k - |M| sink-fed
    darts, and each of the m! sink permutations fixes one coherent source
    permutation; its cycles are the sinks, and the unsigned Stirling number
    c(m, j) counts the permutations with j cycles.  So A_k(u), the coherent
    candidates by sink count, connected or not, sums c(m, .) over the live
    matchings of the brute-force _matchings(k).  Splitting off the component
    of saddle 0 gives A_n = sum_j C(n - 1, j - 1) C_j A_{n - j}, which yields
    the connected ones C_k(u).  The classes with j sinks, weighted by
    |G|/|Aut c|, count the coefficient of u^j in C_k."""
    # polynomials in u as coefficient lists for sink counts 0..6
    def times(p, q):
        return [sum(p[i] * q[j - i] for i in range(j + 1)) for j in range(7)]

    stirling = [[1, 0, 0, 0, 0, 0, 0]]
    for m in range(6):
        stirling.append([m * c + lower for c, lower in zip(stirling[m], [0] + stirling[m])])
    labelled = {0: stirling[0]}
    connected = {}
    for k in (1, 2, 3):
        labelled[k] = [sum(column) for column in zip(*(
            stirling[2 * k - len(m)] for m in _matchings(k) if _live(k, m)))]
        connected[k] = labelled[k]
        for j in range(1, k):
            split = times(connected[j], labelled[k - j])
            connected[k] = [c - math.comb(k - 1, j - 1) * x for c, x in zip(connected[k], split)]
    assert [sum(labelled[k]) for k in (1, 2, 3)] == [2, 104, 11952]
    assert [sum(connected[k]) for k in (1, 2, 3)] == [2, 100, 11344]
    assert connected[3] == [0, 3288, 5344, 2384, 328, 0, 0]
    for k in (1, 2, 3):
        order = math.factorial(k) * 2 ** k
        by_sinks = [0] * 7
        for rec in enumerate_classes(k):
            aut = _aut_order(rec.flow)
            assert order % aut == 0
            by_sinks[rec.sinks] += order // aut
        assert by_sinks == connected[k]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_one_build_per_class(k, monkeypatch):
    monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
    calls = []
    real_build = enumeration.build

    def counting_build(description):
        calls.append(1)
        return real_build(description)

    monkeypatch.setattr(enumeration, "build", counting_build)
    records = enumerate_classes(k)
    assert len(calls) == len(records) == PINNED_TOTALS[k]


@pytest.mark.parametrize("k, part, expected", [
    # two saddles, each closed on itself by connections and one-dart extrema
    (2, [1, 0, 3, 2, 5, 4, 7, 6], False),
    (2, [1, 0, 2, 3, 5, 4, 6, 7], False),
    # saddles joined only through the extremum cycle (2 6) or (2 6 10)
    (2, [1, 0, 6, 3, 5, 4, 2, 7], True),
    (3, [1, 0, 6, 3, 5, 4, 10, 7, 9, 8, 2, 11], True),
])
def test_connected_walks_connections_and_extremum_cycles(k, part, expected):
    assert _connected(k, part) is expected


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
    """The generator never reverses a flow, so this checks it independently:
    the reverse of every class is a class with sources and sinks swapped,
    the same genus and the same verdict."""
    from morseflow import reverse

    for k in (0, 1, 2, 3):
        by_code = {r.code.code: r for r in enumerate_classes(k)}
        for rec in enumerate_classes(k):
            rev = by_code[canonical_code(reverse(rec.flow)).code]
            assert (rev.sources, rev.sinks) == (rec.sinks, rec.sources)
            assert (rev.genus, rev.gradient_like) == (rec.genus, rec.gradient_like)
