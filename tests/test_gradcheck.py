"""Gradient-likeness verdicts, witnesses, and exact energy assignments."""
import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_description
from morseflow import build, reverse
from morseflow.enumeration import enumerate_classes
from morseflow.gradcheck import (
    EnergyAssignment,
    InconsistentCounts,
    NotGradientLike,
    NotRealizable,
    SaddleDigraph,
    _ranks_or_cycle,
    admits_gradient_like,
    build_energy,
    check_gradient_like,
    energy_violations,
    saddle_digraph,
)


def _successors(digraph: SaddleDigraph) -> dict:
    adj = {v: set() for v in digraph.nodes}
    for a, b in digraph.edges:
        adj[a].add(b)
    return adj


def _enumerated_least_cycle(digraph: SaddleDigraph) -> tuple[str, ...] | None:
    """Reference oracle for the witness: BFS for the shortest cycle length,
    then every simple path of that length (exponential in the length)."""
    adj = _successors(digraph)
    loops = sorted(v for v in digraph.nodes if v in adj[v])
    if loops:
        return (loops[0],)

    best_len = None
    for start in digraph.nodes:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w == start:
                        length = dist[v] + 1
                        if best_len is None or length < best_len:
                            best_len = length
                        continue
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
    if best_len is None:
        return None

    # enumerate all simple cycles of the minimal length, keep the least
    # canonical rotation
    best = None

    def extend(path, seen):
        nonlocal best
        v = path[-1]
        if len(path) == best_len:
            if path[0] in adj[v]:
                k = path.index(min(path))
                candidate = tuple(path[k:] + path[:k])
                if best is None or candidate < best:
                    best = candidate
            return
        for w in sorted(adj[v]):
            if w not in seen:
                extend(path + [w], seen | {w})

    for start in sorted(digraph.nodes):
        extend([start], {start})
    return best


def _grow_saddle_path(desc: dict, dart: str, splits: int) -> dict:
    """Split the separatrix leaving saddle out-dart `dart`, `splits` times.

    Each split cuts that separatrix at a new saddle X, sends X's other
    out-dart to a new one-dart sink and feeds X's other in-dart from a new
    dart at the source whose corner lies on the face that `dart` traverses.
    The face splits in two, so the genus and face coherence are unchanged,
    and the saddle path through `dart` gains one saddle.
    """
    kinds = {v["id"]: v["kind"] for v in desc["vertices"]}
    rings = {v: list(ring) for v, ring in desc["rotation"].items()}
    dart_dir = dict(desc["dart_dir"])
    partner = {}
    for a, b in desc["pairing"]:
        partner[a], partner[b] = b, a
    owner = {d: v for v, ring in rings.items() for d in ring}
    for n in range(splits):
        e = partner[dart]
        while kinds[owner[e]] != "source":  # face walk: paired dart, then successor
            ring = rings[owner[e]]
            e = partner[ring[(ring.index(e) + 1) % len(ring)]]
        x, k, s = f"x{n}", f"k{n}", f"s{n}"
        x0, x1, x2, x3, k0 = f"{x}.0", f"{x}.1", f"{x}.2", f"{x}.3", f"{k}.0"
        kinds[x], kinds[k] = "saddle", "sink"
        rings[x], rings[k] = [x0, x1, x2, x3], [k0]
        source_ring = rings[owner[e]]
        source_ring.insert(source_ring.index(e) + 1, s)
        for d, vertex, direction in ((x0, x, "out"), (x1, x, "in"), (x2, x, "out"),
                                     (x3, x, "in"), (k0, k, "in"), (s, owner[e], "out")):
            owner[d], dart_dir[d] = vertex, direction
        b = partner[dart]
        for p, q in ((dart, x1), (x0, b), (x2, k0), (x3, s)):
            partner[p], partner[q] = q, p
    return {
        "vertices": [{"id": v, "kind": kind} for v, kind in kinds.items()],
        "rotation": rings,
        "dart_dir": dart_dir,
        "pairing": [[d, e] for d, e in partner.items() if d < e],
    }


def test_saddle_digraph_sphere1(sphere1):
    dg = saddle_digraph(sphere1)
    assert dg.nodes == ("Z",)
    assert dg.edges == ()


def test_saddle_digraph_chain(chain2):
    dg = saddle_digraph(chain2)
    assert dg.nodes == ("z0", "z1")
    assert dg.edges == (("z0", "z1"),)


def test_saddle_digraph_homoclinic_self_loop(homoclinic):
    dg = saddle_digraph(homoclinic)
    assert dg.edges == (("Z", "Z"),)


def test_saddle_digraph_torus_with_connection():
    # a genus-1 flow with exactly one saddle connection exists and its
    # digraph has two vertices and one edge
    for rec in enumerate_classes(2):
        dg = saddle_digraph(rec.flow)
        if rec.genus == 1 and len(dg.edges) == 1:
            assert len(dg.nodes) == 2
            assert rec.gradient_like
            return
    pytest.fail("no genus-1 two-saddle flow with a single connection found")


def test_witness_is_a_genuine_directed_cycle():
    for k in (2, 3):
        for rec in enumerate_classes(k):
            report = check_gradient_like(rec.flow)
            if report.verdict:
                assert report.witness_cycle is None
                continue
            cycle = report.witness_cycle
            adj = _successors(saddle_digraph(rec.flow))
            assert cycle
            for i, node in enumerate(cycle):
                assert cycle[(i + 1) % len(cycle)] in adj[node]


@st.composite
def _digraphs(draw):
    """Digraphs on nodes 0..n-1, n <= 8, with self-loops and multi-edges."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=20))


@settings(max_examples=400, deadline=None)
@given(_digraphs())
def test_least_cycle_matches_enumeration_oracle(graph):
    n, edges = graph
    succs = [[] for _ in range(n)]
    for a, b in edges:
        succs[a].append(b)
    ranks, cycle = _ranks_or_cycle(succs)
    names = [f"s{i}" for i in range(n)]  # sort like the node numbers
    oracle = _enumerated_least_cycle(
        SaddleDigraph(tuple(names), tuple((names[a], names[b]) for a, b in edges)))
    assert (tuple(names[v] for v in cycle) if cycle else None) == oracle
    assert (ranks is None) == (cycle is not None)
    if ranks is not None:  # longest-path ranks: 0 at sources, else 1 + max over preds
        for w in range(n):
            assert ranks[w] == max((ranks[a] + 1 for a, b in edges if b == w), default=0)


def test_ladder_witness_is_a_least_cycle():
    # two rails a_i, b_i (i mod 16) with edges from both of layer i to both
    # of layer i + 1: 2^16 cycles, all of length 16
    m = 16
    succs = [[(i + 1) % m, m + (i + 1) % m] for i in range(m)] * 2
    ranks, cycle = _ranks_or_cycle(succs)
    assert ranks is None
    assert len(cycle) == m == len(set(cycle))
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
        assert w in succs[v]
    assert cycle == list(range(m))


def test_witness_on_a_1500_saddle_cycle():
    # cyclic.json's two-saddle cycle z1 -> z2 -> z1, with z1 -> z2 split
    # 1,498 times into z1 -> x1497 -> ... -> x0 -> z2
    flow = build(_grow_saddle_path(load_description("cyclic"), "z1.0", 1498))
    report = check_gradient_like(flow)
    assert not report.verdict
    assert report.witness_cycle == (
        ("x0", "z2", "z1") + tuple(f"x{n}" for n in range(1497, 0, -1)))
    edges = set(saddle_digraph(flow).edges)
    cycle = report.witness_cycle
    assert all(pair in edges for pair in zip(cycle, cycle[1:] + cycle[:1]))


def test_analysis_leaves_no_reference_cycles(cyclic, chain2):
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            check_gradient_like(cyclic)
            build_energy(chain2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_polar(polar):
    report = check_gradient_like(polar)
    assert report.verdict
    assert report.cond_separatrix_endpoints
    assert report.witness_cycle is None


def test_check_sphere1(sphere1):
    assert check_gradient_like(sphere1).verdict


def test_check_cyclic(cyclic):
    report = check_gradient_like(cyclic)
    assert not report.verdict
    assert report.cond_sources_sinks
    assert not report.cond_no_directed_cycle
    assert report.witness_cycle == ("z1", "z2")


def test_check_requires_coherence(cycleface, homoclinic):
    with pytest.raises(NotRealizable):
        check_gradient_like(cycleface)
    with pytest.raises(NotRealizable):
        check_gradient_like(homoclinic)


def test_report_json(cyclic):
    obj = check_gradient_like(cyclic).to_json()
    assert obj["verdict"] is False
    assert obj["witness_cycle"] == ["z1", "z2"]


def test_energy_sphere1(sphere1):
    energy = build_energy(sphere1)
    assert energy.values == {
        "S": Fraction(1), "K1": Fraction(-1), "K2": Fraction(-1), "Z": Fraction(0),
    }
    assert energy_violations(sphere1, energy) == []


def test_energy_chain(chain2):
    # ranks 0 and 1, raw 0 and -1, centered +-1/2, scaled by 2/3
    energy = build_energy(chain2)
    assert energy.values["z0"] == Fraction(1, 3)
    assert energy.values["z1"] == Fraction(-1, 3)
    assert energy_violations(chain2, energy) == []


def test_energy_cyclic_fails(cyclic):
    with pytest.raises(NotGradientLike) as exc:
        build_energy(cyclic)
    assert exc.value.report.witness_cycle == ("z1", "z2")


def test_energy_json_rationals(chain2):
    obj = build_energy(chain2).to_json()
    assert obj["z0"] == "1/3" and obj["p0"] == "1/1" and obj["q0"] == "-1/1"


def test_energy_violations_catch_bad_assignment(chain2):
    good = build_energy(chain2).values
    bad = dict(good)
    bad["z0"], bad["z1"] = bad["z1"], bad["z0"]  # breaks monotonicity
    assert energy_violations(chain2, EnergyAssignment(bad))
    bad2 = dict(good)
    bad2["p0"] = Fraction(2)
    assert energy_violations(chain2, EnergyAssignment(bad2))


def test_strict_monotonicity_over_enumeration():
    for k in (1, 2, 3):
        for rec in enumerate_classes(k):
            if not rec.gradient_like:
                continue
            energy = build_energy(rec.flow)
            values = energy.values
            for a, b in saddle_digraph(rec.flow).edges:
                assert values[a] > values[b]


def test_oracle_equivalence_small():
    # verdict true <=> build_energy succeeds
    for k in (0, 1, 2):
        for rec in enumerate_classes(k):
            report = check_gradient_like(rec.flow)
            try:
                energy = build_energy(rec.flow)
                succeeded = True
                assert energy_violations(rec.flow, energy) == []
            except NotGradientLike:
                succeeded = False
            assert succeeded == report.verdict


def test_reverse_duality():
    # reversal flips the saddle digraph: verdicts agree, and negating the
    # reversed flow's energy is a valid assignment for the original (the
    # longest-path ranks themselves are not reversal-symmetric, so pointwise
    # equality is not asserted)
    for k in (0, 1, 2):
        for rec in enumerate_classes(k):
            rev = reverse(rec.flow)
            assert check_gradient_like(rev).verdict == rec.gradient_like
            if rec.gradient_like:
                negated = {v: -x for v, x in build_energy(rev).values.items()}
                assert energy_violations(rec.flow, EnergyAssignment(negated)) == []


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 40))
def test_admits_gradient_like_property(sources, sinks, saddles):
    chi = sources + sinks - saddles
    if chi % 2 != 0 or chi > 2:
        with pytest.raises(InconsistentCounts):
            admits_gradient_like(sources, sinks, saddles)
    else:
        assert admits_gradient_like(sources, sinks, saddles) == (
            sources >= 1 and sinks >= 1
        )


def test_admits_gradient_like():
    assert admits_gradient_like(1, 1, 0)
    assert not admits_gradient_like(2, 0, 0)
    assert admits_gradient_like(3, 2, 3)
    with pytest.raises(InconsistentCounts):
        admits_gradient_like(1, 1, 1)
    with pytest.raises(InconsistentCounts):
        admits_gradient_like(4, 4, 0)
    with pytest.raises(InconsistentCounts):
        admits_gradient_like(-1, 1, 0)


def test_relabeling_invariance_of_verdict_and_energy(chain2):
    import random

    from morseflow import relabel

    rng = random.Random(3)
    vids, dids = chain2.vertex_ids, chain2.dart_ids
    for _ in range(20):
        new_v = [f"v{i}" for i in range(len(vids))]
        new_d = [f"d{i}" for i in range(len(dids))]
        rng.shuffle(new_v)
        rng.shuffle(new_d)
        vmap = dict(zip(vids, new_v))
        renamed = relabel(chain2, vmap, dict(zip(dids, new_d)))
        assert check_gradient_like(renamed).verdict
        energy = build_energy(renamed)
        base = build_energy(chain2)
        assert {vmap[v]: x for v, x in base.values.items()} == energy.values
