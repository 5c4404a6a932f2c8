"""Gradient-likeness verdicts, witnesses, and exact energy assignments."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from morseflow import reverse
from morseflow.enumeration import enumerate_classes
from morseflow.gradcheck import (
    EnergyAssignment,
    InconsistentCounts,
    NotGradientLike,
    NotRealizable,
    admits_gradient_like,
    build_energy,
    check_gradient_like,
    energy_violations,
    saddle_digraph,
)


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
            adj = saddle_digraph(rec.flow).successors()
            assert cycle
            for i, node in enumerate(cycle):
                assert cycle[(i + 1) % len(cycle)] in adj[node]


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
