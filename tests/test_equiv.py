"""Canonical codes: invariance, completeness, mirror quotient, relabeling."""
import importlib.util
import json
import pathlib
import random
import sys

import pytest

from morseflow import build, canonical_code, equivalent, relabel, reverse
from morseflow.enumeration import MAX_SADDLES, enumerate_classes
from morseflow.equiv import CanonicalCode
from morseflow.flowgraph import FlowError

from code_oracle import oracle_code
from conftest import FIXTURES, FLOW_FIXTURES, load_flow


def random_relabeling(flow, rng):
    vids = flow.vertex_ids
    dids = flow.dart_ids
    new_v = [f"v{i}" for i in range(len(vids))]
    new_d = [f"d{i}" for i in range(len(dids))]
    rng.shuffle(new_v)
    rng.shuffle(new_d)
    return dict(zip(vids, new_v)), dict(zip(dids, new_d))


def test_polar_constant_code(polar):
    code = canonical_code(polar)
    assert code.code == (0,)
    assert canonical_code(reverse(polar)).code == code.code


def test_code_survives_relabeling(sphere1):
    rng = random.Random(1)
    base = canonical_code(sphere1)
    for _ in range(100):
        vmap, dmap = random_relabeling(sphere1, rng)
        assert canonical_code(relabel(sphere1, vmap, dmap)).code == base.code


def test_sphere_differs_from_reverse(sphere1):
    # one source + two sinks vs two sources + one sink
    assert not equivalent(sphere1, reverse(sphere1))


def test_torus_self_dual(torus):
    assert equivalent(torus, reverse(torus))


def test_equivalent_accepts_relabeled(chain2):
    vmap, dmap = random_relabeling(chain2, random.Random(5))
    assert equivalent(chain2, relabel(chain2, vmap, dmap))


def test_inequivalent_fixtures(sphere1, torus):
    assert not equivalent(sphere1, torus)


def test_relabel_identity(sphere1):
    vmap = {v: v for v in sphere1.vertex_ids}
    dmap = {d: d for d in sphere1.dart_ids}
    assert relabel(sphere1, vmap, dmap).to_description() == sphere1.to_description()


def test_relabel_swapping_sinks_is_equivalent(sphere1):
    vmap = {v: v for v in sphere1.vertex_ids}
    vmap["K1"], vmap["K2"] = "K2", "K1"
    dmap = {d: d for d in sphere1.dart_ids}
    assert equivalent(sphere1, relabel(sphere1, vmap, dmap))


def test_relabel_rejects_collapse(sphere1):
    vmap = {v: v for v in sphere1.vertex_ids}
    dmap = {d: "same" for d in sphere1.dart_ids}
    with pytest.raises(ValueError):
        relabel(sphere1, vmap, dmap)
    with pytest.raises(ValueError):
        relabel(sphere1, {}, {d: d for d in sphere1.dart_ids})


def _bad_maps(ids):
    """Maps of the ids that relabel must refuse, each with its error."""
    ident = {x: x for x in ids}
    missing = dict(ident)
    del missing[ids[0]]
    return [
        (missing, ValueError),
        ({**ident, ids[0]: ids[1]}, ValueError),  # not injective
        (sorted(ident.items()), ValueError),  # not a dict
        (None, ValueError),
        ({**ident, ids[0]: ["x"]}, FlowError),  # unhashable image
        ({**ident, ids[0]: 3}, FlowError),  # image not a string
    ]


def test_relabel_raises_only_documented_errors(sphere1):
    vmap = {v: v for v in sphere1.vertex_ids}
    dmap = {d: d for d in sphere1.dart_ids}
    for bad, error in _bad_maps(sphere1.vertex_ids):
        with pytest.raises(error) as info:
            relabel(sphere1, bad, dmap)
        assert isinstance(info.value, FlowError) is (error is FlowError)
    for bad, error in _bad_maps(sphere1.dart_ids):
        with pytest.raises(error) as info:
            relabel(sphere1, vmap, bad)
        assert isinstance(info.value, FlowError) is (error is FlowError)


def _mirror(flow):
    desc = flow.to_description()
    desc["rotation"] = {v: list(reversed(r)) for v, r in desc["rotation"].items()}
    return build(desc)


def test_mirror_quotient():
    for k in (1, 2):
        for rec in enumerate_classes(k):
            m = _mirror(rec.flow)
            assert canonical_code(rec.flow, True).code == canonical_code(m, True).code


def test_mirror_flag_distinguishes_chiral_classes():
    chiral = [
        rec for rec in enumerate_classes(2)
        if canonical_code(rec.flow).code != canonical_code(_mirror(rec.flow)).code
    ]
    assert chiral, "expected at least one chiral class with two saddles"


def test_code_separates_invariants():
    # equal codes imply equal counts and genus; distinct (counts, genus)
    # imply distinct codes
    seen = {}
    for k in (0, 1, 2):
        for rec in enumerate_classes(k):
            key = rec.code.code
            stats = (rec.genus, rec.sources, rec.sinks)
            assert seen.setdefault(key, stats) == stats


def test_equivalence_relation_on_enumeration():
    records = enumerate_classes(2)
    # representatives are pairwise inequivalent and self-equivalent
    for i, a in enumerate(records):
        assert equivalent(a.flow, a.flow)
        for b in records[i + 1:]:
            assert not equivalent(a.flow, b.flow)


def test_code_string_and_hash_are_stable(sphere1):
    code = canonical_code(sphere1)
    assert code.as_string() == "-".join(str(n) for n in code.code)
    h = code.stable_hash()
    assert len(h) == 16 and int(h, 16) >= 0
    assert CanonicalCode(code.code, code.mirror_included).stable_hash() == h


@pytest.fixture(scope="module")
def large_flows():
    """The flows of the benchmark's `large` workload at seed 7: 200-400
    darts, grown from fixtures by saddle insertion."""
    path = pathlib.Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    # registered before it runs: its dataclasses look their module up by name
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    fixtures = {n: json.loads((FIXTURES / f"{n}.json").read_text())
                for n in ("chain2", "torus", "cyclic")}
    return [build(x.description) for x in inputs.large_inputs(fixtures, random.Random(7))]


@pytest.mark.parametrize("mirror", [False, True])
def test_code_matches_the_oracle_on_classes_and_fixtures(mirror):
    flows = [rec.flow for k in range(MAX_SADDLES + 1) for rec in enumerate_classes(k)]
    flows += [load_flow(name) for name in FLOW_FIXTURES]
    assert len(flows) == 273 + len(FLOW_FIXTURES)
    for flow in flows:
        assert canonical_code(flow, mirror).code == oracle_code(flow, mirror)


@pytest.mark.parametrize("mirror", [False, True])
def test_code_matches_the_oracle_on_large_flows(mirror, large_flows):
    assert len(large_flows) == 12
    for flow in large_flows:
        assert canonical_code(flow, mirror).code == oracle_code(flow, mirror)
