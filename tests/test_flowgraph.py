"""Building, face tracing, derived topology and reversal of flow graphs."""
import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from morseflow import flowgraph
from morseflow.enumeration import enumerate_classes
from morseflow.equiv import canonical_code
from morseflow.flowgraph import (
    BadDartDirection,
    BadPairing,
    BadSpecialPolar,
    Disconnected,
    GenusHintMismatch,
    IsolatedExtremum,
    MalformedFlow,
    NonAlternatingSaddle,
    build,
    euler_characteristic,
    face_coherence_check,
    faces,
    genus,
    poincare_hopf_check,
    reverse,
)
from morseflow.gradcheck import NotRealizable, check_gradient_like

from code_oracle import oracle_code
from conftest import FLOW_FIXTURES, load_description, load_flow
from test_gradcheck import _grow_saddle_path


def _reverse_by_description(flow):
    """Time reversal through the description and build(): the oracle for
    reverse(), which works on the arrays."""
    swap = {"source": "sink", "sink": "source", "saddle": "saddle"}
    desc = flow.to_description()
    desc["vertices"] = [{"id": e["id"], "kind": swap[e["kind"]]} for e in desc["vertices"]]
    desc["rotation"] = {v: ring[::-1] for v, ring in desc["rotation"].items()}
    desc["dart_dir"] = {d: "in" if x == "out" else "out" for d, x in desc["dart_dir"].items()}
    return build(desc)


def test_build_polar(polar):
    assert polar.special_polar
    assert polar.counts() == (1, 1, 0)
    assert polar.num_edges() == 0


def test_build_sphere1(sphere1):
    assert sphere1.counts() == (1, 2, 1)
    assert sphere1.num_edges() == 4


def test_build_rejects_non_alternating_saddle(sphere1):
    desc = load_description("sphere1")
    # make the saddle read out, out, in, in
    desc["rotation"]["Z"] = ["z0", "z2", "z1", "z3"]
    with pytest.raises(NonAlternatingSaddle):
        build(desc)


def test_build_rejects_wrong_dart_count_saddle():
    desc = load_description("sphere1")
    desc["rotation"]["Z"] = ["z0", "z1", "z2"]
    del desc["dart_dir"]["z3"]
    desc["pairing"] = [p for p in desc["pairing"] if "z3" not in p]
    desc["rotation"]["S"] = ["s1"]
    del desc["dart_dir"]["s2"]
    with pytest.raises(NonAlternatingSaddle):
        build(desc)


def test_build_rejects_bad_direction():
    desc = load_description("sphere1")
    desc["dart_dir"]["k1"] = "out"
    desc["dart_dir"]["z0"] = "in"
    desc["rotation"]["Z"] = ["z1", "z0", "z2", "z3"]  # keep alternation
    with pytest.raises(BadDartDirection):
        build(desc)


def test_build_rejects_bad_pairing():
    desc = load_description("sphere1")
    desc["pairing"] = [["z0", "z2"], ["z1", "s1"], ["k1", "k2"], ["z3", "s2"]]
    with pytest.raises(BadPairing):
        build(desc)


def test_build_rejects_extremum_to_extremum_edge():
    # a one-source one-sink "flow" joined by a single trajectory is not a
    # separatrix graph
    desc = {
        "special_polar": False,
        "vertices": [{"id": "N", "kind": "source"}, {"id": "S", "kind": "sink"}],
        "rotation": {"N": ["a"], "S": ["b"]},
        "dart_dir": {"a": "out", "b": "in"},
        "pairing": [["a", "b"]],
    }
    with pytest.raises(BadPairing):
        build(desc)


def test_build_rejects_isolated_extremum():
    desc = load_description("sphere1")
    desc["vertices"].append({"id": "K3", "kind": "sink"})
    desc["rotation"]["K3"] = []
    with pytest.raises(IsolatedExtremum):
        build(desc)


def test_build_rejects_disconnected():
    a = load_description("sphere1")
    b = load_description("sphere1")
    merged = {
        "special_polar": False,
        "vertices": a["vertices"] + [
            {"id": v["id"] + "'", "kind": v["kind"]} for v in b["vertices"]
        ],
        "rotation": dict(a["rotation"]) | {
            v + "'": [d + "'" for d in ring] for v, ring in b["rotation"].items()
        },
        "dart_dir": dict(a["dart_dir"]) | {d + "'": x for d, x in b["dart_dir"].items()},
        "pairing": a["pairing"] + [[x + "'", y + "'"] for x, y in b["pairing"]],
    }
    with pytest.raises(Disconnected) as err:
        build(merged)
    assert str(err.value) == """vertices unreachable from S: ["K1'", "K2'", "S'", "Z'"]"""


def test_build_rejects_bad_special_polar():
    with pytest.raises(BadSpecialPolar):
        build({"special_polar": True, "vertices": [
            {"id": "N", "kind": "source"}, {"id": "M", "kind": "source"}]})
    with pytest.raises(BadSpecialPolar):
        build({"special_polar": True,
               "vertices": [{"id": "N", "kind": "source"}, {"id": "S", "kind": "sink"},
                            {"id": "Z", "kind": "saddle"}]})


def test_build_rejects_schema_problems():
    with pytest.raises(MalformedFlow):
        build({"vertices": "nope"})
    with pytest.raises(MalformedFlow):
        build({"vertices": [], "bogus_key": 1})
    desc = load_description("sphere1")
    desc["rotation"]["Z"] = ["z0", "z1", "z2", "zz"]
    with pytest.raises(MalformedFlow):
        build(desc)


def test_genus_hint_checked():
    desc = load_description("torus")
    desc["genus_hint"] = 0
    with pytest.raises(GenusHintMismatch):
        build(desc)


def test_build_rejects_non_string_pairing_end():
    desc = load_description("sphere1")
    desc["pairing"][0] = [["z0"], "k1"]
    with pytest.raises(MalformedFlow):
        build(desc)


def test_build_rejects_non_bool_special_polar():
    desc = load_description("polar")
    desc["special_polar"] = "no"
    with pytest.raises(MalformedFlow):
        build(desc)


def test_build_rejects_bool_genus_hint():
    desc = load_description("sphere1")
    desc["genus_hint"] = False
    with pytest.raises(MalformedFlow):
        build(desc)


def test_flow_holds_only_tuples_and_scalars():
    def leaves(x):
        return [y for item in x for y in leaves(item)] if isinstance(x, tuple) else [x]

    for name in FLOW_FIXTURES:
        flow = load_flow(name)
        assert hash(flow) == hash(load_flow(name))
        rev = reverse(flow)
        assert hash(rev) == hash(reverse(load_flow(name)))
        assert all(type(leaf) in (str, int, bool)
                   for f in (flow, rev) for value in f._asdict().values() for leaf in leaves(value))


def _containers(node, path=()):
    """Paths to every dict and list inside a description."""
    if isinstance(node, (dict, list)):
        yield path
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _containers(child, path + (key,))


def mutate(data, desc, values, new_keys):
    """Edit desc in place one to three times: replace, drop or duplicate an
    entry of a dict or list inside it, or add one to an empty one."""
    for _ in range(data.draw(st.integers(1, 3))):
        node = desc
        for key in data.draw(st.sampled_from(list(_containers(desc)))):
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = data.draw(st.sampled_from(["replace", "drop", "duplicate"])) if keys else "add"
        key = data.draw(st.sampled_from(keys)) if keys else None
        if op == "replace":
            node[key] = data.draw(values)
        elif op == "drop":
            del node[key]
        elif isinstance(node, dict):
            new = data.draw(st.sampled_from(new_keys))
            node[new] = copy.deepcopy(node[key]) if op == "duplicate" else data.draw(values)
        else:
            node.append(copy.deepcopy(node[key]) if op == "duplicate" else data.draw(values))


_WORDS = st.sampled_from(
    ["a", "b", "c", "id", "kind", "out", "in", "source", "sink", "saddle", "A1:+,+", "A1:-"])
_KINDS = st.sampled_from(["source", "sink", "saddle", "x"])
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(), _WORDS),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_WORDS, inner, max_size=3)),
    max_leaves=8)
DESCRIPTION_KEYS = ["special_polar", "vertices", "rotation", "dart_dir", "pairing", "genus_hint"]
# vertex lists are also drawn as lists of {"id", "kind"} entries, so that
# some random descriptions get past the vertex checks
random_descriptions = st.fixed_dictionaries({}, optional={
    key: st.one_of(json_values, st.lists(st.fixed_dictionaries({"id": json_values, "kind": _KINDS}),
                                         max_size=3)) if key == "vertices" else json_values
    for key in DESCRIPTION_KEYS})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_fuzzed_fixtures_raise_only_flow_error(data):
    """Replace, drop or duplicate keys and list entries of a fixture; build()
    either rejects the result with a FlowError or returns a flow that
    round-trips through its description, whose double reverse keeps its
    code, and whose codes, plain and mirror, equal the oracle's."""
    desc = load_description(data.draw(st.sampled_from(FLOW_FIXTURES)))
    ids = sorted({e["id"] for e in desc["vertices"]} | set(desc.get("dart_dir", {})))
    # ids half of the time, so that some mutated descriptions still build
    values = st.one_of(
        st.sampled_from(ids + ["zz", "out", "in", "source", "sink", "saddle"]),
        st.one_of(st.none(), st.booleans(), st.integers(-1, 4), st.just(0.5),
                  st.builds(list), st.builds(dict)))
    mutate(data, desc, values, ids + ["zz"])
    try:
        flow = build(desc)
    except flowgraph.FlowError:
        return
    assert reverse(flow) == _reverse_by_description(flow)
    again = build(flow.to_description())
    assert again.to_description() == flow.to_description()
    assert canonical_code(again) == canonical_code(flow)
    assert canonical_code(reverse(reverse(flow))) == canonical_code(flow)
    for mirror in (False, True):
        assert canonical_code(flow, mirror).code == oracle_code(flow, mirror)


@settings(max_examples=200, deadline=None)
@given(random_descriptions)
@example(load_description("polar"))
@example(load_description("sphere1"))
@example(load_description("cyclic"))
@example(load_description("cycleface"))
def test_build_random_descriptions_raise_only_flow_error(desc):
    """Nested JSON values under the description keys: build() raises only a
    FlowError, and on a flow it returns the canonical codes and the reverse
    return, and the gradient check returns or raises NotRealizable."""
    try:
        flow = build(desc)
    except flowgraph.FlowError:
        return
    canonical_code(flow)
    canonical_code(flow, include_mirror=True)
    reverse(flow)
    try:
        check_gradient_like(flow)
    except NotRealizable:
        pass


# ---------------------------------------------------------------------------
# faces and derived topology


def test_faces_sphere1(sphere1):
    walks = faces(sphere1)
    assert len(walks) == 2
    assert tuple(sorted(d for w in walks for d in w)) == sphere1.dart_ids


def test_faces_torus(torus):
    walks = faces(torus)
    assert len(walks) == 4
    assert euler_characteristic(torus) == 0


def test_faces_polar_convention(polar):
    assert faces(polar) == [(), ()]
    assert euler_characteristic(polar) == 2
    assert genus(polar) == 0


@pytest.mark.parametrize("name", FLOW_FIXTURES)
def test_faces_partition_darts(name):
    flow = load_flow(name)
    walks = faces(flow)
    seen = [d for w in walks for d in w]
    assert tuple(sorted(seen)) == flow.dart_ids
    assert len(set(seen)) == len(seen)


def test_euler_and_genus(sphere1, torus, polar):
    assert (euler_characteristic(sphere1), genus(sphere1)) == (2, 0)
    assert (euler_characteristic(torus), genus(torus)) == (0, 1)
    assert (euler_characteristic(polar), genus(polar)) == (2, 0)


def test_edge_count_formula():
    for name in FLOW_FIXTURES:
        flow = load_flow(name)
        _, _, k = flow.counts()
        extremum_darts = sum(
            len(ring) for ring, kind in zip(flow.rings, flow.kinds) if kind != "saddle"
        )
        assert flow.num_edges() == (4 * k + extremum_darts) / 2


def test_poincare_hopf(sphere1, torus, homoclinic):
    assert poincare_hopf_check(sphere1)
    assert poincare_hopf_check(torus)
    # valid structure whose index count fails; stays buildable, check is false
    assert not poincare_hopf_check(homoclinic)


def test_face_coherence(sphere1, torus, cycleface, homoclinic):
    assert face_coherence_check(sphere1)
    assert face_coherence_check(torus)
    assert not face_coherence_check(cycleface)
    assert not face_coherence_check(homoclinic)


def test_cycleface_has_directed_face_boundary(cycleface):
    # the face (z0, w0) is a directed separatrix 2-cycle: constant signs
    walks = faces(cycleface)
    dart_dir = cycleface.to_description()["dart_dir"]
    bad = [w for w in walks
           if len({dart_dir[d] for d in w}) == 1]
    assert bad == [("w0", "z0")] or bad == [("z0", "w0")]


# ---------------------------------------------------------------------------
# reversal and round trips


def test_reverse_polar(polar):
    rev = reverse(polar)
    assert rev.special_polar and rev.counts() == (1, 1, 0)


def test_reverse_sphere1(sphere1):
    rev = reverse(sphere1)
    assert rev.counts() == (2, 1, 1)
    assert genus(rev) == 0


def test_reverse_matches_description_round_trip():
    flows = [load_flow(name) for name in FLOW_FIXTURES]
    flows += [rec.flow for k in range(4) for rec in enumerate_classes(k)]
    flows.append(build(_grow_saddle_path(load_description("cyclic"), "z1.0", 1498)))
    for flow in flows:
        rev = reverse(flow)
        assert rev == _reverse_by_description(flow)
        assert reverse(rev) == flow


def test_reverse_is_involution():
    for name in FLOW_FIXTURES:
        flow = load_flow(name)
        back = reverse(reverse(flow))
        assert back.to_description() == flow.to_description()


def test_reverse_preserves_topology_and_coherence():
    for name in FLOW_FIXTURES:
        flow = load_flow(name)
        rev = reverse(flow)
        assert genus(rev) == genus(flow)
        assert len(faces(rev)) == len(faces(flow))
        assert face_coherence_check(rev) == face_coherence_check(flow)


def test_description_round_trip():
    for name in FLOW_FIXTURES:
        flow = load_flow(name)
        again = build(copy.deepcopy(flow.to_description()))
        assert again.to_description() == flow.to_description()


def test_relabeling_invariance_of_euler():
    flow = load_flow("torus")
    desc = flow.to_description()
    desc["rotation"] = {"X" + v: ["X" + d for d in ring] for v, ring in desc["rotation"].items()}
    desc["vertices"] = [{"id": "X" + e["id"], "kind": e["kind"]} for e in desc["vertices"]]
    desc["dart_dir"] = {"X" + d: x for d, x in desc["dart_dir"].items()}
    desc["pairing"] = [["X" + a, "X" + b] for a, b in desc["pairing"]]
    assert euler_characteristic(build(desc)) == euler_characteristic(flow)
