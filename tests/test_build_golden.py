"""build()'s outcome on seeded mutations of valid flows, pinned.

Each case is a fixture or a k <= 2 class representative changed by one to
three seeded mutations.  Its outcome is "ok" or the type and message of the
first error build() raises.  fixtures/build_golden.json pins every outcome,
with a digest of the mutated description, so that a change to build() that
moves the first error, rewords a message or accepts a different set of
inputs fails here.  NonOrientableOrCorrupt is the one FlowError no case
reaches: a connected map has V - E + F = 2 - 2g.

Re-record after a deliberate change to build() or to the mutations with

    PYTHONPATH=src python tests/test_build_golden.py

which also prints the digest of the built flows to pin in BUILT_SHA256.
"""
import copy
import hashlib
import json
import random

from morseflow import flowgraph
from morseflow.enumeration import enumerate_classes

from conftest import FLOW_FIXTURES, fixture_path, load_description

CASES = 1000
SEED = 10
GOLDEN = fixture_path("build_golden")
BUILT_SHA256 = "7405d874779a32eb4552da7abb895d5b0062d67852ee13bbdb921c38092dd290"
_VALUES = [None, True, False, -1, 0, 1, 2, 0.5, "", "zz", "out", "in",
           "source", "sink", "saddle", [], {}]


def _ids(desc):
    """Vertex and dart ids that the description mentions."""
    found = set()
    vertices = desc.get("vertices")
    for entry in vertices if isinstance(vertices, list) else []:
        if isinstance(entry, dict) and isinstance(entry.get("id"), str):
            found.add(entry["id"])
    for key in ("rotation", "dart_dir"):
        if isinstance(desc.get(key), dict):
            found.update(desc[key])
    return sorted(found)


def _rename(node, old, new):
    if isinstance(node, dict):
        return {(new if k == old else k): _rename(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_rename(v, old, new) for v in node]
    return new if node == old else node


def _relabel(rng, desc):
    """Rename one id everywhere; this reorders the interned numbering."""
    old = rng.choice(_ids(desc))
    new = rng.choice(["a", "m", "zz", "A0", old + "x", "0"])
    desc.update(_rename(desc, old, new))


def _kind(rng, desc):
    rng.choice(desc["vertices"])["kind"] = rng.choice(["source", "sink", "saddle"])


def _flip(rng, desc):
    d = rng.choice(sorted(desc["dart_dir"]))
    desc["dart_dir"][d] = "in" if desc["dart_dir"][d] == "out" else "out"


def _ring_swap(rng, desc):
    ring = desc["rotation"][rng.choice(sorted(desc["rotation"]))]
    i, j = rng.randrange(len(ring)), rng.randrange(len(ring))
    ring[i], ring[j] = ring[j], ring[i]


def _ring_reverse(rng, desc):
    desc["rotation"][rng.choice(sorted(desc["rotation"]))].reverse()


def _move_dart(rng, desc):
    rotation = desc["rotation"]
    ring = rotation[rng.choice(sorted(rotation))]
    d = ring.pop(rng.randrange(len(ring)))
    target = rotation.setdefault(rng.choice(_ids(desc)), [])
    target.insert(rng.randrange(len(target) + 1), d)


def _rewire(rng, desc):
    """Exchange the ends of two separatrices."""
    pairing = desc["pairing"]
    i, j = rng.randrange(len(pairing)), rng.randrange(len(pairing))
    a, b = pairing[i]
    c, d = pairing[j]
    pairing[i], pairing[j] = ([a, d], [c, b]) if rng.random() < 0.5 else ([a, c], [b, d])


def _drop_pair(rng, desc):
    del desc["pairing"][rng.randrange(len(desc["pairing"]))]


def _drop_vertex(rng, desc):
    entry = desc["vertices"].pop(rng.randrange(len(desc["vertices"])))
    if rng.random() < 0.5:
        desc["rotation"].pop(entry["id"], None)


def _add_vertex(rng, desc):
    vid = rng.choice(["E", "zz", "q9"])
    desc["vertices"].insert(rng.randrange(len(desc["vertices"]) + 1),
                            {"id": vid, "kind": rng.choice(["source", "sink", "saddle"])})
    if rng.random() < 0.5:
        desc.setdefault("rotation", {})[vid] = []


def _genus_hint(rng, desc):
    desc["genus_hint"] = rng.choice([0, 0, 1, 1, 2, -1, True, "1", 1.0])


def _special(rng, desc):
    desc["special_polar"] = not desc.get("special_polar", False)


def _union(rng, desc, bases):
    """Add a primed copy of another base: a second component."""
    other = _rename_all(copy.deepcopy(rng.choice(bases)))
    for key in ("vertices", "pairing"):
        desc[key] = desc.get(key, []) + other.get(key, [])
    for key in ("rotation", "dart_dir"):
        desc[key] = dict(desc.get(key, {})) | other.get(key, {})


def _rename_all(desc):
    for old in _ids(desc):
        desc = _rename(desc, old, old + "'")
    return desc


def _self_pair(rng, desc):
    pair = rng.choice(desc["pairing"])
    pair[1] = pair[0]


def _fuzz(rng, desc):
    """Replace, drop, duplicate or add one entry of any dict or list."""
    containers = []

    def walk(node, path):
        if isinstance(node, (dict, list)):
            containers.append(path)
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(child, path + (key,))

    walk(desc, ())
    node = desc
    for key in rng.choice(containers):
        node = node[key]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = rng.choice(["replace", "drop", "duplicate"]) if keys else "add"
    value = copy.deepcopy(rng.choice(_VALUES + _ids(desc)))
    if op == "replace":
        node[rng.choice(keys)] = value
    elif op == "drop":
        del node[rng.choice(keys)]
    elif isinstance(node, dict):
        new = rng.choice(_ids(desc) + ["zz"])
        node[new] = copy.deepcopy(node[rng.choice(keys)]) if op == "duplicate" else value
    else:
        node.append(copy.deepcopy(node[rng.choice(keys)]) if op == "duplicate" else value)


_MUTATIONS = [_relabel, _kind, _flip, _ring_swap, _ring_reverse, _move_dart, _rewire,
              _rewire, _drop_pair, _drop_vertex, _add_vertex, _genus_hint, _special,
              _union, _self_pair, _fuzz, _fuzz]


def bases() -> list:
    return [load_description(name) for name in FLOW_FIXTURES] + [
        rec.flow.to_description() for k in (0, 1, 2) for rec in enumerate_classes(k)]


def cases():
    """(digest, description) for each seeded mutation, in order."""
    rng = random.Random(SEED)
    pool = bases()
    for _ in range(CASES):
        desc = copy.deepcopy(rng.choice(pool))
        for _ in range(rng.randint(1, 3)):
            mutation = rng.choice(_MUTATIONS)
            try:
                mutation(rng, desc, pool) if mutation is _union else mutation(rng, desc)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                pass  # the mutation does not apply to what earlier ones left
        text = json.dumps(desc)
        yield hashlib.sha256(text.encode()).hexdigest()[:12], desc


def outcome(desc):
    try:
        flowgraph.build(desc)
    except flowgraph.FlowError as err:
        return [type(err).__name__, str(err)]
    return "ok"


def built_lines() -> list:
    """repr of each flow that a case builds, then of each fixture and its
    reverse."""
    lines = []
    for _, desc in cases():
        try:
            lines.append(repr(flowgraph.build(desc)))
        except flowgraph.FlowError:
            pass
    for name in FLOW_FIXTURES:
        flow = flowgraph.build(load_description(name))
        lines += [repr(flow), repr(flowgraph.reverse(flow))]
    return lines


def test_build_outcomes_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = [[digest, outcome(desc)] for digest, desc in cases()]
    assert len(got) == len(golden) == CASES
    for i, (case, want) in enumerate(zip(got, golden)):
        assert case[0] == want[0], f"case {i}: the mutated description changed"
        assert case[1] == want[1], f"case {i}"


def test_build_golden_covers_every_reachable_error():
    golden = json.loads(GOLDEN.read_text())
    seen = {out[0] for _, out in golden if out != "ok"}
    errors = {cls.__name__ for cls in vars(flowgraph).values()
              if isinstance(cls, type) and issubclass(cls, flowgraph.FlowError)
              and cls is not flowgraph.FlowError}
    assert seen == errors - {"NonOrientableOrCorrupt"}
    assert sum(1 for _, out in golden if out == "ok") >= 100


def test_built_flows_match_digest():
    lines = built_lines()
    assert len(lines) == 124
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BUILT_SHA256


if __name__ == "__main__":
    rows = [json.dumps([digest, outcome(desc)]) for digest, desc in cases()]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {len(rows)} outcomes to {GOLDEN}")
    lines = built_lines()
    built = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{len(lines)} built flows, BUILT_SHA256 = {built!r}")
