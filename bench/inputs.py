"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed: the same seed yields the same
descriptions, profiles and call schedules.  morseflow only ever receives the
generated inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from morseflow import enumeration, flowgraph
from morseflow.gradcheck import saddle_digraph

# ---------------------------------------------------------------------------
# relabeling


def relabel_description(desc: dict, rng: random.Random) -> dict:
    """Same flow under fresh ids: rings rotated to a random start, vertex,
    rotation, dart and pairing lists shuffled, pair ends in random order."""
    vertices = [v["id"] for v in desc["vertices"]]
    darts = list(desc.get("dart_dir", {}))
    vnew = dict(zip(vertices, (f"v{n}" for n in rng.sample(range(4 * len(vertices)), len(vertices)))))
    dnew = dict(zip(darts, (f"d{n}" for n in rng.sample(range(4 * len(darts) + 1), len(darts)))))

    out_vertices = [{"id": vnew[v["id"]], "kind": v["kind"]} for v in desc["vertices"]]
    rng.shuffle(out_vertices)
    rings = []
    for v, ring in desc.get("rotation", {}).items():
        r = rng.randrange(len(ring)) if ring else 0
        rings.append((vnew[v], [dnew[d] for d in ring[r:] + ring[:r]]))
    rng.shuffle(rings)
    dirs = [(dnew[d], x) for d, x in desc.get("dart_dir", {}).items()]
    rng.shuffle(dirs)
    pairs = [[dnew[a], dnew[b]] for a, b in desc.get("pairing", [])]
    for pair in pairs:
        rng.shuffle(pair)
    rng.shuffle(pairs)
    return {
        "special_polar": desc.get("special_polar", False),
        "vertices": out_vertices,
        "rotation": dict(rings),
        "dart_dir": dict(dirs),
        "pairing": pairs,
    }


# ---------------------------------------------------------------------------
# corpus: the k <= 3 class representatives plus random ADE profiles

# Labels by topological class, written out here so the expected dimension
# report of a generated profile is known without asking morseflow.
_LABELS = {
    "min": ["A1:+,+", "A3:+,+", "A5:+,+"],
    "max": ["A1:+,-", "A3:+,-", "A5:+,-"],
    "saddle": ["A1:-", "A3:-,+", "D5:+", "E7:-"],
    "quasi": ["A2:+", "D4:+", "E6:+", "E8:-"],
    "multi": ["D4:-", "D6:-"],
}
_MORSE = {"A1:+,+", "A1:+,-", "A1:-"}
_DEGENERATE_EXTREMA = {"A3:+,+", "A5:+,+", "A3:+,-", "A5:+,-"}


@dataclass(frozen=True)
class ClassInput:
    index: int
    description: dict
    code: tuple
    genus: int
    counts: tuple
    gradient_like: bool

    def __repr__(self):
        return f"class #{self.index}"


@dataclass(frozen=True)
class ProfileInput:
    profile: dict           # FunctionProfile JSON
    expected: dict          # construction-known fields of the dimension report


def corpus_classes() -> list[ClassInput]:
    """Descriptions of every class representative with k <= 3 saddles."""
    out = []
    for k in range(enumeration.MAX_SADDLES + 1):
        for rec in enumeration.enumerate_classes(k):
            out.append(ClassInput(
                len(out), rec.flow.to_description(), rec.code.code, rec.genus,
                (rec.sources, rec.sinks, k), rec.gradient_like,
            ))
    return out


def random_profile(rng: random.Random) -> ProfileInput:
    """A consistent ADE profile: index sum equals the Euler characteristic."""
    genus = rng.randrange(3)
    n = {
        "min": rng.randint(1, 3),
        "max": rng.randint(1, 3),
        "quasi": rng.randint(0, 2),
        "multi": rng.randint(0, 1),
    }
    n["saddle"] = n["min"] + n["max"] - 2 * n["multi"] - (2 - 2 * genus)
    if n["saddle"] < 0:
        n["min"] -= n["saddle"]
        n["saddle"] = 0
    labels = [rng.choice(_LABELS[cls]) for cls, count in n.items() for _ in range(count)]
    rng.shuffle(labels)
    chi = 2 - 2 * genus
    marked = max(0, chi + 1)
    degenerate_extrema = sum(1 for t in labels if t in _DEGENERATE_EXTREMA)
    morse = all(t in _MORSE for t in labels)
    classifying = (2 * marked + len(labels) + degenerate_extrema + n["quasi"]
                   + 2 * n["saddle"] + 3 * n["multi"])
    if chi < 0:
        homotopy = "point"
    elif chi == 0:
        homotopy = "T2"
    else:
        homotopy = "SO3/G" if n["saddle"] else "S2"
    expected = {
        "marked_points": marked,
        "classifying_dim": classifying,
        "normalized_classifying_dim": classifying - n["min"] - n["max"] - 1,
        "orbit_space_dim": 2 * n["saddle"] if morse else None,
        "orbit_fibration_dim": n["saddle"] + 2 * marked - 1,
        "config_space_dim": 2 * marked,
        "homotopy_type": homotopy,
        "violations": [],
    }
    return ProfileInput({"genus": genus, "labels": labels}, expected)


# One op in PROFILE_EVERY is a profile through dims.report.
PROFILE_EVERY = 20


def corpus_ops(classes: list[ClassInput], rng: random.Random):
    """Endless op stream: passes over every class in a fresh shuffled order,
    each description freshly relabeled, with a profile op mixed in about
    once in PROFILE_EVERY ops.  Yields ("flow", ClassInput, description) or
    ("profile", ProfileInput, None)."""
    while True:
        for c in rng.sample(classes, len(classes)):
            if rng.randrange(PROFILE_EVERY) == 0:
                yield ("profile", random_profile(rng), None)
            yield ("flow", c, relabel_description(c.description, rng))


def corpus_pass(classes: list[ClassInput], rng: random.Random) -> list:
    """One traced pass: every class once, plus a fixed number of profiles."""
    ops = [("flow", c, relabel_description(c.description, rng)) for c in classes]
    ops += [("profile", random_profile(rng), None) for _ in range(len(classes) // PROFILE_EVERY)]
    return ops


# ---------------------------------------------------------------------------
# large: flows grown by local saddle insertion


class GrownFlow:
    """A mutable flow grown from a base by splitting separatrices.

    split(a) cuts the separatrix leaving saddle out-dart a at a new saddle X,
    sends X's other out-dart to a new one-dart sink and feeds X's other
    in-dart from a new dart at the source whose corner lies on the face
    that a traverses.  The face containing a splits in two, so the genus and
    face coherence are unchanged; a saddle-to-saddle separatrix becomes a
    path of two.  Separatrices may carry a tag (a path name) that both
    halves inherit, which keeps cycle lengths known by construction.
    """

    def __init__(self, desc: dict, tags: dict | None = None):
        self.kinds = {v["id"]: v["kind"] for v in desc["vertices"]}
        self.rings = {v: list(ring) for v, ring in desc["rotation"].items()}
        self.dart_dir = dict(desc["dart_dir"])
        self.partner = {}
        for a, b in desc["pairing"]:
            self.partner[a] = b
            self.partner[b] = a
        self.owner = {d: v for v, ring in self.rings.items() for d in ring}
        self.tags = dict(tags or {})       # out-dart -> path name
        self.splits = 0

    def description(self) -> dict:
        return {
            "special_polar": False,
            "vertices": [{"id": v, "kind": k} for v, k in self.kinds.items()],
            "rotation": {v: list(ring) for v, ring in self.rings.items()},
            "dart_dir": dict(self.dart_dir),
            "pairing": [[d, e] for d, e in self.partner.items() if d < e],
        }

    def saddle_out_darts(self) -> list[str]:
        return [d for v, ring in self.rings.items() if self.kinds[v] == flowgraph.SADDLE
                for d in ring if self.dart_dir[d] == flowgraph.OUT]

    def _rot_next(self, d: str) -> str:
        ring = self.rings[self.owner[d]]
        return ring[(ring.index(d) + 1) % len(ring)]

    def split(self, a: str) -> None:
        b = self.partner[a]
        # walk the face that a traverses to its source corner
        d = a
        while True:
            e = self.partner[d]
            if self.kinds[self.owner[e]] == flowgraph.SOURCE:
                break
            d = self._rot_next(e)
            if d == a:
                raise ValueError(f"face of {a} has no source corner")
        source = self.owner[e]

        n = self.splits
        self.splits += 1
        x, k, s = f"x{n}", f"k{n}", f"s{n}"
        x0, x1, x2, x3, k0 = f"{x}.0", f"{x}.1", f"{x}.2", f"{x}.3", f"{k}.0"
        self.kinds[x] = flowgraph.SADDLE
        self.kinds[k] = flowgraph.SINK
        self.rings[x] = [x0, x1, x2, x3]
        self.rings[k] = [k0]
        ring = self.rings[source]
        ring.insert(ring.index(e) + 1, s)
        for dart, vertex, direction in ((x0, x, "out"), (x1, x, "in"), (x2, x, "out"),
                                        (x3, x, "in"), (k0, k, "in"), (s, source, "out")):
            self.owner[dart] = vertex
            self.dart_dir[dart] = direction
        for p, q in ((a, x1), (x0, b), (x2, k0), (x3, s)):
            self.partner[p] = q
            self.partner[q] = p
        tag = self.tags.get(a)
        if tag is not None and self.kinds[self.owner[b]] == flowgraph.SADDLE:
            self.tags[x0] = tag


@dataclass(frozen=True)
class LargeInput:
    name: str
    description: dict
    darts: int
    genus: int
    gradient_like: bool
    cycle_len: int | None      # length of the least saddle cycle

    def __repr__(self):
        return f"large flow {self.name}"


# Saddle counts at which each growth line is snapshotted.  Fixed so that every
# seed gets the same size mix and only the shapes vary.
LARGE_SIZES = (34, 50, 66)
# Share of splits that target the line's tagged path(s).
_TARGETED = 0.7


def _branching_base() -> tuple[dict, dict]:
    """The genus-1 two-saddle class whose saddle digraph has a double edge
    z0 => z1 and a return edge z1 -> z0: two saddle cycles share z1 -> z0."""
    for rec in enumeration.enumerate_classes(2):
        edges = saddle_digraph(rec.flow).edges
        if not rec.gradient_like and edges == (("z0", "z1"), ("z0", "z1"), ("z1", "z0")):
            desc = rec.flow.to_description()
            break
    else:
        raise RuntimeError("branching base class not found among k = 2 classes")
    tags = _cycle_tags(desc)
    # the two parallel separatrices z0 -> z1 are the branches A and B
    for name, d in zip("AB", sorted(d for d in tags if d.startswith("z0"))):
        tags[d] = name
    return desc, tags


def _cycle_tags(desc: dict) -> dict:
    """Tag every saddle-to-saddle separatrix of a one-cycle base with "C"."""
    kind = {v["id"]: v["kind"] for v in desc["vertices"]}
    owner = {d: v for v, ring in desc["rotation"].items() for d in ring}
    tags = {}
    for p, q in desc["pairing"]:
        a, b = (p, q) if desc["dart_dir"][p] == "out" else (q, p)
        if kind[owner[a]] == "saddle" and kind[owner[b]] == "saddle":
            tags[a] = "C"
    return tags


def _cycle_len(line: str, flow: GrownFlow) -> int | None:
    counts = {}
    for tag in flow.tags.values():
        counts[tag] = counts.get(tag, 0) + 1
    if line == "cycle":
        return counts["C"]
    if line == "branch":
        return min(counts["A"], counts["B"]) + counts["C"]
    return None


def large_inputs(fixtures: dict, rng: random.Random) -> list[LargeInput]:
    """Grow each line to the largest LARGE_SIZES saddle count, snapshotting at
    every size.  Lines: chain2 (deep saddle-connection chains), torus
    (gradient-like, genus 1), cyclic (splits on its saddle cycle) and the
    branching two-cycle class.  Every step is kept only if build passes,
    the flow is face-coherent and the genus is unchanged."""
    lines = [
        ("chain", fixtures["chain2"], {}, True),
        ("torus", fixtures["torus"], {}, True),
        ("cycle", fixtures["cyclic"], _cycle_tags(fixtures["cyclic"]), False),
    ]
    base, tags = _branching_base()
    lines.append(("branch", base, tags, False))

    out = []
    for name, desc, tags, gradient_like in lines:
        flow = GrownFlow(desc, tags)
        genus = flowgraph.genus(flowgraph.build(desc))
        saddles = sum(1 for k in flow.kinds.values() if k == flowgraph.SADDLE)
        for size in LARGE_SIZES:
            while saddles < size:
                outs = flow.saddle_out_darts()
                if name == "chain":
                    # deep chains: split separatrices that end at a saddle
                    targets = [d for d in outs
                               if flow.kinds[flow.owner[flow.partner[d]]] == flowgraph.SADDLE]
                else:
                    targets = sorted(flow.tags)
                if not targets or rng.random() >= _TARGETED:
                    targets = outs
                flow.split(rng.choice(sorted(targets)))
                saddles += 1
                _check_step(flow.description(), genus)
            snap = flow.description()
            out.append(LargeInput(f"{name}{size}", snap, len(snap["dart_dir"]), genus,
                                  gradient_like, _cycle_len(name, flow)))
    return out


def _check_step(desc: dict, genus: int) -> None:
    built = flowgraph.build(desc)
    if not flowgraph.face_coherence_check(built) or flowgraph.genus(built) != genus:
        raise RuntimeError("saddle insertion broke face coherence or changed the genus")


def large_pass(items: list[LargeInput], rng: random.Random) -> list:
    """One pass over the large set, freshly relabeled; ordered in rounds of
    one flow per size so that a cut-off pass keeps the size mix."""
    by_size = [[x for x in items if x.name.endswith(str(size))] for size in LARGE_SIZES]
    for group in by_size:
        rng.shuffle(group)
    ops = []
    for round_ in zip(*by_size):
        for item in round_:
            ops.append(("flow", item, relabel_description(item.description, rng)))
    return ops


# ---------------------------------------------------------------------------
# cli: one call per fixture and command

FLOW_FIXTURES = ("polar", "sphere1", "torus", "chain2", "cyclic", "homoclinic", "cycleface")
PROFILE_FIXTURES = ("genus2_morse", "genus1_morse", "genus0_polar", "genus0_degenerate")
FLOW_COMMANDS = (
    ("validate",), ("check",), ("check", "--report", "json"), ("energy",),
    ("canon",), ("canon", "--mirror"), ("export-dot",),
)


def cli_cases() -> list[tuple[str, ...]]:
    """argv (without the interpreter) of every cli call, fixture paths
    relative to the repository root."""
    cases = []
    for name in FLOW_FIXTURES:
        path = f"tests/fixtures/{name}.json"
        for cmd in FLOW_COMMANDS:
            cases.append((cmd[0], path) + cmd[1:])
    for name in PROFILE_FIXTURES:
        cases.append(("dims", f"tests/fixtures/{name}.json"))
    return cases


def cli_pass(rng: random.Random) -> list:
    return rng.sample(cli_cases(), len(cli_cases()))
