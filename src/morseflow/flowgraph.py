"""Embedded directed separatrix graphs of Morse flows on oriented surfaces.

A flow is stored as a combinatorial map: vertices are sources, sinks and
saddles, darts are separatrix ends, each vertex carries the counterclockwise
cyclic order of its darts, and a fixed-point-free involution pairs the two
ends of every separatrix.  A dart directed "out" leaves its vertex along the
flow.  Saddles have exactly four darts alternating out/in; source darts all
point out, sink darts all point in.  Every separatrix has at least one saddle
end (trajectories joining two extrema are not separatrices and are rejected).

build() first numbers the ids, vertices and darts in sorted-id order, and
then checks the integer arrays that the flow keeps: immutable per-dart tuples
(vertex, rotation successor, paired dart, direction).  In build() string ids
only look darts up and name them in error messages; elsewhere they appear
only in descriptions, facial walks and edge lists.

The unique saddle-free flow (one source, one sink, no separatrices) does not
induce a cell decomposition, so it is stored as a special token; its Euler
characteristic is 2 by convention.

Faces are traced once, in build(), by the standard orbit rule "paired dart,
then rotation successor"; the Euler characteristic, genus and face coherence
are derived from them and never taken on trust from the input.  Coherence is
counted during that trace, so each dart is visited once per flow.  build()
validates each dart in one pass; a failing ring is read a second time only
to name its first error.

reverse() computes the time-reversed flow on these arrays: the ids, dart
vertices, pairing and Euler characteristic are kept, kinds and directions
swap, rings reverse and the rotation successor is inverted, and the faces are
traced again.  A reversed valid flow is valid by construction, so it is not
validated again.
"""
from __future__ import annotations

from typing import NamedTuple

SOURCE = "source"
SINK = "sink"
SADDLE = "saddle"
OUT = "out"
IN = "in"

_KINDS = (SOURCE, SINK, SADDLE)


class FlowError(ValueError):
    """Base error for invalid flow descriptions."""


class MalformedFlow(FlowError):
    """Schema-level problem: missing keys, duplicate or unknown ids."""


class BadSpecialPolar(FlowError):
    """special_polar flows must be one source, one sink and no darts."""


class NonAlternatingSaddle(FlowError):
    """A saddle must have exactly 4 darts alternating out/in."""


class BadDartDirection(FlowError):
    """Source darts must be out, sink darts in."""


class BadPairing(FlowError):
    """Pairing must be a fixed-point-free out/in involution on all darts,
    and every pair must have a saddle end."""


class IsolatedExtremum(FlowError):
    """Sources and sinks need at least one dart unless special_polar."""


class Disconnected(FlowError):
    """The underlying separatrix graph must be connected."""


class GenusHintMismatch(FlowError):
    """genus_hint in the description disagrees with the derived genus."""


class NonOrientableOrCorrupt(FlowError):
    """Derived Euler characteristic is odd or exceeds 2."""


class FlowGraph(NamedTuple):
    """Validated immutable flow; construct through build().

    Vertices and darts are referred to by number; per-vertex tuples are
    indexed by vertex number and per-dart tuples by dart number.
    """

    special_polar: bool
    vertex_ids: tuple[str, ...]             # sorted
    kinds: tuple[str, ...]                  # per vertex
    rings: tuple[tuple[int, ...], ...]      # per vertex: darts counterclockwise, as listed
    dart_ids: tuple[str, ...]               # sorted
    dart_vertex: tuple[int, ...]            # per dart
    succ: tuple[int, ...]                   # per dart: next dart counterclockwise
    pair: tuple[int, ...]                   # per dart: other end, an involution
    dart_dir: tuple[str, ...]               # per dart: "out" | "in"
    face_walks: tuple[tuple[int, ...], ...] # each from its least dart; sorted
    chi: int
    coherent: bool

    def counts(self) -> tuple[int, int, int]:
        """(sources, sinks, saddles)"""
        p = self.kinds.count(SOURCE)
        q = self.kinds.count(SINK)
        return p, q, len(self.kinds) - p - q

    def num_edges(self) -> int:
        return len(self.pair) // 2

    def edges(self) -> list[tuple[str, str]]:
        """Separatrices as (tail vertex, head vertex), one per dart pair."""
        ids, at = self.vertex_ids, self.dart_vertex
        return sorted((ids[at[d]], ids[at[e]])
                      for d, e in enumerate(self.pair) if self.dart_dir[d] == OUT)

    def to_description(self) -> dict:
        ids = self.dart_ids
        return {
            "special_polar": self.special_polar,
            "vertices": [{"id": v, "kind": k} for v, k in zip(self.vertex_ids, self.kinds)],
            "rotation": {v: [ids[d] for d in ring]
                         for v, ring in zip(self.vertex_ids, self.rings) if ring},
            "dart_dir": dict(zip(ids, self.dart_dir)),
            "pairing": [[ids[d], ids[e]] for d, e in enumerate(self.pair) if d < e],
        }


def build(description: dict) -> FlowGraph:
    """Validate a flow description (the JSON object format) and freeze it.

    Raises a FlowError subclass naming the offending vertex or dart on the
    first violated invariant.
    """
    if not isinstance(description, dict):
        raise MalformedFlow("flow description must be an object")
    unknown = set(description) - {
        "special_polar", "vertices", "rotation", "dart_dir", "pairing", "genus_hint",
    }
    if unknown:
        raise MalformedFlow(f"unknown keys in flow description: {sorted(unknown)}")

    special = description.get("special_polar", False)
    if not isinstance(special, bool):
        raise MalformedFlow(f'"special_polar" must be true or false, got {special!r}')
    vertices = description.get("vertices")
    if not isinstance(vertices, list):
        raise MalformedFlow('"vertices" must be a list')
    kinds: dict = {}
    for entry in vertices:
        if not isinstance(entry, dict) or "id" not in entry or "kind" not in entry:
            raise MalformedFlow(f"bad vertex entry {entry!r}")
        vid, kind = entry["id"], entry["kind"]
        if not isinstance(vid, str):
            raise MalformedFlow(f"vertex id must be a string, got {vid!r}")
        if kind not in _KINDS:
            raise MalformedFlow(f"vertex {vid}: unknown kind {kind!r}")
        if vid in kinds:
            raise MalformedFlow(f"duplicate vertex id {vid}")
        kinds[vid] = kind

    rotation_in = description.get("rotation", {})
    dart_dir_in = description.get("dart_dir", {})
    pairing_in = description.get("pairing", [])

    # Tuples are made from lists, not generators: CPython grows a tuple made
    # from a generator in place, so it never reuses the per-size tuple free
    # list that it is returned to, and that list would only fill.
    vertex_ids = tuple(sorted(kinds))
    kind_of = tuple([kinds[v] for v in vertex_ids])
    if special:
        if sorted(kinds.values()) != [SINK, SOURCE]:
            raise BadSpecialPolar("special_polar needs exactly one source and one sink")
        if rotation_in or dart_dir_in or pairing_in:
            raise BadSpecialPolar("special_polar flows carry no darts")
        flow = FlowGraph(True, vertex_ids, kind_of, ((), ()), (), (), (), (), (), ((), ()), 2, True)
        _check_genus_hint(description, flow)
        return flow

    if not isinstance(rotation_in, dict) or not isinstance(dart_dir_in, dict):
        raise MalformedFlow('"rotation" and "dart_dir" must be objects')
    for d, direction in dart_dir_in.items():
        if not isinstance(d, str) or direction not in (OUT, IN):
            raise MalformedFlow(f"bad dart_dir entry {d!r}: {direction!r}")

    # Number the ids, then check the arrays the flow keeps; -1 marks a dart
    # not yet attached to a vertex or not yet paired.
    vertex_num = dict(zip(vertex_ids, range(len(vertex_ids))))
    dart_ids = tuple(sorted(dart_dir_in))
    dart_num = dict(zip(dart_ids, range(len(dart_ids))))
    directions = tuple([dart_dir_in[d] for d in dart_ids])
    dart_vertex = [-1] * len(dart_ids)
    rings = [()] * len(vertex_ids)

    # One pass per ring; a failing dart re-reads the ring only to name the
    # first error in the order of the checks: dart types, then each dart.
    for vid, ring in rotation_in.items():
        v = vertex_num.get(vid)
        if v is None:
            raise MalformedFlow(f"rotation lists unknown vertex {vid}")
        if not isinstance(ring, list):
            raise MalformedFlow(f"rotation of {vid} must be a list of dart ids")
        darts = []
        for x in ring:
            d = dart_num.get(x, -1) if isinstance(x, str) else -1
            if d < 0 or dart_vertex[d] >= 0:
                if not all(isinstance(y, str) for y in ring):
                    raise MalformedFlow(f"rotation of {vid} must be a list of dart ids")
                if d < 0:
                    raise MalformedFlow(f"vertex {vid}: dart {x} missing from dart_dir")
                raise MalformedFlow(f"dart {x} appears at two vertices")
            dart_vertex[d] = v
            darts.append(d)
        rings[v] = tuple(darts)
    if -1 in dart_vertex:
        loose = [x for x, v in zip(dart_ids, dart_vertex) if v < 0]
        raise MalformedFlow(f"darts not attached to any vertex: {loose}")

    succ = [0] * len(dart_ids)
    for vid, kind in kinds.items():
        ring = rings[vertex_num[vid]]
        if kind == SADDLE:
            if len(ring) != 4:
                raise NonAlternatingSaddle(f"saddle {vid} has {len(ring)} darts, needs 4")
            first = directions[ring[0]]  # alternating: first, other, first, other
            if (directions[ring[1]] == first or directions[ring[2]] != first
                    or directions[ring[3]] == first):
                raise NonAlternatingSaddle(f"saddle {vid}: darts do not alternate out/in")
        else:
            if not ring:
                raise IsolatedExtremum(f"{kind} {vid} has no darts")
            want = OUT if kind == SOURCE else IN
            for d in ring:
                if directions[d] != want:
                    raise BadDartDirection(f"{kind} {vid}: dart {dart_ids[d]} must be {want}")
        prev = ring[-1]
        for d in ring:
            succ[prev] = d
            prev = d

    if not isinstance(pairing_in, list):
        raise MalformedFlow('"pairing" must be a list of dart pairs')
    pair = [-1] * len(dart_ids)
    for entry in pairing_in:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise MalformedFlow(f"bad pairing entry {entry!r}")
        a, b = entry
        if not isinstance(a, str) or not isinstance(b, str):
            raise MalformedFlow(f"bad pairing entry {entry!r}")
        d, e = dart_num.get(a, -1), dart_num.get(b, -1)
        if d < 0 or e < 0:
            raise BadPairing(f"pairing references unknown dart in {entry!r}")
        if d == e:
            raise BadPairing(f"dart {a} paired with itself")
        if pair[d] >= 0 or pair[e] >= 0:
            raise BadPairing(f"dart appears in two pairs: {entry!r}")
        if directions[d] == directions[e]:
            raise BadPairing(f"pair ({a}, {b}) must join an out dart to an in dart")
        if kind_of[dart_vertex[d]] != SADDLE and kind_of[dart_vertex[e]] != SADDLE:
            raise BadPairing(f"pair ({a}, {b}) joins two extrema; separatrices end at saddles")
        pair[d] = e
        pair[e] = d
    if -1 in pair:
        raise BadPairing(f"unpaired darts: {[x for x, e in zip(dart_ids, pair) if e < 0]}")

    pair = tuple(pair)
    _check_connected(vertex_ids, rings, dart_vertex, pair, next(iter(kinds), None))
    walks, coherent = _face_walks(succ, pair, directions)
    chi = len(vertex_ids) - len(pair) // 2 + len(walks)
    if chi % 2 != 0 or chi > 2:
        raise NonOrientableOrCorrupt(f"derived Euler characteristic {chi}")
    flow = FlowGraph(False, vertex_ids, kind_of, tuple(rings), dart_ids, tuple(dart_vertex),
                     tuple(succ), pair, directions, walks, chi, coherent)
    _check_genus_hint(description, flow)
    return flow


def _check_connected(vertex_ids, rings, dart_vertex, pair, first):
    """Walk from the first vertex the description lists (None if none) along
    each ring dart to the vertex of its paired dart."""
    if first is None:
        raise MalformedFlow("flow has no vertices")
    start = vertex_ids.index(first)
    seen = [False] * len(vertex_ids)
    seen[start] = True
    stack = [start]
    while stack:
        for d in rings[stack.pop()]:
            w = dart_vertex[pair[d]]
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        missing = [v for v, hit in zip(vertex_ids, seen) if not hit]
        raise Disconnected(f"vertices unreachable from {first}: {missing}")


def _face_walks(succ, pair, directions) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Orbits of dart -> rotation successor of the paired dart, each starting
    at its least dart, in increasing order of that dart; and whether every
    orbit's cyclic sequence of directions changes exactly twice, counted
    during the trace."""
    seen = [False] * len(succ)
    walks = []
    coherent = True
    for start in range(len(succ)):
        if seen[start]:
            continue
        walk = []
        first = prev = directions[start]
        changes = 0
        d = start
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            if directions[d] != prev:
                prev = directions[d]
                changes += 1
            d = succ[pair[d]]
        if changes + (prev != first) != 2:
            coherent = False
        walks.append(tuple(walk))
    return tuple(walks), coherent


def _check_genus_hint(description, flow):
    hint = description.get("genus_hint")
    if hint is None:
        return
    if isinstance(hint, bool) or not isinstance(hint, int):
        raise MalformedFlow(f"genus_hint must be an integer, got {hint!r}")
    derived = genus(flow)
    if hint != derived:
        raise GenusHintMismatch(f"genus_hint {hint} but derived genus is {derived}")


def faces(flow: FlowGraph) -> list[tuple[str, ...]]:
    """Facial walks of the combinatorial map: orbits of dart -> rotation
    successor of the paired dart.

    Each dart appears in exactly one walk; walks start at their least dart
    and are sorted.  The saddle-free flow has no darts and returns two empty
    walks, the two hemispheres.
    """
    ids = flow.dart_ids
    return [tuple([ids[d] for d in walk]) for walk in flow.face_walks]  # lists: see build


def euler_characteristic(flow: FlowGraph) -> int:
    """V - E + F from face tracing; 2 by convention for the saddle-free flow."""
    return flow.chi


def genus(flow: FlowGraph) -> int:
    return (2 - flow.chi) // 2


def poincare_hopf_check(flow: FlowGraph) -> bool:
    """True iff sources + sinks - saddles equals the derived Euler characteristic."""
    p, q, z = flow.counts()
    return p + q - z == flow.chi


def face_coherence_check(flow: FlowGraph) -> bool:
    """True iff every facial walk crosses the flow direction exactly twice.

    Along a walk, a dart traverses its separatrix with the flow when the dart
    points out and against it otherwise.  A cell of a genuine flow is swept
    from one inflow corner chain to one outflow chain, so the cyclic sign
    sequence of a face must have exactly two maximal runs.  A face bounded by
    a directed separatrix cycle has constant signs and fails.  The
    saddle-free flow is coherent.
    """
    return flow.coherent


def reverse(flow: FlowGraph) -> FlowGraph:
    """Time reversal: sources and sinks swap, darts flip, rotations reverse.

    An involution preserving genus, faces and face coherence.  It is computed
    on the arrays of a flow that is valid by construction, so nothing is
    validated again: the ids, dart vertices, pairing and Euler characteristic
    are kept, each ring is reversed and the rotation successor inverted, and
    only the faces and their coherence are traced again.
    """
    swap = {SOURCE: SINK, SINK: SOURCE, SADDLE: SADDLE}
    directions = tuple([IN if x == OUT else OUT for x in flow.dart_dir])
    succ = [0] * len(flow.succ)
    for d, e in enumerate(flow.succ):
        succ[e] = d
    if flow.special_polar:
        walks, coherent = flow.face_walks, flow.coherent
    else:
        walks, coherent = _face_walks(succ, flow.pair, directions)
    return FlowGraph(flow.special_polar, flow.vertex_ids, tuple([swap[k] for k in flow.kinds]),
                     tuple([ring[::-1] for ring in flow.rings]), flow.dart_ids,
                     flow.dart_vertex, tuple(succ), flow.pair, directions, walks,
                     flow.chi, coherent)
