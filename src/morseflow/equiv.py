"""Canonical codes deciding equivalence of embedded directed separatrix graphs.

Two flows are equivalent when some bijection of vertices and darts preserves
kinds, dart directions, rotations and the pairing; this is equivalence under
all orientation-preserving relabelings of the surface.  The code of a flow is
the lexicographically least traversal record over every starting dart, so
code equality decides equivalence.  Quotienting by reflections (reversed
rotations) is opt-in.
"""
from __future__ import annotations

from typing import NamedTuple

from .flowgraph import OUT, SADDLE, SINK, SOURCE, FlowGraph, MalformedFlow, build

_KIND_CODE = {SOURCE: 0, SINK: 1, SADDLE: 2}

# The saddle-free flow has no darts; its code is the constant (0,).
_POLAR_CODE = (0,)


class CanonicalCode(NamedTuple):
    """Relabeling-invariant integer sequence; lexicographic total order."""

    code: tuple[int, ...]
    mirror_included: bool

    def as_string(self) -> str:
        return "-".join(str(n) for n in self.code)

    def stable_hash(self) -> str:
        """64-bit digest of the code string, stable across runs and machines."""
        import hashlib

        return hashlib.blake2b(self.as_string().encode(), digest_size=8).hexdigest()

    def __lt__(self, other: "CanonicalCode") -> bool:
        return self.code < other.code


def _traversal_code(start: int, succ, pair, labels) -> tuple[int, ...]:
    """Breadth-first dart discovery from start via rotation-successor and
    pairing moves; emits (kind, direction, successor index, partner index)
    per dart in discovery order.  A dart's index is fixed when it is first
    seen, so each entry is emitted in the pass that discovers its
    neighbours."""
    pos = [-1] * len(succ)
    pos[start] = 0
    order = [start]
    out = []
    for d in order:
        out += labels[d]
        s = succ[d]
        if pos[s] < 0:
            pos[s] = len(order)
            order.append(s)
        out.append(pos[s])
        p = pair[d]
        if pos[p] < 0:
            pos[p] = len(order)
            order.append(p)
        out.append(pos[p])
    return tuple(out)


def canonical_code(flow: FlowGraph, include_mirror: bool = False) -> CanonicalCode:
    """Least traversal code over all starting darts (and over the mirrored
    rotation system, the inverse of succ, when include_mirror)."""
    if flow.special_polar:
        return CanonicalCode(_POLAR_CODE, include_mirror)
    n = len(flow.succ)
    labels = [(_KIND_CODE[flow.kinds[v]], 0 if x == OUT else 1)
              for v, x in zip(flow.dart_vertex, flow.dart_dir)]
    rotations = [flow.succ]
    if include_mirror:
        pred = [0] * n
        for d, e in enumerate(flow.succ):
            pred[e] = d
        rotations.append(pred)
    best = min(_traversal_code(start, succ, flow.pair, labels)
               for succ in rotations for start in range(n))
    if len(best) != 4 * n:
        raise AssertionError
    return CanonicalCode((n,) + best, include_mirror)


def equivalent(f1: FlowGraph, f2: FlowGraph, include_mirror: bool = False) -> bool:
    return canonical_code(f1, include_mirror).code == canonical_code(f2, include_mirror).code


def relabel(flow: FlowGraph, vertex_map: dict, dart_map: dict) -> FlowGraph:
    """Rename vertex and dart ids through total bijections; the structure is
    unchanged, so the result is always equivalent to the input.  A map that is
    not a dict taking the flow's ids to distinct ids raises ValueError, and
    an image that is not a string raises MalformedFlow (a FlowError)."""
    _check_bijection(vertex_map, flow.vertex_ids, "vertex")
    _check_bijection(dart_map, flow.dart_ids, "dart")
    desc = flow.to_description()
    desc["vertices"] = [{"id": vertex_map[e["id"]], "kind": e["kind"]} for e in desc["vertices"]]
    desc["rotation"] = {vertex_map[v]: [dart_map[d] for d in ring]
                        for v, ring in desc["rotation"].items()}
    desc["dart_dir"] = {dart_map[d]: x for d, x in desc["dart_dir"].items()}
    desc["pairing"] = sorted(sorted((dart_map[a], dart_map[b])) for a, b in desc["pairing"])
    return build(desc)


def _check_bijection(mapping: dict, domain: tuple, what: str) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{what} map must be a dict, got {type(mapping).__name__}")
    missing = sorted(set(domain) - set(mapping))
    if missing:
        raise ValueError(f"{what} map misses ids {missing}")
    images = [mapping[x] for x in domain]
    if not all(isinstance(image, str) for image in images):
        raise MalformedFlow(f"{what} map images must be string ids")
    if len(set(images)) != len(images):
        raise ValueError(f"{what} map is not injective on the flow's ids")
