"""Gradient-likeness of a Morse flow and construction of an energy witness.

A flow is gradient-like iff it has a source and a sink, every separatrix has
two endpoints (structural in this data model), and no directed cycle of
separatrices runs through saddles only.  When the check passes, an energy
assignment is built: sources get +1, sinks -1, and saddles get values in
(-1, 1) summing to zero that strictly decrease along every saddle-to-saddle
separatrix.  Saddle values come from longest-path ranks in the saddle
digraph, which makes the assignment canonical for a given flow.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flowgraph import (
    SADDLE,
    SINK,
    SOURCE,
    FlowGraph,
    face_coherence_check,
)


class NotRealizable(ValueError):
    """Flow fails face coherence: not the cell structure of a Morse flow."""


class NotGradientLike(Exception):
    """Raised by build_energy on verdict-false flows; carries the report."""

    def __init__(self, report: "CheckReport"):
        super().__init__("flow is not gradient-like")
        self.report = report


class InconsistentCounts(ValueError):
    """(sources, sinks, saddles) fit no closed orientable surface."""


@dataclass(frozen=True)
class SaddleDigraph:
    """Saddle-to-saddle separatrices as a directed multigraph (self-loops
    record homoclinic separatrices)."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def successors(self) -> dict:
        adj = {v: set() for v in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
        return adj


@dataclass(frozen=True)
class CheckReport:
    cond_sources_sinks: bool
    cond_separatrix_endpoints: bool
    cond_no_directed_cycle: bool
    witness_cycle: tuple[str, ...] | None

    @property
    def verdict(self) -> bool:
        return (
            self.cond_sources_sinks
            and self.cond_separatrix_endpoints
            and self.cond_no_directed_cycle
        )

    def to_json(self) -> dict:
        return {
            "cond_sources_sinks": self.cond_sources_sinks,
            "cond_separatrix_endpoints": self.cond_separatrix_endpoints,
            "cond_no_directed_cycle": self.cond_no_directed_cycle,
            "witness_cycle": list(self.witness_cycle) if self.witness_cycle else None,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class EnergyAssignment:
    """Vertex id -> exact rational critical value."""

    values: dict

    def to_json(self) -> dict:
        return {
            v: f"{x.numerator}/{x.denominator}" for v, x in sorted(self.values.items())
        }


def saddle_digraph(flow: FlowGraph) -> SaddleDigraph:
    """Directed edge per separatrix whose both ends are saddles."""
    nodes = tuple(v for v, kind in zip(flow.vertex_ids, flow.kinds) if kind == SADDLE)
    saddles = set(nodes)
    edges = tuple((a, b) for a, b in flow.edges() if a in saddles and b in saddles)
    return SaddleDigraph(nodes, edges)


def _shortest_cycle(digraph: SaddleDigraph) -> tuple[str, ...] | None:
    """Least directed cycle: shortest, then lexicographically least node
    sequence among rotations starting at the least node.  Self-loops count
    as cycles of length 1."""
    adj = digraph.successors()
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


def check_gradient_like(flow: FlowGraph) -> CheckReport:
    """Decide gradient-likeness; requires a face-coherent flow.

    Separatrix endpoints are two by construction here (every stored
    separatrix is a dart pair), so that condition is reported as true.
    """
    if not face_coherence_check(flow):
        raise NotRealizable("flow fails face coherence; not a Morse-flow cell structure")
    p, q, _ = flow.counts()
    witness = _shortest_cycle(saddle_digraph(flow))
    return CheckReport(
        cond_sources_sinks=p >= 1 and q >= 1,
        cond_separatrix_endpoints=True,
        cond_no_directed_cycle=witness is None,
        witness_cycle=witness,
    )


def build_energy(flow: FlowGraph) -> EnergyAssignment:
    """Energy witness for a gradient-like flow.

    Saddle values: rank(z) is the longest directed path in the saddle
    digraph ending at z; raw values -rank are centered to sum zero and
    scaled by 1/(max|centered| + 1), which keeps them strictly inside
    (-1, 1) and strictly decreasing along saddle connections.

    Raises NotRealizable on incoherent flows and NotGradientLike (carrying
    the CheckReport) on verdict-false flows.
    """
    report = check_gradient_like(flow)
    if not report.verdict:
        raise NotGradientLike(report)

    digraph = saddle_digraph(flow)
    ranks = _longest_path_ranks(digraph)

    values = {}
    for v, kind in zip(flow.vertex_ids, flow.kinds):
        if kind == SOURCE:
            values[v] = Fraction(1)
        elif kind == SINK:
            values[v] = Fraction(-1)
    if digraph.nodes:
        raw = {z: Fraction(-ranks[z]) for z in digraph.nodes}
        mean = sum(raw.values(), Fraction(0)) / len(raw)
        centered = {z: x - mean for z, x in raw.items()}
        peak = max(abs(x) for x in centered.values())
        for z, x in centered.items():
            values[z] = x / (peak + 1) if peak else Fraction(0)
    return EnergyAssignment(values)


def _longest_path_ranks(digraph: SaddleDigraph) -> dict:
    indeg = {v: 0 for v in digraph.nodes}
    preds = {v: set() for v in digraph.nodes}
    succs = {v: set() for v in digraph.nodes}
    for a, b in digraph.edges:
        if b not in succs[a]:
            succs[a].add(b)
            preds[b].add(a)
            indeg[b] += 1
    order = sorted(v for v in digraph.nodes if indeg[v] == 0)
    queue = list(order)
    topo = []
    while queue:
        v = queue.pop(0)
        topo.append(v)
        for w in sorted(succs[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    assert len(topo) == len(digraph.nodes), "cycle slipped past the verdict check"
    ranks = {}
    for v in topo:
        ranks[v] = max((ranks[u] + 1 for u in preds[v]), default=0)
    return ranks


def energy_violations(flow: FlowGraph, energy: EnergyAssignment) -> list[str]:
    """Check every invariant of an energy assignment; empty means valid."""
    problems = []
    values = energy.values
    if set(values) != set(flow.vertex_ids):
        problems.append("assignment does not cover the vertices exactly")
        return problems
    saddle_sum = Fraction(0)
    for v, kind in zip(flow.vertex_ids, flow.kinds):
        x = values[v]
        if kind == SOURCE and x != 1:
            problems.append(f"source {v} has value {x}, expected 1")
        elif kind == SINK and x != -1:
            problems.append(f"sink {v} has value {x}, expected -1")
        elif kind == SADDLE:
            saddle_sum += x
            if not -1 < x < 1:
                problems.append(f"saddle {v} value {x} outside (-1, 1)")
    if saddle_sum != 0:
        problems.append(f"saddle values sum to {saddle_sum}, expected 0")
    for a, b in saddle_digraph(flow).edges:
        if not values[a] > values[b]:
            problems.append(f"separatrix {a} -> {b} does not decrease: {values[a]} <= {values[b]}")
    return problems


def admits_gradient_like(sources: int, sinks: int, saddles: int) -> bool:
    """Whether flows with these singularity counts admit an energy function:
    true iff there is at least one source and at least one sink."""
    if min(sources, sinks, saddles) < 0:
        raise InconsistentCounts("counts must be non-negative")
    chi = sources + sinks - saddles
    if chi % 2 != 0 or chi > 2:
        raise InconsistentCounts(
            f"index sum {chi} is not the Euler characteristic of a closed orientable surface"
        )
    return sources >= 1 and sinks >= 1
