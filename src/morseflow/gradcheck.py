"""Gradient-likeness of a Morse flow and construction of an energy witness.

A flow is gradient-like iff it has a source and a sink, every separatrix has
two endpoints (structural in this data model), and no directed cycle of
separatrices runs through saddles only.  Both the check and the energy read
one integer analysis of the saddle digraph, built once per call from the
flow's dart arrays (saddles numbered in id order).  Kahn's topological sort
gives every saddle its longest-path rank unless a cycle blocks it; only then
is a witness searched for.  The witness is the least directed cycle: the
shortest, and among those the least node sequence starting at its least
node, found in polynomial time by breadth-first search.  When the check
passes, an energy assignment is built: sources get +1, sinks -1, and
saddles get values in (-1, 1) summing to zero that strictly decrease along
every saddle-to-saddle separatrix.  Saddle values come from the ranks,
which makes the assignment canonical for a given flow.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .flowgraph import (
    OUT,
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


class SaddleDigraph(NamedTuple):
    """Saddle-to-saddle separatrices as a directed multigraph (self-loops
    record homoclinic separatrices)."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


class CheckReport(NamedTuple):
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
        witness = list(self.witness_cycle) if self.witness_cycle else None
        return dict(self._asdict(), witness_cycle=witness, verdict=self.verdict)


class EnergyAssignment(NamedTuple):
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


def check_gradient_like(flow: FlowGraph) -> CheckReport:
    """Decide gradient-likeness; requires a face-coherent flow.

    Separatrix endpoints are two by construction here (every stored
    separatrix is a dart pair), so that condition is reported as true.
    """
    return _analyse(flow)[0]


def build_energy(flow: FlowGraph) -> EnergyAssignment:
    """Energy witness for a gradient-like flow.

    Saddle values: rank(z) is the longest directed path in the saddle
    digraph ending at z; with n saddles whose ranks sum to total, z gets
    (total - n*rank(z)) / (peak + n), peak = max |total - n*rank|.  These
    are the raw values -rank centered to sum zero and scaled by
    1/(max|centered| + 1), which keeps them strictly inside (-1, 1) and
    strictly decreasing along saddle connections.

    Raises NotRealizable on incoherent flows and NotGradientLike (carrying
    the CheckReport) on verdict-false flows.
    """
    from fractions import Fraction

    report, saddles, ranks = _analyse(flow)
    if not report.verdict:
        raise NotGradientLike(report)
    total, n = sum(ranks), len(ranks)
    peak = max((abs(total - n * r) for r in ranks), default=0)
    values = {v: Fraction(1 if kind == SOURCE else -1)
              for v, kind in zip(flow.vertex_ids, flow.kinds) if kind != SADDLE}
    for v, r in zip(saddles, ranks):
        values[flow.vertex_ids[v]] = Fraction(total - n * r, peak + n)
    return EnergyAssignment(values)


def _analyse(flow: FlowGraph) -> tuple[CheckReport, list[int], list[int] | None]:
    """The check report, the saddles' vertex numbers and, when the saddle
    digraph is acyclic, the saddles' longest-path ranks."""
    if not face_coherence_check(flow):
        raise NotRealizable("flow fails face coherence; not a Morse-flow cell structure")
    saddles = [v for v, kind in enumerate(flow.kinds) if kind == SADDLE]
    node = {v: i for i, v in enumerate(saddles)}
    succs = [[] for _ in saddles]
    at = flow.dart_vertex
    for d, e in enumerate(flow.pair):
        if flow.dart_dir[d] == OUT and at[d] in node and at[e] in node:
            succs[node[at[d]]].append(node[at[e]])
    ranks, cycle = _ranks_or_cycle(succs)
    p, q, _ = flow.counts()
    report = CheckReport(
        cond_sources_sinks=p >= 1 and q >= 1,
        cond_separatrix_endpoints=True,
        cond_no_directed_cycle=cycle is None,
        witness_cycle=tuple([flow.vertex_ids[saddles[i]] for i in cycle]) if cycle else None,
    )
    return report, saddles, ranks


def _ranks_or_cycle(succs: list[list[int]]) -> tuple[list[int] | None, list[int] | None]:
    """(longest-path ranks, None) for an acyclic digraph on nodes 0..n-1,
    else (None, least cycle).

    Kahn's pass ranks every node unless a cycle blocks it.  The least cycle
    is a self-loop at the least node if there is one.  Otherwise, for each
    node s, BFS over predecessors within the nodes >= s gives the shortest
    cycle whose least node is s; the least s reaching the global minimum
    length L starts the cycle, and each step goes to the least successor
    whose distance back to s equals the steps left.  A closed walk of length
    L repeats no node (it would split into two shorter cycles), so this is
    the least node sequence among the shortest cycles.
    """
    n = len(succs)
    preds = [[] for _ in range(n)]
    for v, ws in enumerate(succs):
        for w in ws:
            preds[w].append(v)
    indeg = [len(us) for us in preds]
    ranks = [0] * n
    queue = deque([v for v in range(n) if not indeg[v]])
    reached = 0
    while queue:
        v = queue.popleft()
        reached += 1
        for w in succs[v]:
            ranks[w] = max(ranks[w], ranks[v] + 1)
            indeg[w] -= 1
            if not indeg[w]:
                queue.append(w)
    if reached == n:
        return ranks, None

    loops = [v for v in range(n) if v in succs[v]]
    if loops:
        return None, loops[:1]
    best = (n + 1,)
    for s in range(n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in preds[v]:
                if u > s and u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        length = min([dist[w] + 1 for w in succs[s] if w in dist], default=n + 1)
        if length < best[0]:
            best = length, s, dist
    length, s, dist = best
    cycle = [s]
    for left in range(length - 1, 0, -1):
        cycle.append(min([w for w in succs[cycle[-1]] if dist.get(w) == left]))
    return None, cycle


def energy_violations(flow: FlowGraph, energy: EnergyAssignment) -> list[str]:
    """Check every invariant of an energy assignment; empty means valid."""
    problems = []
    values = energy.values
    if set(values) != set(flow.vertex_ids):
        problems.append("assignment does not cover the vertices exactly")
        return problems
    saddle_sum = 0
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
