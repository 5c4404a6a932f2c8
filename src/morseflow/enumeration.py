"""Exhaustive generation of separatrix graphs with few saddles.

Every flow with k saddles is produced, up to equivalence, from a compact
candidate encoding: the 4k saddle darts are numbered so that saddle i owns
darts 4i..4i+3 in rotation order with even darts pointing out, a partial
matching pairs saddle out-darts to saddle in-darts (the saddle connections),
and the leftover out/in darts are absorbed by sinks/sources encoded as
permutations whose cycles are the extrema with their rotation orders.
Coherence is derived, not tested: on the reduced map a saddle connection
keeps a dart's parity and an extremum hop flips it, so a candidate is
coherent iff each face has one sink hop and one source hop.

One depth-first search yields every candidate least in its orbit under the
exact symmetry group of the encoding (saddle relabelings and half-turns of
individual saddles): a live matching (no chain of connections closes without
an extremum, which leaves no coherent candidate), then a sink permutation
pruned by the matching's stabilizer, whose every arc fixes one arc of the
one coherent source permutation.  Each candidate is one array `part` (the
partner of a matched dart, the next dart of an extremum cycle), filtered by
connectivity and materialized through build(), which derives its genus and
counts.  Every candidate is a distinct class: a repeated canonical code is
an AssertionError, not a duplicate to drop.  A naive generator without any
pruning, driven through the public build/validation pipeline, cross-checks
the class sets at desk scale.
"""
from __future__ import annotations

import sys
from collections import namedtuple
from itertools import combinations, permutations
from typing import NamedTuple

from . import flowgraph
from .equiv import CanonicalCode, canonical_code
from .flowgraph import FlowGraph, build, face_coherence_check
from .gradcheck import check_gradient_like

MAX_SADDLES = 3


class SpecOutOfBounds(ValueError):
    """Requested saddle count outside the supported range 0..3."""


def _check_bounds(k: int, what: str = "saddle count") -> None:
    if not 0 <= k <= MAX_SADDLES:
        raise SpecOutOfBounds(f"{what} must be in 0..{MAX_SADDLES}, got {k}")


class EnumSpec(namedtuple("EnumSpec", "saddles max_extrema gradient_like_only genus")):
    """What to enumerate: saddle count plus optional filters."""

    __slots__ = ()

    def __new__(cls, saddles: int, max_extrema: int | None = None,
                gradient_like_only: bool = False, genus: int | None = None):
        _check_bounds(saddles)
        return super().__new__(cls, saddles, max_extrema, gradient_like_only, genus)


class ClassRecord(NamedTuple):
    """One equivalence class: canonical representative plus its statistics."""

    flow: FlowGraph
    code: CanonicalCode
    genus: int
    sources: int
    sinks: int
    gradient_like: bool


class CountRow(NamedTuple):
    genus: int
    k: int
    sources: int
    sinks: int
    classes: int
    gradient_like: int


class CountTable(NamedTuple):
    rows: tuple[CountRow, ...]

    def to_csv(self) -> str:
        return "".join(",".join(map(str, r)) + "\n" for r in (CountRow._fields, *self.rows))

    def to_json(self) -> list:
        return [r._asdict() for r in self.rows]


_POLAR_DESCRIPTION = {
    "special_polar": True,
    "vertices": [{"id": "p0", "kind": "source"}, {"id": "q0", "kind": "sink"}],
}

_CLASS_CACHE: dict = {}


def enumerate_classes(k: int) -> tuple[ClassRecord, ...]:
    """All equivalence classes of flows with k saddles, sorted by code."""
    _check_bounds(k)
    if k not in _CLASS_CACHE:
        _CLASS_CACHE[k] = tuple(_generate(k))
    return _CLASS_CACHE[k]


def enumerate_flows(spec: EnumSpec) -> list[FlowGraph]:
    """Canonical representatives matching the requested filters, sorted by code."""
    out = []
    for rec in enumerate_classes(spec.saddles):
        if spec.genus is not None and rec.genus != spec.genus:
            continue
        if spec.gradient_like_only and not rec.gradient_like:
            continue
        if spec.max_extrema is not None and rec.sources + rec.sinks > spec.max_extrema:
            continue
        out.append(rec.flow)
    return out


def count_table(kmax: int) -> CountTable:
    """Class counts by (genus, k, sources, sinks) for k = 0..kmax.

    Rows cover every extremum split compatible with the index count
    sources + sinks = chi + k: both-positive splits when two or more
    extrema are forced, and the two one-sided splits when exactly one
    extremum is forced (those rows witness infeasibility with zero counts).
    """
    _check_bounds(kmax, "kmax")
    rows = []
    for k in range(kmax + 1):
        tally: dict = {}
        for rec in enumerate_classes(k):
            key = (rec.genus, rec.sources, rec.sinks)
            total, grad = tally.get(key, (0, 0))
            tally[key] = (total + 1, grad + (1 if rec.gradient_like else 0))
        covered = set()
        genus = 0
        while True:
            n_extr = 2 - 2 * genus + k
            if n_extr < 1:
                break
            splits = [(1, 0), (0, 1)] if n_extr == 1 else [
                (p, n_extr - p) for p in range(1, n_extr)
            ]
            for p, q in splits:
                total, grad = tally.get((genus, p, q), (0, 0))
                rows.append(CountRow(genus, k, p, q, total, grad))
                covered.add((genus, p, q))
            genus += 1
        if not covered >= set(tally):
            raise AssertionError(f"classes outside the row domain: {set(tally) - covered}")
    rows.sort(key=lambda r: (r.k, r.genus, r.sources))
    return CountTable(tuple(rows))


# ---------------------------------------------------------------------------
# fast generator on the compact encoding


def _symmetries(k: int) -> list[tuple[int, ...]]:
    """Dart permutations preserving the encoding: relabel saddles and turn
    individual saddles by half (which keeps rotation order and directions)."""
    group = []
    for order in permutations(range(k)):
        for rots in range(2 ** k):
            g = [0] * (4 * k)
            for i in range(k):
                shift = 2 * ((rots >> i) & 1)
                for j in range(4):
                    g[4 * i + j] = 4 * order[i] + ((j + shift) & 3)
            group.append(tuple(g))
    return group


def _matchings(k: int):
    """All partial injective pairings of saddle out-darts to saddle in-darts,
    each sorted: combinations yields the out-darts ascending."""
    outs = [d for d in range(4 * k) if d % 2 == 0]
    ins = [d for d in range(4 * k) if d % 2 == 1]
    for t in range(2 * k + 1):
        for osub in combinations(outs, t):
            for iimg in permutations(ins, t):
                # tuple() of an iterator over-allocates and shrinks; the freed
                # matchings would then pile up in the tuple free lists
                yield tuple(list(zip(osub, iimg)))


def _candidates(k: int):
    """Every coherent candidate least in its orbit under the encoding group,
    as (matching, sink_fed, source_fed, part), with one part list reused.

    One depth-first search matches out-darts in ascending order, then maps
    the ascending sink-fed darts to sinks, and drops a branch at the first
    pair or arc that fails a test.  Live: a chain follows d -> rotation
    successor of part[d], one to one, so a chain closed without an extremum
    is a cycle through a or b if the pair (a, b) closed it.  Least: a pair
    (a, b), or a sink arc (d, sigma(d)), is coded a * 4k + b, and no table
    maps the pair codes, or the arc codes under a table that fixes the pair
    codes, to a smaller sorted list.  Symmetries keep both properties, and
    both survive the removal of the largest pair or arc (Read 1978)."""
    n = 4 * k
    # the identity, first in group order, passes every test
    tables = [[g[a] * n + g[b] for a in range(n) for b in range(n)] for g in _symmetries(k)][1:]
    part = list(range(n))
    codes = []

    def closes(d):
        x = d
        while True:
            p = part[x]
            x = (p & ~3) | ((p + 1) & 3)
            if x == d or part[x] == x:
                return x == d

    def extend(a, pairs):
        if a == n:
            yield from sinks(pairs)
            return
        yield from extend(a + 2, pairs)
        for b in range(1, n, 2):
            if part[b] == b:
                part[a], part[b] = b, a
                codes.append(a * n + b)
                if not (closes(a) or closes(b)) and all(
                        sorted(map(table.__getitem__, codes)) >= codes for table in tables):
                    yield from extend(a + 2, pairs + ((a, b),))
                codes.pop()
                part[a], part[b] = a, b

    def sinks(matching):
        ends = _hop_ends(n, part)
        # the search lets no closed chain through
        if ends is None:
            raise AssertionError(matching)
        sink_fed = [d for d in range(0, n, 2) if part[d] == d]
        source_fed = [d for d in range(1, n, 2) if part[d] == d]
        fed_by = {ends[y]: y for y in source_fed}
        cand = part[:]
        free = [True] * n
        arcs = []

        def choose(i, pending):
            if i == len(sink_fed):
                yield matching, sink_fed, source_fed, cand
                return
            d = sink_fed[i]
            for e in sink_fed:
                if free[e]:
                    free[e] = False
                    cand[d] = e
                    # the one coherent source permutation: the face that hops
                    # from d to its sink must hop back through the source that
                    # leads to d
                    cand[ends[e]] = fed_by[d]
                    arcs.append(d * n + e)
                    live = []
                    for table in pending:
                        c = sorted(map(table.__getitem__, arcs))
                        if c < arcs:
                            break
                        # a table that maps the sink-fed darts up to d onto
                        # themselves, and the arcs to a larger list, does so
                        # for every extension: later arcs sort after these
                        if c == arcs or c[-1] // n > d:
                            live.append(table)
                    else:
                        yield from choose(i + 1, live)
                    arcs.pop()
                    free[e] = True

        yield from choose(0, [t for t in tables if sorted(map(t.__getitem__, codes)) == codes])

    return extend(0, ())


def _connected(k: int, part: list) -> bool:
    """Whether a walk from saddle 0 reaches every saddle: saddle s reaches the
    saddle part[d] >> 2 of the partner or next cycle dart of each dart d."""
    seen = [True] + [False] * (k - 1)
    stack = [0]
    while stack:
        s = stack.pop()
        for d in range(4 * s, 4 * s + 4):
            t = part[d] >> 2
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return all(seen)


def _hop_ends(n: int, part: list) -> list | None:
    """ends[x] for each unmatched dart x: the unmatched dart that a face of
    the reduced map reaches after an extremum hop onto x, by saddle
    connections from the rotation successor of x; -1 for matched darts.
    None if a chain of connections closes without an extremum, that is, if
    some matched dart lies on no chain from a hop.  A connection keeps a
    dart's parity and a hop flips it, so ends maps sink-fed darts one to one
    onto source-fed ones and back."""
    ends = [-1] * n
    walked = 0
    for x in range(n):
        if part[x] == x:
            d = (x & ~3) | ((x + 1) & 3)
            while part[d] != d:
                walked += 1
                p = part[d]
                d = (p & ~3) | ((p + 1) & 3)
            ends[x] = d
    return ends if walked == ends.count(-1) else None


def _cycles(part: list, darts: list) -> tuple:
    """The cycles of part through the ascending extremum darts, each from its
    least dart, in increasing order of that dart."""
    left = set(darts)
    cycles = []
    for d in darts:
        if d in left:
            cycle = []
            while d in left:
                left.remove(d)
                cycle.append(d)
                d = part[d]
            cycles.append(tuple(cycle))
    return tuple(cycles)


def _materialize(k: int, matching: tuple, src_cycles: tuple, snk_cycles: tuple) -> dict:
    # Ids are interned, so the records share one string per distinct id.
    def dart_name(d):
        return sys.intern(f"z{d >> 2}.{d & 3}")

    vertices = [{"id": sys.intern(f"z{i}"), "kind": "saddle"} for i in range(k)]
    rotation = {f"z{i}": [dart_name(4 * i + j) for j in range(4)] for i in range(k)}
    dart_dir = {dart_name(d): ("out" if d % 2 == 0 else "in") for d in range(4 * k)}
    pairing = [[dart_name(a), dart_name(b)] for a, b in matching]

    for prefix, kind, direction, cycles in (
        ("p", "source", "out", src_cycles),
        ("q", "sink", "in", snk_cycles),
    ):
        for n, cyc in enumerate(sorted(cycles)):
            vid = sys.intern(f"{prefix}{n}")
            vertices.append({"id": vid, "kind": kind})
            ring = []
            for j, saddle_dart in enumerate(cyc):
                did = sys.intern(f"{vid}.{j}")
                ring.append(did)
                dart_dir[did] = direction
                pairing.append(sorted((did, dart_name(saddle_dart))))
            rotation[vid] = ring
    return {
        "special_polar": False,
        "vertices": vertices,
        "rotation": rotation,
        "dart_dir": dart_dir,
        "pairing": sorted(pairing),
    }


def _record(flow: FlowGraph, code: CanonicalCode) -> ClassRecord:
    """The class record of a flow, with its topology read from build()'s
    trace; the saddle-free flow is gradient-like and is not checked."""
    p, q, _ = flow.counts()
    return ClassRecord(flow, code, flowgraph.genus(flow), p, q,
                       flow.special_polar or check_gradient_like(flow).verdict)


def _generate(k: int):
    if k == 0:
        flow = build(_POLAR_DESCRIPTION)
        yield _record(flow, canonical_code(flow))
        return

    records = []
    for matching, sink_fed, source_fed, part in _candidates(k):
        if not _connected(k, part):
            continue
        flow = build(_materialize(k, matching, _cycles(part, source_fed),
                                  _cycles(part, sink_fed)))
        # the derivation must agree with build()'s own face trace
        if not (face_coherence_check(flow) and flowgraph.poincare_hopf_check(flow)):
            raise AssertionError(matching)
        records.append(_record(flow, canonical_code(flow)))

    records.sort(key=lambda r: r.code.code)
    # equivalent candidates lie in one orbit of the encoding group, whose
    # least member alone the search keeps, so a class is built once
    for r, nxt in zip(records, records[1:]):
        if r.code.code == nxt.code.code:
            raise AssertionError(r.code.as_string())
    yield from records


# ---------------------------------------------------------------------------
# naive cross-check generator


def _cyclic_set_partitions(items):
    """Partitions of items into blocks carrying a cyclic order, each block
    written starting from its least element.  There are len(items)! of them."""
    items = sorted(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for size in range(len(rest) + 1):
        for subset in combinations(rest, size):
            others = [x for x in rest if x not in subset]
            for order in permutations(subset):
                block = (first,) + order
                for more in _cyclic_set_partitions(others):
                    yield [block] + more


def naive_enumerate_classes(k: int) -> tuple[ClassRecord, ...]:
    """Reference enumeration without symmetry pruning: every candidate is
    constructed explicitly and pushed through build() and the coherence
    check.  Intended for desk-scale cross-checks (k <= 2)."""
    _check_bounds(k)
    if k == 0:
        flow = build(_POLAR_DESCRIPTION)
        return (_record(flow, canonical_code(flow)),)

    by_code: dict = {}
    for matching in _matchings(k):
        matched = {d for pair in matching for d in pair}
        sink_fed = [d for d in range(4 * k) if d not in matched and d % 2 == 0]
        source_fed = [d for d in range(4 * k) if d not in matched and d % 2 == 1]
        for src_blocks in _cyclic_set_partitions(source_fed):
            for snk_blocks in _cyclic_set_partitions(sink_fed):
                desc = _materialize(
                    k, matching, tuple(src_blocks), tuple(snk_blocks)
                )
                try:
                    flow = build(desc)
                except flowgraph.FlowError:
                    continue
                if not face_coherence_check(flow):
                    continue
                code = canonical_code(flow)
                if code.code in by_code:
                    continue
                by_code[code.code] = _record(flow, code)
    return tuple(sorted(by_code.values(), key=lambda r: r.code.code))
