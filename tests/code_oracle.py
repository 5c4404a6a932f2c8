"""Oracle for canonical codes: the two-pass traversal code and its least
value over every start dart of every rotation system.

A traversal first discovers every dart breadth first, then emits one entry
per dart in discovery order.  It shares no code with morseflow.equiv but
the kind numbering, so tests compare canonical_code against it and count
automorphisms with it.
"""
from morseflow.equiv import _KIND_CODE
from morseflow.flowgraph import OUT


def traversal_code(start: int, succ, pair, labels) -> tuple:
    """(kind, direction, successor index, partner index) per dart, in the
    breadth-first order of discovery from start."""
    pos = [-1] * len(succ)
    pos[start] = 0
    order = [start]
    for d in order:
        for nb in (succ[d], pair[d]):
            if pos[nb] < 0:
                pos[nb] = len(order)
                order.append(nb)
    out = []
    for d in order:
        out += labels[d]
        out.append(pos[succ[d]])
        out.append(pos[pair[d]])
    return tuple(out)


def traversal_codes(flow, include_mirror: bool = False) -> list:
    """The traversal code from every start dart, over the flow's rotation
    system and, when include_mirror, then over its inverse."""
    labels = [(_KIND_CODE[flow.kinds[v]], 0 if x == OUT else 1)
              for v, x in zip(flow.dart_vertex, flow.dart_dir)]
    rotations = [flow.succ]
    if include_mirror:
        pred = [0] * len(flow.succ)
        for d, e in enumerate(flow.succ):
            pred[e] = d
        rotations.append(pred)
    return [traversal_code(start, succ, flow.pair, labels)
            for succ in rotations for start in range(len(succ))]


def oracle_code(flow, include_mirror: bool = False) -> tuple:
    """The canonical code: the dart count, then the least traversal code;
    the saddle-free flow has the constant code (0,)."""
    if flow.special_polar:
        return (0,)
    return (len(flow.succ),) + min(traversal_codes(flow, include_mirror))
