"""Command-line interface.

Subcommands: validate, check, energy, dims, canon, enum, export-dot.
Exit codes: 0 success (and verdict true for check), 1 verdict false,
2 input error (single-line diagnostic on stderr), 3 internal error (a fault
of the program, not of the input; single-line diagnostic on stderr).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import dims as dims_mod
from . import enumeration, equiv, flowgraph, gradcheck
from .singularity import FunctionProfile, LabelError


class UnreadableInput(ValueError):
    """An input file that is not UTF-8 JSON within the parser's limits."""


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as err:
            # bad UTF-8 or syntax, an integer past the digit limit, nesting too deep
            raise UnreadableInput(str(err)) from None


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_flow(path: str) -> flowgraph.FlowGraph:
    return flowgraph.build(_load_json(path))


def _cmd_validate(args) -> int:
    flow = _load_flow(args.flow)
    p, q, z = flow.counts()
    chi = flowgraph.euler_characteristic(flow)
    print(_dump({
        "valid": True,
        "special_polar": flow.special_polar,
        "sources": p,
        "sinks": q,
        "saddles": z,
        "edges": flow.num_edges(),
        "faces": len(flowgraph.faces(flow)),
        "euler_characteristic": chi,
        "genus": flowgraph.genus(flow),
        "face_coherent": flowgraph.face_coherence_check(flow),
        "poincare_hopf": flowgraph.poincare_hopf_check(flow),
    }))
    return 0


def _cmd_check(args) -> int:
    flow = _load_flow(args.flow)
    report = gradcheck.check_gradient_like(flow)
    if args.report == "json":
        print(_dump(report.to_json()))
    else:
        yes = lambda b: "yes" if b else "no"
        print(f"sources and sinks present: {yes(report.cond_sources_sinks)}")
        print(f"separatrix endpoints paired: {yes(report.cond_separatrix_endpoints)}")
        if report.witness_cycle:
            loop = " -> ".join(report.witness_cycle + report.witness_cycle[:1])
            print(f"saddle connections acyclic: no (cycle {loop})")
        else:
            print("saddle connections acyclic: yes")
        print(f"verdict: {'gradient-like' if report.verdict else 'not gradient-like'}")
    return 0 if report.verdict else 1


def _cmd_energy(args) -> int:
    flow = _load_flow(args.flow)
    try:
        energy = gradcheck.build_energy(flow)
    except gradcheck.NotGradientLike as failure:
        print(_dump(failure.report.to_json()))
        return 1
    print(_dump(energy.to_json()))
    return 0


def _cmd_dims(args) -> int:
    profile = FunctionProfile.from_json(_load_json(args.profile))
    print(_dump(dims_mod.report(profile).to_json()))
    return 0


def _cmd_canon(args) -> int:
    flow = _load_flow(args.flow)
    code = equiv.canonical_code(flow, include_mirror=args.mirror)
    print(code.as_string())
    print(code.stable_hash())
    return 0


def _cmd_enum(args) -> int:
    rows = enumeration.count_table(args.k).rows
    if args.genus is not None:
        rows = tuple(r for r in rows if r.genus == args.genus)
    if args.gradient_like_only:
        rows = tuple(r._replace(classes=r.gradient_like) for r in rows)
    table = enumeration.CountTable(rows)
    if args.format == "json":
        print(_dump(table.to_json()))
    else:
        sys.stdout.write(table.to_csv())
    return 0


_DOT_SHAPES = {"source": "circle", "sink": "doublecircle", "saddle": "diamond"}


def _dot_id(vid: str) -> str:
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + vid.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_export_dot(args) -> int:
    flow = _load_flow(args.flow)
    lines = ["digraph flow {"]
    for v, kind in zip(flow.vertex_ids, flow.kinds):
        lines.append(f"  {_dot_id(v)} [shape={_DOT_SHAPES[kind]}];")
    for tail, head in flow.edges():
        lines.append(f"  {_dot_id(tail)} -> {_dot_id(head)};")
    lines.append("}")
    print("\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morseflow",
        description="Combinatorial analysis of gradient-like Morse flows on surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a flow file and print derived topology")
    p.add_argument("flow")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="decide gradient-likeness (exit 0 yes, 1 no)")
    p.add_argument("flow")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("energy", help="print a normalized energy assignment")
    p.add_argument("flow")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("dims", help="dimension and homotopy invariants of a profile")
    p.add_argument("profile")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("canon", help="print the canonical code and its stable hash")
    p.add_argument("flow")
    p.add_argument("--mirror", action="store_true", help="quotient by reflections too")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("enum", help="class counts for saddle counts 0..K")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--gradient-like-only", action="store_true")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("export-dot", help="emit the separatrix digraph in DOT format")
    p.add_argument("flow")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnreadableInput, OSError, flowgraph.FlowError, gradcheck.NotRealizable,
            LabelError, enumeration.SpecOutOfBounds,
            dims_mod.InvalidEulerCharacteristic) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault of the program, not of its input
        print(f"internal error: {err!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
