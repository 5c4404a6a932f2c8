"""The result records: immutable named tuples, their repr, and what
`import morseflow.cli` loads."""
import subprocess
import sys

import pytest

from conftest import load_flow
from morseflow import dims
from morseflow.enumeration import EnumSpec, count_table, enumerate_classes
from morseflow.equiv import canonical_code
from morseflow.gradcheck import build_energy, check_gradient_like, saddle_digraph
from morseflow.singularity import FunctionProfile, MalformedLabel, parse_label, profile_counts

# repr(build(chain2)), pinned: identity checks across versions compare FlowGraph reprs
CHAIN2_REPR = (
    "FlowGraph(special_polar=False, vertex_ids=('p0', 'p1', 'q0', 'q1', 'z0', 'z1'), "
    "kinds=('source', 'source', 'sink', 'sink', 'saddle', 'saddle'), "
    "rings=((0, 1), (2,), (3,), (4, 5), (6, 7, 8, 9), (10, 11, 12, 13)), "
    "dart_ids=('p0.0', 'p0.1', 'p1.0', 'q0.0', 'q1.0', 'q1.1', 'z0.0', 'z0.1', 'z0.2', "
    "'z0.3', 'z1.0', 'z1.1', 'z1.2', 'z1.3'), "
    "dart_vertex=(0, 0, 1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5), "
    "succ=(1, 0, 2, 3, 5, 4, 7, 8, 9, 6, 11, 12, 13, 10), "
    "pair=(7, 9, 13, 8, 10, 12, 11, 0, 3, 1, 4, 6, 5, 2), "
    "dart_dir=('out', 'out', 'out', 'in', 'in', 'in', 'out', 'in', 'out', 'in', 'out', "
    "'in', 'out', 'in'), "
    "face_walks=((0, 8, 3, 9), (1, 6, 12, 4, 11, 7), (2, 10, 5, 13)), chi=2, coherent=True)"
)


def _records():
    flow = load_flow("chain2")
    profile = FunctionProfile(0, (parse_label("A1:+,+"), parse_label("A1:+,-")))
    table = count_table(1)
    return [
        flow, check_gradient_like(flow), build_energy(flow), saddle_digraph(flow),
        canonical_code(flow), enumerate_classes(1)[0], table, table.rows[0], EnumSpec(1),
        profile.labels[0], profile, profile_counts(profile), dims.report(profile),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_flow_repr_is_unchanged():
    assert repr(load_flow("chain2")) == CHAIN2_REPR


def test_function_profile_checks_and_normalizes():
    with pytest.raises(MalformedLabel):
        FunctionProfile(-1, ())
    assert type(FunctionProfile(0, [parse_label("A1:-")]).labels) is tuple


def _modules_after(code: str) -> set:
    probe = f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_footprint():
    """`import morseflow.cli` loads the modules the bench tracer wraps and
    none of the stdlib modules that only some commands need."""
    baseline = _modules_after("pass")
    loaded = _modules_after("import morseflow.cli")
    assert {f"morseflow.{m}" for m in ("flowgraph", "gradcheck", "equiv", "enumeration", "dims")} <= loaded
    assert not {"dataclasses", "inspect", "hashlib", "fractions"} & (loaded - baseline)
