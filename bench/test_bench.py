"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent)]
import run  # noqa: E402

run._import_program()
from morseflow import equiv, flowgraph, gradcheck  # noqa: E402

inputs = run.inputs


def _fixtures():
    return {n: json.loads((run.FIXTURES / f"{n}.json").read_text())
            for n in ("chain2", "torus", "cyclic")}


@pytest.fixture(scope="module")
def classes():
    return inputs.corpus_classes()


@pytest.fixture(scope="module")
def large():
    return inputs.large_inputs(_fixtures(), random.Random(7))


def _take(stream, n):
    return [next(stream) for _ in range(n)]


def test_same_seed_same_inputs(classes):
    a = _take(inputs.corpus_ops(classes, random.Random("3:ops")), 600)
    b = _take(inputs.corpus_ops(classes, random.Random("3:ops")), 600)
    assert [(k, repr(i), d) for k, i, d in a] == [(k, repr(i), d) for k, i, d in b]
    assert any(k == "profile" for k, _, _ in a)
    c = _take(inputs.corpus_ops(classes, random.Random("4:ops")), 600)
    assert [d for _, _, d in a] != [d for _, _, d in c]

    grown = [x.description for x in inputs.large_inputs(_fixtures(), random.Random(7))]
    again = [x.description for x in inputs.large_inputs(_fixtures(), random.Random(7))]
    assert grown == again
    assert inputs.cli_pass(random.Random(5)) == inputs.cli_pass(random.Random(5))


def test_large_flows_are_known_by_construction(large):
    assert len(large) == 4 * len(inputs.LARGE_SIZES)
    assert {x.gradient_like for x in large} == {True, False}
    for item in large:
        flow = flowgraph.build(item.description)
        assert 200 <= item.darts == len(flow.dart_dir) <= 1000
        assert flowgraph.face_coherence_check(flow)
        assert flowgraph.genus(flow) == item.genus
        report = gradcheck.check_gradient_like(flow)
        assert report.verdict == item.gradient_like
        got = len(report.witness_cycle) if report.witness_cycle else None
        assert got == item.cycle_len
        relabeled = inputs.relabel_description(item.description, random.Random(1))
        assert equiv.equivalent(flowgraph.build(relabeled), flow)


def test_corpus_relabelings_are_equivalent_to_their_class(classes):
    assert len(classes) == 273
    assert sum(not c.gradient_like for c in classes) == 71
    rng = random.Random(11)
    for c in classes:
        desc = inputs.relabel_description(c.description, rng)
        assert desc != c.description or c.description["special_polar"]
        flow = flowgraph.build(desc)
        assert equiv.canonical_code(flow).code == c.code
        assert flow.counts() == c.counts


def test_profiles_match_their_construction():
    from morseflow import dims
    from morseflow.singularity import FunctionProfile

    rng = random.Random(2)
    for _ in range(200):
        p = inputs.random_profile(rng)
        got = dims.report(FunctionProfile.from_json(p.profile)).to_json()
        assert {k: got[k] for k in p.expected} == p.expected


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_one_command_prints_every_metric_with_its_unit(capsys):
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"]) == 0
    out = _last_line(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_every_layer_metric(capsys):
    assert run.main(["--workload", "enum", "--seed", "1", "--seconds", "1", "--trace", "1"]) == 0
    out = _last_line(capsys)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.PER_LAYER
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert (m["enumeration.classes.k1"], m["enumeration.classes.k2"],
            m["enumeration.classes.k3"]) == (2, 16, 254)
    assert m["enumeration.duplicates"] == 0


def test_span_checks_can_fail():
    op = ("op", 0.0, 1.0, -1, None)
    good = [op, ("flowgraph.build", 0.1, 0.5, 0, None), ("flowgraph.faces", 0.2, 0.4, 1, None)]
    assert run.span_problems(good, 1.0) == []
    outside = [op, ("flowgraph.build", 0.5, 1.2, 0, None)]
    assert run.span_problems(outside, 1.0) == ["span flowgraph.build lies outside its parent op"]
    overlapping = [op, ("flowgraph.build", 0.1, 0.8, 0, None), ("flowgraph.faces", 0.3, 0.9, 0, None)]
    assert run.span_problems(overlapping, 1.0) == ["span op has negative self time"]
    assert run.span_problems(good, 2.0) == ["op spans cover 50.0% of the traced wall time"]


def test_failed_op_gives_nonzero_exit(tmp_path, monkeypatch, capsys):
    refs = json.loads(run.REFERENCES.read_text())
    for call in refs["calls"]:
        call["stdout"] += "tampered"
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCES", bad)
    assert run.main(["--workload", "cli", "--seed", "1", "--seconds", "1"]) != 0
    out = _last_line(capsys)
    assert not out["correct"] and out["failed"] == out["attempted"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "enum", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert b"correct" not in done.stdout
