"""CLI behaviour: exit codes, schemas, and byte determinism."""
import contextlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FLOW_FIXTURES, PROFILE_FIXTURES, fixture_path, load_description, load_flow
from morseflow import cli, equiv
from test_flowgraph import DESCRIPTION_KEYS, json_values, mutate

def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "morseflow", *args],
        capture_output=True, text=True,
    )


def test_validate_polar():
    result = run_cli("validate", str(fixture_path("polar")))
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["valid"] and obj["genus"] == 0 and obj["special_polar"]


def test_validate_rejects_broken_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": []}')
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert result.stderr.strip().startswith("error:")
    assert result.stdout == ""


def test_check_rejects_list_in_pairing(tmp_path):
    desc = json.loads(fixture_path("sphere1").read_text())
    desc["pairing"][0] = [["z0"], "k1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    result = run_cli("check", str(bad))
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: bad pairing entry")


def test_check_exit_codes():
    assert run_cli("check", str(fixture_path("polar"))).returncode == 0
    assert run_cli("check", str(fixture_path("cyclic"))).returncode == 1
    assert run_cli("check", str(fixture_path("missing"))).returncode == 2


def test_check_names_witness_cycle():
    result = run_cli("check", str(fixture_path("cyclic")))
    assert "z1 -> z2 -> z1" in result.stdout
    assert "not gradient-like" in result.stdout


def test_check_json_report():
    result = run_cli("check", str(fixture_path("cyclic")), "--report", "json")
    obj = json.loads(result.stdout)
    assert obj["verdict"] is False and obj["witness_cycle"] == ["z1", "z2"]


def test_check_incoherent_flow_is_input_error():
    result = run_cli("check", str(fixture_path("cycleface")))
    assert result.returncode == 2
    assert "face coherence" in result.stderr


def test_energy_success_and_failure():
    good = run_cli("energy", str(fixture_path("chain2")))
    assert good.returncode == 0
    values = json.loads(good.stdout)
    assert values["z0"] == "1/3" and values["z1"] == "-1/3"

    bad = run_cli("energy", str(fixture_path("cyclic")))
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["verdict"] is False


def test_dims_genus2():
    result = run_cli("dims", str(fixture_path("genus2_morse")))
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["classifying_dim"] == 14
    assert obj["normalized_classifying_dim"] == 11
    assert obj["homotopy_type"] == "point"


def test_dims_rejects_bad_profile(tmp_path):
    bad = tmp_path / "profile.json"
    bad.write_text('{"genus": 0, "labels": ["E5:+"]}')
    result = run_cli("dims", str(bad))
    assert result.returncode == 2


@pytest.mark.parametrize("text", [
    '{"genus": 0, "labels": 5}',
    '{"genus": 0, "labels": [5]}',
    '{"genus": 0, "labels": {"A1:+,+": 1, "A1:+,-": 1}}',
    '{"genus": -1, "labels": ["A1:+,+", "A1:+,-"]}',
])
def test_dims_rejects_malformed_profile_values(tmp_path, text):
    bad = tmp_path / "profile.json"
    bad.write_text(text)
    result = run_cli("dims", str(bad))
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize("data", [
    b"\xff\xfe{}",                     # not UTF-8
    b"[" * 100000,                      # nested too deeply for the parser
    b'{"genus": ' + b"1" * 5000 + b"}",  # integer past the digit limit
])
def test_unreadable_json_is_input_error(tmp_path, data):
    bad = tmp_path / "flow.json"
    bad.write_bytes(data)
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise ValueError("not an input problem")

    monkeypatch.setattr(cli, "_cmd_check", broken)
    assert cli.main(["check", str(fixture_path("polar"))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError('not an input problem')\n"


def test_canon_output_shape():
    result = run_cli("canon", str(fixture_path("torus")))
    assert result.returncode == 0
    code_line, hash_line = result.stdout.strip().split("\n")
    assert all(part.lstrip("-").isdigit() for part in code_line.split("-") if part)
    assert len(hash_line) == 16


def test_canon_mirror_flag():
    plain = run_cli("canon", str(fixture_path("sphere1")))
    mirrored = run_cli("canon", str(fixture_path("sphere1")), "--mirror")
    assert plain.returncode == mirrored.returncode == 0


def test_enum_csv_and_json_agree():
    csv = run_cli("enum", "--k", "1")
    js = run_cli("enum", "--k", "1", "--format", "json")
    assert csv.returncode == js.returncode == 0
    rows = json.loads(js.stdout)
    lines = csv.stdout.strip().split("\n")[1:]
    assert len(rows) == len(lines)
    assert {"genus": 0, "k": 0, "sources": 1, "sinks": 1,
            "classes": 1, "gradient_like": 1} in rows


def test_enum_genus_filter():
    result = run_cli("enum", "--k", "2", "--genus", "1")
    lines = result.stdout.strip().split("\n")[1:]
    assert lines and all(line.startswith("1,") for line in lines)


def test_enum_out_of_bounds():
    assert run_cli("enum", "--k", "9").returncode == 2


def test_export_dot(polar):
    result = run_cli("export-dot", str(fixture_path("sphere1")))
    assert result.returncode == 0
    assert result.stdout.startswith("digraph flow {")
    assert '"S" -> "Z";' in result.stdout
    assert '"Z" [shape=diamond];' in result.stdout


_DOT_QUOTED = r'"((?:[^"\\]|\\.)*)"'


def test_export_dot_escapes_ids(tmp_path):
    """Ids holding quotes and backslashes stay one quoted DOT id each, and
    unescaping gives back every vertex and edge."""
    flow = load_flow("sphere1")
    names = {"S": "S\\", "K1": 'K1\\"', "K2": "K2", "Z": 'Z" ]; evil [label="x'}
    flow = equiv.relabel(flow, names, {d: d for d in flow.dart_ids})
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(flow.to_description()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["export-dot", str(path)]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "digraph flow {" and lines[-1] == "}"
    node = re.compile(rf"  {_DOT_QUOTED} \[shape=(?:circle|doublecircle|diamond)\];")
    edge = re.compile(rf"  {_DOT_QUOTED} -> {_DOT_QUOTED};")
    nodes, edges = [], []
    for line in lines[1:-1]:
        m = node.fullmatch(line) or edge.fullmatch(line)
        assert m, line
        ids = tuple(re.sub(r"\\(.)", r"\1", g) for g in m.groups())
        (nodes if m.re is node else edges).append(ids)
    assert nodes == [(v,) for v in flow.vertex_ids]
    assert sorted(names.values()) == list(flow.vertex_ids)
    assert edges == flow.edges()


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


@pytest.mark.parametrize("args", [
    ("validate", "polar"), ("validate", "torus"),
    ("check", "sphere1"), ("check", "cyclic"),
    ("energy", "chain2"), ("energy", "cyclic"),
    ("canon", "torus"), ("canon", "cyclic"),
    ("export-dot", "chain2"),
])
def test_deterministic_output(args):
    cmd, name = args
    first = run_cli(cmd, str(fixture_path(name)))
    second = run_cli(cmd, str(fixture_path(name)))
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


_FUZZED_COMMANDS = [["validate"], ["check"], ["check", "--report", "json"], ["energy"],
                    ["canon"], ["canon", "--mirror"], ["export-dot"], ["dims"]]


def _strings(node):
    """Every string key and value inside a JSON value."""
    if isinstance(node, str):
        return {node}
    if isinstance(node, dict):
        return set(node) | {s for child in node.values() for s in _strings(child)}
    if isinstance(node, list):
        return {s for child in node for s in _strings(child)}
    return set()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_main_exits_0_1_or_2_on_fuzzed_files(tmp_path_factory, data):
    """In-process main() on a mutated fixture or random JSON: exit 3 (an
    internal error) is a fault of the program, so only 0, 1 and 2 occur."""
    command = data.draw(st.sampled_from(_FUZZED_COMMANDS))
    name = data.draw(st.sampled_from(PROFILE_FIXTURES if command == ["dims"] else FLOW_FIXTURES))
    if data.draw(st.booleans()):
        content = load_description(name)
        words = sorted(_strings(content))
        mutate(data, content, st.one_of(st.sampled_from(words), json_values), words + ["zz"])
    else:
        keys = DESCRIPTION_KEYS + ["genus", "labels"]
        content = data.draw(st.one_of(json_values, st.dictionaries(st.sampled_from(keys), json_values)))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(content))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([command[0], str(path), *command[1:]])
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
    assert code in (0, 1, 2), err.getvalue()
