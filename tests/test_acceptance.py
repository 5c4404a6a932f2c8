"""Acceptance suite: one test per criterion, one pass line each.

Run standalone with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import random
import subprocess
import sys
import time

import pytest

import morseflow as mf
from morseflow.enumeration import EnumSpec, count_table, enumerate_classes
from morseflow.gradcheck import EnergyAssignment, NotGradientLike, energy_violations
from morseflow.singularity import FunctionProfile, parse_label, profile_counts

from conftest import FLOW_FIXTURES, PROFILE_FIXTURES, fixture_path
from test_dims import random_consistent_profile


_ENUMERATION_SECONDS = 0.0


@pytest.fixture(scope="module")
def all_classes():
    global _ENUMERATION_SECONDS
    started = time.perf_counter()
    classes = {k: enumerate_classes(k) for k in range(4)}
    _ENUMERATION_SECONDS = time.perf_counter() - started
    return classes


def _profile(genus, *texts):
    return FunctionProfile(genus, tuple(parse_label(t) for t in texts))


def test_criterion_1_formula_consistency():
    """1000 random consistent profiles: both normalized-dimension expressions
    agree and every dimension matches an independent evaluation."""
    rng = random.Random(0xC0FFEE)
    started = time.perf_counter()
    for _ in range(1000):
        prof, intended = random_consistent_profile(rng)
        c = profile_counts(prof)
        # intended counts come from the generator, not from classify()
        assert (c.minima, c.maxima, c.saddles, c.quasi_saddles, c.multi_saddles) == (
            intended["min"], intended["max"], intended["saddle"],
            intended["quasi"], intended["multi"],
        )
        chi = 2 - 2 * prof.genus
        s = max(0, chi + 1)
        total = c.minima + c.maxima + c.saddles + c.quasi_saddles + c.multi_saddles
        dim = (2 * s + total + c.degenerate_extrema + c.quasi_saddles
               + 2 * c.saddles + 3 * c.multi_saddles)
        dim1_restriction = dim - (c.minima + c.maxima) - 1
        dim1_direct = (2 * s + c.degenerate_extrema + 2 * c.quasi_saddles
                       + 3 * c.saddles + 4 * c.multi_saddles - 1)
        assert dim1_restriction == dim1_direct
        rep = mf.report(prof)
        assert rep.classifying_dim == dim
        assert rep.normalized_classifying_dim == dim1_restriction
        assert rep.orbit_fibration_dim == c.saddles + 2 * s - 1
        assert rep.config_space_dim == 2 * s
        assert rep.violations == ()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nCRITERION 1 PASS: 1000 random profiles consistent ({elapsed:.2f}s)")


def test_criterion_2_fixture_table():
    """The worked profiles reproduce their dimension values exactly."""
    genus2 = _profile(2, "A1:+,+", "A1:+,-", "A1:-", "A1:-", "A1:-", "A1:-")
    genus1 = _profile(1, "A1:+,+", "A1:+,-", "A1:-", "A1:-")
    polar = _profile(0, "A1:+,+", "A1:+,-")
    degenerate = _profile(0, "A3:+,+", "A1:+,-", "D4:-")

    r2 = mf.report(genus2)
    assert (r2.classifying_dim, r2.normalized_classifying_dim) == (14, 11)
    assert r2.homotopy_type is mf.HomotopyType.POINT
    r1 = mf.report(genus1)
    assert (r1.classifying_dim, r1.normalized_classifying_dim) == (10, 7)
    assert r1.homotopy_type is mf.HomotopyType.TORUS
    r0 = mf.report(polar)
    assert (r0.classifying_dim, r0.normalized_classifying_dim) == (8, 5)
    assert r0.homotopy_type is mf.HomotopyType.SPHERE
    rd = mf.report(degenerate)
    assert (rd.classifying_dim, rd.normalized_classifying_dim) == (13, 10)
    print("\nCRITERION 2 PASS: worked profiles give 14/11, 10/7, 8/5, 13/10 "
          "with homotopy types point/T2/S2")


def test_criterion_3_energy_oracle_equivalence(all_classes):
    """Over the exhaustive enumeration with k <= 3: the gradient-likeness
    verdict coincides with energy construction succeeding, and every energy
    assignment satisfies all invariants exactly."""
    started = time.perf_counter()
    checked = 0
    for k, records in all_classes.items():
        for rec in records:
            verdict = mf.check_gradient_like(rec.flow).verdict
            try:
                energy = mf.build_energy(rec.flow)
                succeeded = True
            except NotGradientLike:
                succeeded = False
            assert succeeded == verdict, rec.code.as_string()
            if succeeded:
                assert energy_violations(rec.flow, energy) == [], rec.code.as_string()
            checked += 1
    elapsed = time.perf_counter() - started + _ENUMERATION_SECONDS
    assert elapsed < 60.0
    print(f"\nCRITERION 3 PASS: verdict <=> energy on {checked} classes, "
          f"all witnesses valid ({elapsed:.1f}s incl. enumeration)")


def test_criterion_4_extrema_required(all_classes):
    """No gradient-like class lacks a source or a sink, for any k <= 3."""
    for records in all_classes.values():
        for rec in records:
            if rec.gradient_like:
                assert rec.sources >= 1 and rec.sinks >= 1
    for row in count_table(3).rows:
        if row.sources == 0 or row.sinks == 0:
            assert row.gradient_like == 0
    print("\nCRITERION 4 PASS: every gradient-like class has a source and a sink")


def test_criterion_5_topology_consistency(all_classes):
    """V - E + F equals extrema minus saddles on every enumerated flow."""
    total = 0
    for records in all_classes.values():
        for rec in records:
            flow = rec.flow
            p, q, z = flow.counts()
            V = len(flow.kinds)
            E = flow.num_edges()
            F = len(mf.faces(flow))
            if flow.special_polar:
                assert mf.euler_characteristic(flow) == 2 == p + q - z
            else:
                assert V - E + F == p + q - z == mf.euler_characteristic(flow)
            total += 1
    print(f"\nCRITERION 5 PASS: index count equals derived Euler characteristic "
          f"on all {total} classes")


def test_criterion_6_canonicalization_invariance(all_classes):
    """100 random relabelings of 50 enumerated flows keep the code fixed;
    reversal makes the count table symmetric in (sources, sinks)."""
    pool = [rec for k in range(4) for rec in all_classes[k]]
    sample = pool[:: max(1, len(pool) // 50)][:50]
    assert len(sample) == 50
    rng = random.Random(20260101)
    for rec in sample:
        vids, dids = rec.flow.vertex_ids, rec.flow.dart_ids
        for _ in range(100):
            new_v = [f"v{i}" for i in range(len(vids))]
            new_d = [f"d{i}" for i in range(len(dids))]
            rng.shuffle(new_v)
            rng.shuffle(new_d)
            renamed = mf.relabel(rec.flow, dict(zip(vids, new_v)), dict(zip(dids, new_d)))
            assert mf.canonical_code(renamed).code == rec.code.code

    cells = {(r.genus, r.k, r.sources, r.sinks): (r.classes, r.gradient_like)
             for r in count_table(3).rows}
    for (g, k, p, q), counts in cells.items():
        assert cells[(g, k, q, p)] == counts
    print("\nCRITERION 6 PASS: 50 flows x 100 relabelings code-stable; "
          "count table (sources, sinks)-symmetric")


def test_criterion_7_regression_counts(all_classes):
    """Class counts for k <= 2 reproduce the pinned values bit-exactly and
    agree with the independent naive generator."""
    from test_enumeration import PINNED, PINNED_TOTALS, tally

    for k in (0, 1, 2):
        records = all_classes[k]
        assert len(records) == PINNED_TOTALS[k]
        assert tally(records) == PINNED[k]
        naive = mf.naive_enumerate_classes(k)
        assert [r.code.code for r in records] == [r.code.code for r in naive]
    print("\nCRITERION 7 PASS: pinned counts (1, 2, 16 classes for k=0,1,2) "
          "reproduced and naive-generator-verified")


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "morseflow", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_8_cli_determinism():
    """Byte-identical CLI output across two consecutive runs, all subcommands,
    and equal to the stdout and exit codes pinned in cli_golden.json."""
    golden = json.loads(fixture_path("cli_golden").read_text())
    invocations = []
    for name in FLOW_FIXTURES:
        path = f"fixtures/{name}.json"
        invocations += [
            ("validate", path), ("check", path), ("check", path, "--report", "json"),
            ("energy", path), ("canon", path), ("canon", path, "--mirror"),
            ("export-dot", path),
        ]
    for name in PROFILE_FIXTURES:
        invocations.append(("dims", f"fixtures/{name}.json"))
    invocations += [
        ("enum", "--k", "2"), ("enum", "--k", "2", "--format", "json"),
        ("enum", "--k", "1", "--genus", "0", "--gradient-like-only"),
    ]
    assert sorted(golden) == sorted(" ".join(argv) for argv in invocations)
    tests_dir = fixture_path("cli_golden").parent.parent
    for argv in invocations:
        real = [str(tests_dir / a) if a.startswith("fixtures/") else a for a in argv]
        first = _run_cli(*real)
        second = _run_cli(*real)
        assert first == second, argv
        pinned = golden[" ".join(argv)]
        assert (first[0], first[1]) == (pinned["exit"], pinned["stdout"]), argv
    # spot-check schemas re-parse
    code, out, _ = _run_cli("dims", str(fixture_path("genus0_polar")))
    assert code == 0 and json.loads(out)["classifying_dim"] == 8
    print(f"\nCRITERION 8 PASS: {len(invocations)} CLI invocations byte-identical "
          "across two runs and equal to the pinned outputs")
