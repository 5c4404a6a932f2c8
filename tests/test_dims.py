"""Dimension formulas and homotopy types over worked profiles and random ones."""
import random

import pytest
from hypothesis import given, strategies as st

from morseflow import dims, singularity
from morseflow.dims import (
    HomotopyType,
    InvalidEulerCharacteristic,
    NonMorseProfile,
    classifying_dim,
    config_space_dim,
    flow_orbit_space_dim,
    normalized_classifying_dim,
    num_marked_points,
    orbit_fibration_dim,
    orbit_homotopy_type,
    report,
)
from morseflow.singularity import (
    FunctionProfile,
    check_profile_consistency,
    parse_label,
    profile_counts,
)


def profile(genus, *texts):
    return FunctionProfile(genus, tuple(parse_label(t) for t in texts))


GENUS2 = profile(2, "A1:+,+", "A1:+,-", "A1:-", "A1:-", "A1:-", "A1:-")
GENUS1 = profile(1, "A1:+,+", "A1:+,-", "A1:-", "A1:-")
POLAR = profile(0, "A1:+,+", "A1:+,-")
DEGENERATE = profile(0, "A3:+,+", "A1:+,-", "D4:-")


def test_marked_points():
    assert num_marked_points(2) == 3
    assert num_marked_points(0) == 1
    assert num_marked_points(-2) == 0
    with pytest.raises(InvalidEulerCharacteristic):
        num_marked_points(1)
    with pytest.raises(InvalidEulerCharacteristic):
        num_marked_points(4)


@given(st.integers(min_value=0, max_value=50))
def test_marked_points_monotone_and_vanishing(g):
    chi = 2 - 2 * g
    assert num_marked_points(chi) <= num_marked_points(min(chi + 2, 2))
    if chi <= -1:
        assert num_marked_points(chi) == 0


def test_classifying_dim_worked():
    assert classifying_dim(GENUS2) == 14
    assert classifying_dim(POLAR) == 8
    assert classifying_dim(GENUS1) == 10
    assert classifying_dim(DEGENERATE) == 13


def test_normalized_dim_worked():
    assert normalized_classifying_dim(GENUS2) == 11
    assert normalized_classifying_dim(POLAR) == 5
    assert normalized_classifying_dim(GENUS1) == 7
    assert normalized_classifying_dim(DEGENERATE) == 10


def test_orbit_space_dim():
    assert flow_orbit_space_dim(GENUS2) == 8
    assert flow_orbit_space_dim(POLAR) == 0
    with pytest.raises(NonMorseProfile):
        flow_orbit_space_dim(DEGENERATE)


def test_fibration_dim():
    assert orbit_fibration_dim(GENUS1) == 3
    assert orbit_fibration_dim(POLAR) == 5
    assert orbit_fibration_dim(GENUS2) == 3


def test_config_space_dim():
    assert config_space_dim(2) == 6
    assert config_space_dim(0) == 2
    assert config_space_dim(-4) == 0


def test_homotopy_type():
    assert orbit_homotopy_type(-2, 4) is HomotopyType.POINT
    assert orbit_homotopy_type(0, 2) is HomotopyType.TORUS
    assert orbit_homotopy_type(2, 0) is HomotopyType.SPHERE
    assert orbit_homotopy_type(2, 3) is HomotopyType.SO3_MOD_G


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=12))
def test_homotopy_point_for_negative_chi(g, n):
    assert orbit_homotopy_type(2 - 2 * g, n) is HomotopyType.POINT


def test_report_genus2():
    r = report(GENUS2)
    assert (r.marked_points, r.classifying_dim, r.normalized_classifying_dim) == (0, 14, 11)
    assert r.orbit_space_dim == 8
    assert r.orbit_fibration_dim == 3
    assert r.config_space_dim == 0
    assert r.homotopy_type is HomotopyType.POINT
    assert r.formal_fields == () and r.violations == ()


def test_report_polar():
    r = report(POLAR)
    assert (r.marked_points, r.classifying_dim, r.normalized_classifying_dim) == (3, 8, 5)
    assert r.orbit_space_dim == 0
    assert r.orbit_fibration_dim == 5
    assert r.config_space_dim == 6
    assert r.homotopy_type is HomotopyType.SPHERE


def test_report_degenerate():
    # formulas are evaluated even though this profile fails the index count
    # (its violations are surfaced rather than raised, so the worked values
    # stay reachable); the fibration and homotopy fields are formal
    r = report(DEGENERATE)
    assert (r.classifying_dim, r.normalized_classifying_dim) == (13, 10)
    assert r.orbit_space_dim is None
    assert r.orbit_fibration_dim == 0 + 2 * 3 - 1 == 5
    assert r.homotopy_type is HomotopyType.SPHERE
    assert set(r.formal_fields) == {"orbit_fibration_dim", "homotopy_type"}
    assert any("index sum" in v for v in r.violations)


@pytest.mark.parametrize("function", [report, classifying_dim, normalized_classifying_dim,
                                      flow_orbit_space_dim, orbit_fibration_dim])
def test_profile_counted_once_per_call(function, monkeypatch):
    calls = []
    real = singularity.profile_counts

    def counting(profile):
        calls.append(1)
        return real(profile)

    monkeypatch.setattr(singularity, "profile_counts", counting)
    monkeypatch.setattr(dims, "profile_counts", counting)
    function(GENUS2)
    assert len(calls) == 1
    calls.clear()
    check_profile_consistency(GENUS2)
    assert len(calls) == 1


def test_report_json_shape():
    obj = report(GENUS1).to_json()
    assert obj["homotopy_type"] == "T2"
    assert obj["orbit_space_dim"] == 4
    assert obj["formal_fields"] == []


# ---------------------------------------------------------------------------
# randomized agreement of the two normalized-dimension expressions

MINIMA = ["A1:+,+", "A3:+,+", "A5:+,+"]
MAXIMA = ["A1:+,-", "A3:+,-", "A5:+,-"]
SADDLES = ["A1:-", "A3:-,+", "A3:-,-", "D5:+", "D7:-", "E7:+", "E7:-"]
QUASIS = ["A2:+", "A2:-", "A4:+", "D4:+", "D6:+", "E6:+", "E6:-", "E8:+"]
MULTIS = ["D4:-", "D6:-", "D8:-"]


def random_consistent_profile(rng, max_total=12, max_genus=3):
    """Profile passing check_profile_consistency, with its intended counts."""
    while True:
        genus = rng.randint(0, max_genus)
        chi = 2 - 2 * genus
        n_saddle = rng.randint(0, 6)
        n_multi = rng.randint(0, 2)
        n_quasi = rng.randint(0, 3)
        n_extr = chi + n_saddle + 2 * n_multi
        if n_extr < 2:
            continue
        total = n_extr + n_saddle + n_quasi + n_multi
        if total > max_total:
            continue
        n_min = rng.randint(1, n_extr - 1)
        n_max = n_extr - n_min
        texts = (
            [rng.choice(MINIMA) for _ in range(n_min)]
            + [rng.choice(MAXIMA) for _ in range(n_max)]
            + [rng.choice(SADDLES) for _ in range(n_saddle)]
            + [rng.choice(QUASIS) for _ in range(n_quasi)]
            + [rng.choice(MULTIS) for _ in range(n_multi)]
        )
        rng.shuffle(texts)
        counts = {"min": n_min, "max": n_max, "saddle": n_saddle,
                  "quasi": n_quasi, "multi": n_multi}
        return FunctionProfile(genus, tuple(parse_label(t) for t in texts)), counts


def test_normalized_dim_expressions_agree_on_random_profiles():
    rng = random.Random(20260808)
    for _ in range(300):
        prof, intended = random_consistent_profile(rng)
        assert check_profile_consistency(prof) == []
        c = profile_counts(prof)
        assert (c.minima, c.maxima, c.saddles, c.quasi_saddles, c.multi_saddles) == (
            intended["min"], intended["max"], intended["saddle"],
            intended["quasi"], intended["multi"],
        )
        s = num_marked_points(prof.euler_characteristic)
        direct = (2 * s + c.degenerate_extrema + 2 * c.quasi_saddles
                  + 3 * c.saddles + 4 * c.multi_saddles - 1)
        assert normalized_classifying_dim(prof) == direct
        assert classifying_dim(prof) - normalized_classifying_dim(prof) == c.extrema + 1


def test_dim_gap_when_extrema_present():
    rng = random.Random(7)
    for _ in range(100):
        prof, _ = random_consistent_profile(rng)
        assert classifying_dim(prof) >= normalized_classifying_dim(prof) + 2


def test_morse_dim_depends_only_on_genus_and_total():
    # chi pins the extremum/saddle split of a Morse profile, so the dimension
    # is a function of (genus, total) alone
    seen = {}
    rng = random.Random(99)
    for _ in range(200):
        prof, _ = random_consistent_profile(rng)
        if not prof.is_morse():
            continue
        key = (prof.genus, len(prof.labels))
        dim = classifying_dim(prof)
        assert seen.setdefault(key, dim) == dim
