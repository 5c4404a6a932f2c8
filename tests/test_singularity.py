"""Label parsing, the five-way classification and the gradient indices.

The per-class indices are confirmed against a numerical oracle: the winding
number of the gradient of a representative normal-form polynomial around a
small circle (see winding_oracle).
"""
import pytest
from hypothesis import given, strategies as st

from morseflow.singularity import (
    AdeLabel,
    FunctionProfile,
    InvalidFamilyIndex,
    LabelError,
    MalformedLabel,
    SignArityMismatch,
    SingularityClass,
    check_profile_consistency,
    classify,
    format_label,
    gradient_index,
    is_degenerate_extremum,
    parse_label,
    profile_counts,
)
from winding_oracle import all_valid_labels, normal_form, winding_number


# ---------------------------------------------------------------------------
# parsing


def test_parse_examples():
    assert parse_label("A1:+,+") == AdeLabel("A", 1, "+", "+")
    assert parse_label("E7:-") == AdeLabel("E", 7, "-")
    with pytest.raises(InvalidFamilyIndex):
        parse_label("E5:+")


def test_parse_a1_minus_aliases():
    saddle = AdeLabel("A", 1, "-")
    assert parse_label("A1:-") == saddle
    assert parse_label("A1:-,+") == saddle
    assert parse_label("A1:-,-") == saddle


@pytest.mark.parametrize("text,err", [
    ("", MalformedLabel),
    ("A", MalformedLabel),
    ("A3:+,?", MalformedLabel),
    ("A1:-\n", MalformedLabel),
    ("A\u0661:-", MalformedLabel),
    ("A\uff13:+,-", MalformedLabel),
    ("Q3:+", InvalidFamilyIndex),
    ("A0:+,+", InvalidFamilyIndex),
    ("D3:+", InvalidFamilyIndex),
    ("E9:+", InvalidFamilyIndex),
    ("A3", SignArityMismatch),
    ("A3:+", SignArityMismatch),
    ("A2:+,-", SignArityMismatch),
    ("D4:+,+", SignArityMismatch),
    ("E6", SignArityMismatch),
])
def test_parse_rejects(text, err):
    with pytest.raises(err):
        parse_label(text)


def test_round_trip_all_labels():
    for label in all_valid_labels():
        assert parse_label(format_label(label)) == label


@given(st.sampled_from(all_valid_labels(13)))
def test_round_trip_property(label):
    assert parse_label(format_label(label)) == label


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify(AdeLabel("A", 3, "+", "+")) is SingularityClass.MIN
    assert classify(AdeLabel("D", 4, "-")) is SingularityClass.MULTI
    assert classify(AdeLabel("E", 6, "-")) is SingularityClass.QUASI


def test_classify_is_total_partition():
    for label in all_valid_labels():
        assert isinstance(classify(label), SingularityClass)


def test_class_table():
    assert classify(parse_label("A1:+,+")) is SingularityClass.MIN
    assert classify(parse_label("A1:+,-")) is SingularityClass.MAX
    assert classify(parse_label("A1:-")) is SingularityClass.SADDLE
    assert classify(parse_label("A5:-,+")) is SingularityClass.SADDLE
    assert classify(parse_label("A2:-")) is SingularityClass.QUASI
    assert classify(parse_label("D5:+")) is SingularityClass.SADDLE
    assert classify(parse_label("D6:+")) is SingularityClass.QUASI
    assert classify(parse_label("D6:-")) is SingularityClass.MULTI
    assert classify(parse_label("E7:+")) is SingularityClass.SADDLE
    assert classify(parse_label("E8:-")) is SingularityClass.QUASI


def test_degenerate_extremum():
    assert not is_degenerate_extremum(AdeLabel("A", 1, "+", "-"))
    assert is_degenerate_extremum(AdeLabel("A", 3, "+", "+"))
    assert not is_degenerate_extremum(AdeLabel("E", 7, "+"))
    for label in all_valid_labels():
        if is_degenerate_extremum(label):
            assert classify(label) in (SingularityClass.MIN, SingularityClass.MAX)


def test_degenerate_extremum_hessian_oracle():
    # a degenerate extremum is exactly an extremum whose normal form has a
    # singular Hessian at the origin
    for label in all_valid_labels():
        if classify(label) not in (SingularityClass.MIN, SingularityClass.MAX):
            continue
        monomials = normal_form(label)
        fxx = sum(2 * c for c, i, j in monomials if (i, j) == (2, 0))
        fyy = sum(2 * c for c, i, j in monomials if (i, j) == (0, 2))
        fxy = sum(c for c, i, j in monomials if (i, j) == (1, 1))
        degenerate = fxx * fyy - fxy * fxy == 0
        assert degenerate == is_degenerate_extremum(label), label


# ---------------------------------------------------------------------------
# gradient indices against the winding-number oracle


def test_gradient_index_examples():
    assert gradient_index(AdeLabel("A", 1, "-")) == -1
    assert gradient_index(AdeLabel("D", 4, "-")) == -2
    assert gradient_index(AdeLabel("A", 2, "+")) == 0


@pytest.mark.parametrize("label", all_valid_labels(), ids=format_label)
def test_gradient_index_winding_oracle(label):
    w = winding_number(normal_form(label))
    assert abs(w - round(w)) < 0.01
    assert round(w) == gradient_index(label)


def test_index_depends_only_on_class():
    by_class = {}
    for label in all_valid_labels():
        by_class.setdefault(classify(label), set()).add(gradient_index(label))
    assert all(len(vals) == 1 for vals in by_class.values())
    assert by_class[SingularityClass.MIN] == {1}
    assert by_class[SingularityClass.MAX] == {1}
    assert by_class[SingularityClass.SADDLE] == {-1}
    assert by_class[SingularityClass.QUASI] == {0}
    assert by_class[SingularityClass.MULTI] == {-2}


# ---------------------------------------------------------------------------
# profiles


def profile(genus, *texts):
    return FunctionProfile(genus, tuple(parse_label(t) for t in texts))


GENUS2_MORSE = ("A1:+,+", "A1:+,-", "A1:-", "A1:-", "A1:-", "A1:-")


def test_profile_counts_examples():
    c = profile_counts(profile(2, *GENUS2_MORSE))
    assert (c.total, c.minima, c.maxima, c.extrema) == (6, 1, 1, 2)
    assert (c.degenerate_extrema, c.saddles, c.quasi_saddles, c.multi_saddles) == (0, 4, 0, 0)

    c = profile_counts(profile(0, "A1:+,+", "A1:+,-"))
    assert (c.total, c.minima, c.maxima, c.extrema, c.saddles) == (2, 1, 1, 2, 0)

    c = profile_counts(profile(0, "A3:+,+", "A1:+,-", "D4:-"))
    assert (c.total, c.minima, c.maxima, c.extrema) == (3, 1, 1, 2)
    assert (c.degenerate_extrema, c.saddles, c.quasi_saddles, c.multi_saddles) == (1, 0, 0, 1)


def test_counts_add_up():
    for p in [profile(2, *GENUS2_MORSE), profile(0, "A3:+,+", "A1:+,-", "D4:-"),
              profile(1, "A2:+", "E7:-", "A1:+,+", "A1:+,-")]:
        c = profile_counts(p)
        assert c.total == c.minima + c.maxima + c.saddles + c.quasi_saddles + c.multi_saddles
        assert c.degenerate_extrema <= c.extrema


def test_consistency_examples():
    assert check_profile_consistency(profile(2, *GENUS2_MORSE)) == []
    assert check_profile_consistency(profile(0, "A1:+,+", "A1:+,-")) == []
    bad = check_profile_consistency(profile(0, "A1:+,+", "A1:+,-", "A1:-"))
    assert len(bad) == 1 and "index sum 1" in bad[0]


def test_consistency_missing_extrema():
    bad = check_profile_consistency(profile(0, "A1:+,+", "A1:+,+"))
    assert any("maximum" in v for v in bad)


def test_profile_json_round_trip():
    p = profile(1, "A3:+,+", "A1:+,-", "D5:-", "A1:-")
    assert FunctionProfile.from_json(p.to_json()) == p
    with pytest.raises(LabelError):
        FunctionProfile.from_json({"genus": "x", "labels": []})


@pytest.mark.parametrize("obj", [
    {"genus": -1, "labels": []},
    {"genus": 0, "labels": 5},
    {"genus": 0, "labels": [5]},
    {"genus": 0, "labels": {"A1:+,+": 1}},
    {"genus": 0, "labels": ["A" + "1" * 5000 + ":+,-"]},
])
def test_profile_json_rejects_malformed_values(obj):
    with pytest.raises(LabelError):
        FunctionProfile.from_json(obj)
