"""Critical-point types of smooth functions on closed orientable surfaces.

A critical point is recorded as an ADE label (family A, D or E, an index mu,
and one or two signs).  Every valid label falls into exactly one of five
topological classes: local minimum, local maximum, saddle, quasi-saddle
(index 0) and multi-saddle (index -2).  A function profile is a genus plus a
multiset of labels; the module also provides the necessary realizability
checks (extrema exist, gradient indices sum to the Euler characteristic).
"""
from __future__ import annotations

import re
from collections import Counter, namedtuple
from enum import Enum
from typing import NamedTuple


class LabelError(ValueError):
    """Base error for invalid ADE label text or field combinations."""


class MalformedLabel(LabelError):
    """Text does not match the label grammar at all, or a profile object
    does not fit its schema."""


class SignArityMismatch(LabelError):
    """Wrong number of signs for the given family and index."""


class InvalidFamilyIndex(LabelError):
    """The (family, mu) combination does not name a singularity type."""


class SingularityClass(Enum):
    MIN = "min"
    MAX = "max"
    SADDLE = "saddle"
    QUASI = "quasi-saddle"
    MULTI = "multi-saddle"


_SIGNS = ("+", "-")

_LABEL_RE = re.compile(r"([A-Za-z])([0-9]+)(?::([+-])(?:,([+-]))?)?")


class AdeLabel(namedtuple("AdeLabel", "family mu sign1 sign2")):
    """One critical-point type: family 'A'|'D'|'E', index mu, signs.

    Odd-index A labels carry two signs (except the Morse saddle A1 with a
    single '-'); even-index A labels, D labels (mu >= 4) and E labels
    (mu in 6..8) carry exactly one sign.
    """

    __slots__ = ()

    def __new__(cls, family: str, mu: int, sign1: str, sign2: str | None = None):
        if family not in ("A", "D", "E"):
            raise InvalidFamilyIndex(f"unknown family {family!r}")
        if sign1 not in _SIGNS or sign2 not in _SIGNS + (None,):
            raise MalformedLabel(f"signs must be '+' or '-', got {sign1!r}, {sign2!r}")
        if family == "A":
            if mu < 1:
                raise InvalidFamilyIndex(f"A{mu}: index must be >= 1")
            if mu % 2 == 1:
                if mu == 1 and sign1 == "-":
                    if sign2 is not None:
                        raise SignArityMismatch("A1:- is a Morse saddle and carries a single sign")
                elif sign2 is None:
                    raise SignArityMismatch(f"A{mu} with sign1={sign1} needs two signs")
            elif sign2 is not None:
                raise SignArityMismatch(f"A{mu} (even index) carries exactly one sign")
        elif family == "D":
            if mu < 4:
                raise InvalidFamilyIndex(f"D{mu}: family D starts at D4")
            if sign2 is not None:
                raise SignArityMismatch(f"D{mu} carries exactly one sign")
        else:
            if mu not in (6, 7, 8):
                raise InvalidFamilyIndex(f"E{mu}: family E is restricted to E6, E7, E8")
            if sign2 is not None:
                raise SignArityMismatch(f"E{mu} carries exactly one sign")
        return super().__new__(cls, family, mu, sign1, sign2)

    def __str__(self):
        return format_label(self)


def parse_label(text: str) -> AdeLabel:
    """Parse a label string like "A3:+,-" or "E7:-".

    "A1:-,+" and "A1:-,-" are accepted as aliases of the Morse saddle "A1:-".
    """
    m = _LABEL_RE.fullmatch(text)
    if m is None:
        raise MalformedLabel(f"cannot parse label {text!r}")
    family, digits, sign1, sign2 = m.groups()
    try:
        mu = int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise MalformedLabel(f"index of label {text!r} is too long") from None
    if family not in ("A", "D", "E"):
        raise InvalidFamilyIndex(f"unknown family {family!r} in {text!r}")
    if sign1 is None:
        raise SignArityMismatch(f"{text!r} has no sign part")
    if family == "A" and mu == 1 and sign1 == "-":
        sign2 = None  # alias: A1:-,± means the Morse saddle A1:-
    return AdeLabel(family, mu, sign1, sign2)


def format_label(label: AdeLabel) -> str:
    """Inverse of parse_label."""
    text = f"{label.family}{label.mu}:{label.sign1}"
    if label.sign2 is not None:
        text += f",{label.sign2}"
    return text


def classify(label: AdeLabel) -> SingularityClass:
    """Topological class of a critical point, total on valid labels."""
    f, mu = label.family, label.mu
    if f == "A":
        if mu % 2 == 0:
            return SingularityClass.QUASI
        if label.sign1 == "-":
            return SingularityClass.SADDLE
        return SingularityClass.MIN if label.sign2 == "+" else SingularityClass.MAX
    if f == "D":
        if mu % 2 == 1:
            return SingularityClass.SADDLE
        return SingularityClass.QUASI if label.sign1 == "+" else SingularityClass.MULTI
    return SingularityClass.SADDLE if mu == 7 else SingularityClass.QUASI


def is_extremum(label: AdeLabel) -> bool:
    return classify(label) in (SingularityClass.MIN, SingularityClass.MAX)


def is_degenerate_extremum(label: AdeLabel) -> bool:
    """True for non-Morse extrema, i.e. odd A labels with mu >= 3 and sign1 = '+'."""
    return is_extremum(label) and label.mu >= 3


def is_morse(label: AdeLabel) -> bool:
    """Morse types are exactly the three A1 labels."""
    return label.mu == 1


_CLASS_INDEX = {
    SingularityClass.MIN: 1,
    SingularityClass.MAX: 1,
    SingularityClass.SADDLE: -1,
    SingularityClass.QUASI: 0,
    SingularityClass.MULTI: -2,
}


def gradient_index(label: AdeLabel) -> int:
    """Index of the gradient field of the normal form around the point.

    Depends only on the class: +1 for extrema, -1 for saddles, 0 for
    quasi-saddles, -2 for multi-saddles.  Confirmed against a numerical
    winding-number oracle in the test suite.
    """
    return _CLASS_INDEX[classify(label)]


class FunctionProfile(namedtuple("FunctionProfile", "genus labels")):
    """Genus of the surface plus the multiset of critical-point labels
    (any iterable of AdeLabel, stored as a tuple)."""

    __slots__ = ()

    def __new__(cls, genus: int, labels):
        if genus < 0:
            raise MalformedLabel(f"genus must be >= 0, got {genus}")
        return super().__new__(cls, genus, tuple(labels))

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus

    def is_morse(self) -> bool:
        return all(is_morse(l) for l in self.labels)

    @classmethod
    def from_json(cls, obj: dict) -> "FunctionProfile":
        if not isinstance(obj, dict) or "genus" not in obj or "labels" not in obj:
            raise MalformedLabel('profile object needs "genus" and "labels" keys')
        genus = obj["genus"]
        if not isinstance(genus, int) or isinstance(genus, bool):
            raise MalformedLabel(f'"genus" must be an integer, got {genus!r}')
        labels = obj["labels"]
        if not isinstance(labels, list):
            raise MalformedLabel(f'"labels" must be a list, got {type(labels).__name__}')
        for text in labels:
            if not isinstance(text, str):
                raise MalformedLabel(f"label {text!r} is not a string")
        return cls(genus, tuple(parse_label(t) for t in labels))

    def to_json(self) -> dict:
        return {"genus": self.genus, "labels": [format_label(l) for l in self.labels]}


class ProfileCounts(NamedTuple):
    """Per-class cardinalities of a profile's label multiset."""

    total: int
    minima: int
    maxima: int
    extrema: int
    degenerate_extrema: int
    saddles: int
    quasi_saddles: int
    multi_saddles: int


def profile_counts(profile: FunctionProfile) -> ProfileCounts:
    by_class = Counter(classify(l) for l in profile.labels)
    minima = by_class[SingularityClass.MIN]
    maxima = by_class[SingularityClass.MAX]
    return ProfileCounts(
        total=len(profile.labels),
        minima=minima,
        maxima=maxima,
        extrema=minima + maxima,
        degenerate_extrema=sum(1 for l in profile.labels if is_degenerate_extremum(l)),
        saddles=by_class[SingularityClass.SADDLE],
        quasi_saddles=by_class[SingularityClass.QUASI],
        multi_saddles=by_class[SingularityClass.MULTI],
    )


def check_profile_consistency(profile: FunctionProfile) -> list[str]:
    """Necessary realizability conditions; empty list means consistent.

    (a) a smooth function on a closed surface attains a minimum and a
    maximum; (b) gradient indices must sum to the Euler characteristic.
    """
    return _violations(profile, profile_counts(profile))


def _violations(profile: FunctionProfile, counts: ProfileCounts) -> list[str]:
    violations = []
    if counts.minima < 1:
        violations.append("profile has no local minimum")
    if counts.maxima < 1:
        violations.append("profile has no local maximum")
    index_sum = sum(gradient_index(l) for l in profile.labels)
    chi = profile.euler_characteristic
    if index_sum != chi:
        violations.append(
            f"gradient index sum {index_sum} != Euler characteristic {chi}"
        )
    return violations
