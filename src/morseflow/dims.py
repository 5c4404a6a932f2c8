"""Numeric invariants of the classifying manifolds of function and flow spaces.

Given a function profile (genus + critical-point multiset) this module
evaluates: the number of marked points needed to rigidify the diffeomorphism
action, the dimension of the classifying manifold of the function space, the
dimension of its normalized-value submanifold (extrema pinned to +-1, saddle
values summing to zero), the dimension of the flow orbit space for Morse
profiles, the dimension of the orbit fibration, the dimension of the
configuration-space intersections of the two transversal fibrations, and the
homotopy type of fibres/strata.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .singularity import FunctionProfile, ProfileCounts, _violations, profile_counts


class InvalidEulerCharacteristic(ValueError):
    """chi must be 2 - 2*genus for a closed orientable surface."""


class NonMorseProfile(ValueError):
    """Operation is defined for Morse profiles only."""


class HomotopyType(Enum):
    POINT = "point"
    TORUS = "T2"
    SO3_MOD_G = "SO3/G"
    SPHERE = "S2"


def _check_chi(chi: int) -> None:
    if chi % 2 != 0 or chi > 2:
        raise InvalidEulerCharacteristic(
            f"chi must be even and <= 2 (closed orientable surface), got {chi}"
        )


def num_marked_points(chi: int) -> int:
    """Marked points rigidifying the diffeomorphism action: max(0, chi + 1)."""
    _check_chi(chi)
    return max(0, chi + 1)


def classifying_dim(profile: FunctionProfile) -> int:
    """Dimension of the classifying manifold of the space of functions."""
    return report(profile).classifying_dim


def normalized_classifying_dim(profile: FunctionProfile) -> int:
    """Dimension of the normalized-value submanifold: classifying_dim minus
    one per extremum (pinned to +-1) and one for the zero saddle-value sum."""
    return report(profile).normalized_classifying_dim


def _morse_report(profile: FunctionProfile) -> DimensionReport:
    """The report of a Morse profile with both extremum types, the guard of
    the Morse-only dimensions."""
    counts = profile_counts(profile)
    if not profile.is_morse():
        raise NonMorseProfile(f"profile contains degenerate labels: {profile.to_json()['labels']}")
    if counts.minima < 1 or counts.maxima < 1:
        raise ValueError("Morse profile must have at least one minimum and one maximum")
    return _report(profile, counts)


def flow_orbit_space_dim(profile: FunctionProfile) -> int:
    """Dimension of the orbit space of gradient-like flows with enumerated
    extrema: twice the saddle count.  Morse profiles only."""
    return _morse_report(profile).orbit_space_dim


def orbit_fibration_dim(profile: FunctionProfile) -> int:
    """Dimension of the fibration by isotopy orbits on the normalized
    classifying manifold: saddles + 2s - 1.  Morse profiles only."""
    return _morse_report(profile).orbit_fibration_dim


def config_space_dim(chi: int) -> int:
    """Dimension of the fibre intersections (s-point configuration space): 2s."""
    return 2 * num_marked_points(chi)


def orbit_homotopy_type(chi: int, nsaddles: int) -> HomotopyType:
    """Homotopy type of fibres and strata, determined by (chi, saddle count)."""
    _check_chi(chi)
    if chi < 0:
        return HomotopyType.POINT
    if chi == 0:
        return HomotopyType.TORUS
    return HomotopyType.SO3_MOD_G if nsaddles > 0 else HomotopyType.SPHERE


class DimensionReport(NamedTuple):
    """All invariants for one profile.

    orbit_space_dim is None for non-Morse profiles.  For non-Morse profiles
    orbit_fibration_dim and homotopy_type are evaluated formally from the
    Euler characteristic and the saddle-class count (the underlying results
    are stated for Morse flows); such fields are listed in formal_fields.
    violations carries the realizability check results without blocking the
    formula evaluation.
    """

    marked_points: int
    classifying_dim: int
    normalized_classifying_dim: int
    orbit_space_dim: int | None
    orbit_fibration_dim: int
    config_space_dim: int
    homotopy_type: HomotopyType
    formal_fields: tuple[str, ...]
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return dict(self._asdict(), homotopy_type=self.homotopy_type.value,
                    formal_fields=list(self.formal_fields), violations=list(self.violations))


def report(profile: FunctionProfile) -> DimensionReport:
    """Evaluate every invariant for the profile.

    The formulas are evaluated even when the realizability check fails (the
    failed conditions are reported in violations); callers that require a
    realizable profile should inspect that field.
    """
    return _report(profile, profile_counts(profile))


def _report(profile: FunctionProfile, c: ProfileCounts) -> DimensionReport:
    chi = profile.euler_characteristic
    morse = profile.is_morse()
    s = num_marked_points(chi)
    classifying = (2 * s + c.total + c.degenerate_extrema + c.quasi_saddles
                   + 2 * c.saddles + 3 * c.multi_saddles)
    return DimensionReport(
        marked_points=s,
        classifying_dim=classifying,
        normalized_classifying_dim=classifying - c.extrema - 1,
        orbit_space_dim=2 * c.saddles if morse else None,
        orbit_fibration_dim=c.saddles + 2 * s - 1,
        config_space_dim=config_space_dim(chi),
        homotopy_type=orbit_homotopy_type(chi, c.saddles),
        formal_fields=() if morse else ("orbit_fibration_dim", "homotopy_type"),
        violations=tuple(_violations(profile, c)),
    )
