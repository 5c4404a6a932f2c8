"""Numerical oracle for the gradient indices of the ADE normal forms.

all_valid_labels lists every valid label up to an index bound, normal_form
gives a representative polynomial per label, and winding_number integrates
the rotation of its gradient around a small circle.  Imports no test
framework, so tests/test_singularity.py and
scripts/confirm_gradient_indices.py share it.
"""
import math

from morseflow.singularity import AdeLabel


def all_valid_labels(max_mu=9):
    """Every valid label with index at most max_mu."""
    labels = [AdeLabel("A", 1, "-")]
    for mu in range(1, max_mu + 1, 2):
        for s2 in "+-":
            labels.append(AdeLabel("A", mu, "+", s2))
            if mu >= 3:
                labels.append(AdeLabel("A", mu, "-", s2))
    for mu in range(2, max_mu + 1, 2):
        for s in "+-":
            labels.append(AdeLabel("A", mu, s))
    for mu in range(4, max_mu + 1):
        for s in "+-":
            labels.append(AdeLabel("D", mu, s))
    for mu in (6, 7, 8):
        for s in "+-":
            labels.append(AdeLabel("E", mu, s))
    return labels


def normal_form(label: AdeLabel):
    """Representative polynomial as (coefficient, x-power, y-power) monomials."""
    f, mu = label.family, label.mu
    s1 = 1 if label.sign1 == "+" else -1
    if f == "A":
        if mu % 2 == 1:
            s2 = 1 if label.sign2 in (None, "+") else -1
            return [(s2, mu + 1, 0), (s2 * s1, 0, 2)]
        return [(1, mu + 1, 0), (s1, 0, 2)]
    if f == "D":
        return [(1, 2, 1), (s1, 0, mu - 1)]
    if mu == 6:
        return [(1, 3, 0), (s1, 0, 4)]
    if mu == 7:
        return [(s1, 3, 0), (s1, 1, 3)]
    return [(1, 3, 0), (s1, 0, 5)]


def winding_number(monomials, radius=0.75, samples=8192):
    """Total rotation of the gradient along a counterclockwise circle."""

    def gradient(x, y):
        gx = sum(c * i * x ** (i - 1) * y ** j for c, i, j in monomials if i)
        gy = sum(c * j * x ** i * y ** (j - 1) for c, i, j in monomials if j)
        return gx, gy

    total = 0.0
    prev = None
    for step in range(samples + 1):
        theta = 2.0 * math.pi * step / samples
        gx, gy = gradient(radius * math.cos(theta), radius * math.sin(theta))
        assert gx != 0.0 or gy != 0.0
        angle = math.atan2(gy, gx)
        if prev is not None:
            delta = angle - prev
            if delta > math.pi:
                delta -= 2.0 * math.pi
            elif delta < -math.pi:
                delta += 2.0 * math.pi
            total += delta
        prev = angle
    return total / (2.0 * math.pi)
