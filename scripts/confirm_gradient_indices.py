#!/usr/bin/env python3
"""Confirm the per-class gradient indices by the winding-number oracle.

For every valid label up to a chosen index bound, integrate the rotation of
the gradient of a representative normal-form polynomial around a circle and
compare with the class index table.
"""
import argparse
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "tests"))

from morseflow.singularity import classify, format_label, gradient_index
from winding_oracle import all_valid_labels, normal_form, winding_number


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-mu", type=int, default=9)
    parser.add_argument("--samples", type=int, default=8192)
    args = parser.parse_args()

    failures = 0
    print(f"{'label':<10} {'class':<14} {'index':>5} {'winding':>9}")
    for label in all_valid_labels(args.max_mu):
        w = winding_number(normal_form(label), samples=args.samples)
        expected = gradient_index(label)
        ok = abs(w - expected) < 0.01
        failures += 0 if ok else 1
        marker = "" if ok else "   << MISMATCH"
        print(f"{format_label(label):<10} {classify(label).value:<14} "
              f"{expected:>5} {w:>9.4f}{marker}")
    if failures:
        raise SystemExit(f"{failures} mismatches")
    print("all indices confirmed")


if __name__ == "__main__":
    main()
