"""One morseflow CLI call with the benchmark's tracer installed.

Usage: python bench/traced_cli.py SPANS_JSON ARG...

Stdout and the exit status are those of `python -m morseflow ARG...`.  The
import of morseflow.cli and the cli.main call are spans of their own; the
spans are written to SPANS_JSON when the call returns.
"""
import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    with t.span("cli.import"):
        from morseflow import cli
    with tracer.installed(t), t.span(f"cli.main.{argv[0]}"):
        status = cli.main(argv)
    sys.stdout.flush()
    t.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
