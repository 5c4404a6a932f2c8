"""Record the outputs the benchmark compares against.

    python3 bench/record_references.py

Runs `python -m morseflow enum --k 3` and every cli case once and stores
their stdout and exit status, with the SHA-256 of all k <= 3 canonical
codes, in bench/references.json.  Record only on a commit whose outputs are
known to be right: the benchmark fails every op whose output differs.
"""
import json
import sys

import run


def main() -> int:
    run._import_program()
    calls = []
    for argv in [run.EnumWorkload.ARGV] + run.inputs.cli_cases():
        status, stdout = run.run_cli(argv)
        calls.append({"argv": list(argv), "returncode": status, "stdout": stdout.decode()})
    refs = {"codes_sha256": run.codes_sha256(), "calls": calls}
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"recorded {len(calls)} calls to {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
