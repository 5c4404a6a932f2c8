"""The morseflow benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from src/.
Workloads (one caller, closed loop, one child process at a time):

  enum    one fresh `python -m morseflow enum --k 3`; stdout must match the
          recorded bytes, and the SHA-256 of all k <= 3 canonical codes is
          checked once per run.
  corpus  one k <= 3 class representative, freshly relabeled, through the
          per-flow pipeline; about one op in 20 is a random ADE profile
          through dims.report.
  large   one flow of 200-400 darts, grown from a fixture by saddle
          insertion, through the same pipeline.
  cli     one fresh `python -m morseflow <cmd>` on a fixture; stdout and
          exit status must match the recorded ones.

With --trace 0 the loop runs untraced for S seconds and the last stdout line
carries the end-to-end metrics.  setup_s is the median CPU time of
SETUP_REPS set-ups from fresh state; op times are wall times of each op
alone, run once.  Corpus and large ops each get a freshly relabeled input,
so no two timed ops share one.  With --trace 1 the run repeats a fixed pass of ops, each op
untraced and then traced, until S seconds have passed; the last line
carries the per-layer metrics and the spans go to .bench_out/.  The line
before the last holds run details: machine, start-up time, tail percentile,
failures and, when traced, per-module rows and the deterministic counters.
The exit status is non-zero when any op failed or a check did not hold.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"
PYTHON = sys.executable
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

SETUP_REPS = 5
STARTUP_PROBES = 5
# op_tail_ms is the median of the tails of consecutive blocks of
# TAIL_BLOCK_OPS ops (about the 98th percentile of each), or the tail of the whole
# run when it has fewer ops.  On corpus (~8000 ops) the whole-run tail is the
# 99.87th percentile, which only the machine's stalls reach: on a shared
# 2-vCPU machine it read 13-32 ms in five runs; in five others it read
# 3.9-6.1 ms and the block median 2.37-2.48 ms.
TAIL_BLOCK_OPS = 500
# Slack for float rounding when span intervals are compared.
SPAN_EPS_S = 1e-6
# The op spans of a traced pass must cover at least this share of the wall
# time the loop measured around the traced ops.
MIN_SPAN_SHARE = 0.95

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mib": "MiB",
    "ok_share": "share",
}

CLI_COMMANDS = ("validate", "check", "energy", "canon", "dims", "export-dot", "enum")
_TIMED_LAYERS = (
    "flowgraph.build", "flowgraph.faces", "flowgraph.face_coherence_check",
    "flowgraph.euler_characteristic", "flowgraph.reverse",
    "gradcheck.check_gradient_like", "gradcheck.saddle_digraph", "gradcheck.build_energy",
    "equiv.canonical_code", "equiv.canonical_code_mirror", "dims.report",
)
PER_LAYER = {
    "enumeration.generator.self_ms": "ms",
    "enumeration.enumerate_classes.k1.ms": "ms",
    "enumeration.enumerate_classes.k2.ms": "ms",
    "enumeration.enumerate_classes.k3.ms": "ms",
    "enumeration.count_table.ms": "ms",
    "enumeration.classes.k1": "count",
    "enumeration.classes.k2": "count",
    "enumeration.classes.k3": "count",
    "enumeration.duplicates": "count",
    **{f"{layer}.{stat}": unit for layer in _TIMED_LAYERS
       for stat, unit in (("calls", "count"), ("us_per_call", "us"))},
    "equiv.canonical_code.darts": "count",
    "equiv.canonical_code_mirror.darts": "count",
    "flowgraph.faces.calls_per_op": "calls/op",
    "gradcheck.check_gradient_like.self_ms": "ms",
    "gradcheck.witness_cycle.len": "count",
    "cli.interp_startup_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.main.{cmd}.us": "us" for cmd in CLI_COMMANDS},
    "bench.trace_overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# helpers


def run_cli(argv, traced_spans: str | None = None) -> tuple[int, bytes]:
    """`python -m morseflow ARGV`, or its traced form when traced_spans names
    the file for the child's spans."""
    if traced_spans is None:
        return run_child([PYTHON, "-m", "morseflow", *argv])
    return run_child([PYTHON, str(BENCH / "traced_cli.py"), traced_spans, *argv])


def run_child(cmd) -> tuple[int, bytes]:
    """One child process; waits for it (killing it after 120 s) and returns
    (exit status, stdout)."""
    done = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=120)
    return done.returncode, done.stdout


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def codes_sha256() -> str:
    """SHA-256 of every k <= 3 canonical code string, one per line."""
    from morseflow import enumeration

    text = "\n".join(rec.code.as_string() for k in range(enumeration.MAX_SADDLES + 1)
                     for rec in enumeration.enumerate_classes(k))
    return hashlib.sha256(text.encode()).hexdigest()


def check_codes(want: str) -> list[str]:
    got = codes_sha256()
    return [] if got == want else [f"k <= 3 canonical codes hash {got}, reference {want}"]


def load_references() -> dict:
    refs = json.loads(REFERENCES.read_text())
    return {
        "codes_sha256": refs["codes_sha256"],
        "calls": {tuple(c["argv"]): (c["returncode"], c["stdout"].encode()) for c in refs["calls"]},
    }


def startup_probe(code: str | None) -> float:
    """Median wall ms of `python -c pass`, or of importing code minus that."""
    def wall(src):
        start = time.perf_counter()
        subprocess.run([PYTHON, "-c", src], cwd=ROOT, env=ENV, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        return (time.perf_counter() - start) * 1000
    bare, loaded = [], []
    for _ in range(STARTUP_PROBES):
        bare.append(wall("pass"))
        if code:
            loaded.append(wall(code))
    if code:
        return statistics.median(loaded) - statistics.median(bare)
    return statistics.median(bare)


def tail(samples: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it: (value, pct)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def blocks(samples: list, count: int) -> list:
    """samples cut into count consecutive blocks of (nearly) equal size."""
    return [samples[len(samples) * i // count:len(samples) * (i + 1) // count]
            for i in range(count)]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One op kind.  setup() is the timed set-up; ops() is the untraced op
    stream and pass_ops() the fixed pass of a traced run; run() is the timed
    op; check() returns a failure message or None; signature() is the part of
    a result that traced and untraced runs must agree on."""

    in_process = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def verify(self) -> list[str]:
        return []

    def cpu_s(self) -> float:
        return time.process_time() if self.in_process else children_cpu_s()

    def peak_rss_mib(self) -> float:
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        return resource.getrusage(who).ru_maxrss / 1024

    def run_traced(self, op, tracer):
        with tracer.span("op"):
            return self.run(op)


class SubprocessWorkload(Workload):
    in_process = False

    def setup(self) -> None:
        """Load the references and make one warm-up call, so the bytecode and
        file caches are filled before the timed loop."""
        self.refs = load_references()
        if run_cli(["--help"])[0] != 0:
            raise RuntimeError("warm-up call `python -m morseflow --help` failed")

    def run(self, op):
        return run_cli(op)

    def run_traced(self, op, tracer):
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"child-spans-{os.getpid()}.json"
        with tracer.span("op") as index:
            result = run_cli(op, str(spans_path))
        tracer.adopt(json.loads(spans_path.read_text()), index)
        spans_path.unlink()
        return result

    def check(self, op, result):
        want = self.refs["calls"].get(tuple(op))
        if want is None:
            return f"no reference for {' '.join(op)}"
        if result != want:
            return f"{' '.join(op)}: exit {result[0]} / stdout differ from the reference"
        return None

    def signature(self, op, result):
        return result


class EnumWorkload(SubprocessWorkload):
    ARGV = ("enum", "--k", "3")

    def ops(self, rng):
        while True:
            yield self.ARGV

    def pass_ops(self, rng):
        return [self.ARGV]

    def verify(self):
        return check_codes(self.refs["codes_sha256"])


class CliWorkload(SubprocessWorkload):
    def ops(self, rng):
        while True:
            yield from inputs.cli_pass(rng)

    def pass_ops(self, rng):
        return inputs.cli_pass(rng)


def flow_pipeline(desc: dict):
    """The per-flow op: build, the validate fields, the verdict, the energy
    witness when gradient-like, both canonical codes with their hashes, and
    the time reversal."""
    flow = flowgraph.build(desc)
    fields = (
        flow.counts(), flowgraph.euler_characteristic(flow), len(flowgraph.faces(flow)),
        flowgraph.genus(flow), flowgraph.face_coherence_check(flow),
        flowgraph.poincare_hopf_check(flow),
    )
    report = gradcheck.check_gradient_like(flow)
    energy = gradcheck.build_energy(flow) if report.verdict else None
    code = equiv.canonical_code(flow)
    mirror = equiv.canonical_code(flow, include_mirror=True)
    hashes = (code.stable_hash(), mirror.stable_hash())
    return flow, fields, report, energy, code, mirror, hashes, flowgraph.reverse(flow)


def profile_op(profile: dict) -> dict:
    return dims.report(FunctionProfile.from_json(profile)).to_json()


class InProcessWorkload(Workload):
    def run(self, op):
        kind, item, desc = op
        return flow_pipeline(desc) if kind == "flow" else profile_op(item.profile)

    def check(self, op, result):
        kind, item, _ = op
        if kind == "profile":
            wrong = sorted(k for k, v in item.expected.items() if result[k] != v)
            return f"profile {item.profile}: {wrong} differ" if wrong else None
        flow, fields, report, energy = result[:4]
        _, _, _, genus, coherent, poincare_hopf = fields
        problems = []
        if genus != item.genus or not coherent or not poincare_hopf:
            problems.append(f"genus {genus}, coherent {coherent}, poincare-hopf {poincare_hopf}")
        if report.verdict != item.gradient_like:
            problems.append(f"verdict {report.verdict}")
        if energy is not None and gradcheck.energy_violations(flow, energy):
            problems.append("energy witness violates its invariants")
        problems += self.check_flow(item, result)
        return f"{item}: {'; '.join(problems)}" if problems else None

    def signature(self, op, result):
        if op[0] == "profile":
            return result
        _, fields, report, energy, code, mirror, hashes, back = result
        return (fields, report.to_json(), energy and energy.to_json(), code.code,
                mirror.code, hashes, back.to_description())


class CorpusWorkload(InProcessWorkload):
    def setup(self):
        self.classes = inputs.corpus_classes()

    def verify(self):
        return check_codes(load_references()["codes_sha256"])

    def ops(self, rng):
        return inputs.corpus_ops(self.classes, rng)

    def pass_ops(self, rng):
        return inputs.corpus_pass(self.classes, rng)

    @staticmethod
    def check_flow(item, result):
        flow, _, _, _, code, _, _, back = result
        problems = []
        if code.code != item.code:
            problems.append("canonical code differs from the class's")
        if flow.counts() != item.counts:
            problems.append(f"counts {flow.counts()}")
        if equiv.canonical_code(flowgraph.reverse(back)).code != code.code:
            problems.append("reverse(reverse(f)) has another code")
        return problems


class LargeWorkload(InProcessWorkload):
    def setup(self):
        fixtures = {n: json.loads((FIXTURES / f"{n}.json").read_text())
                    for n in ("chain2", "torus", "cyclic")}
        self.items = inputs.large_inputs(fixtures, random.Random(self.seed))

    def ops(self, rng):
        while True:
            yield from inputs.large_pass(self.items, rng)

    def pass_ops(self, rng):
        return inputs.large_pass(self.items, rng)

    @staticmethod
    def check_flow(item, result):
        report = result[2]
        got = len(report.witness_cycle) if report.witness_cycle else None
        return [] if got == item.cycle_len else [f"witness cycle length {got}"]


WORKLOADS = {"enum": EnumWorkload, "corpus": CorpusWorkload,
             "large": LargeWorkload, "cli": CliWorkload}


# ---------------------------------------------------------------------------
# runs


def timed_setups(workload: Workload, args) -> list[float]:
    """SETUP_REPS set-up times, each from fresh state: in-process workloads
    time theirs in child processes and then set up here untimed."""
    times = []
    for _ in range(SETUP_REPS):
        if workload.in_process:
            status, out = run_child([PYTHON, str(Path(__file__).resolve()), "--workload",
                                     args.workload, "--seed", str(args.seed), "--setup-only"])
            if status != 0:
                raise RuntimeError(f"set-up child exited with status {status}")
            times.append(json.loads(out.decode().splitlines()[-1])["setup_s"])
        else:
            times.append(time_setup(workload))
    if workload.in_process:
        workload.setup()
    return times


def time_setup(workload) -> float:
    """CPU seconds of one set-up: of this process for in-process workloads,
    of the warm-up child for the others."""
    start = workload.cpu_s()
    workload.setup()
    return workload.cpu_s() - start


def attempt(workload, op, run=None):
    """Run one op once, timing only the run itself.  Returns (result, error
    message or None, wall s, cpu s)."""
    cpu0 = workload.cpu_s()
    start = time.perf_counter()
    try:
        result, error = (run or workload.run)(op), None
    except Exception as err:  # any exception an op raises is a failed op
        result, error = None, f"{op[:2]}: {type(err).__name__}: {err}"
    return result, error, time.perf_counter() - start, workload.cpu_s() - cpu0


def untraced(workload, args, failures) -> dict:
    rng = random.Random(f"{args.seed}:ops")
    stream = workload.ops(rng)
    walls, cpus = [], []
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds:
        op = next(stream)
        result, message, wall, cpu = attempt(workload, op)
        walls.append(wall)
        cpus.append(cpu)
        message = message or workload.check(op, result)
        if message:
            failures.append(message)
    n, failed = len(walls), len(failures)
    tails = [tail(b) for b in blocks(walls, max(1, n // TAIL_BLOCK_OPS))]
    return {
        "attempted": n,
        "failed": failed,
        "metrics": {
            "ops_per_s": n / sum(walls),
            "op_p50_ms": statistics.median(walls) * 1000,
            "op_tail_ms": statistics.median(t for t, _ in tails) * 1000,
            "cpu_ms_per_op": sum(cpus) / n * 1000,
            "peak_rss_mib": workload.peak_rss_mib(),
            "ok_share": (n - failed) / n,
        },
        "detail": {
            "op_tail": {"percentile": tails[0][1], "samples_above": 10 if n > 10 else 0,
                        "samples": n // len(tails), "blocks": len(tails)},
            "failed_share": failed / n,
        },
    }


def traced(workload, args, failures) -> dict:
    """Repeat a fixed pass of ops, each op untraced and then traced, until
    the time is up.  Outputs are checked outside the tracer, and the traced
    outputs must equal the untraced ones."""
    rng = random.Random(f"{args.seed}:ops")
    passes, walls = [], []    # walls: (traced, untraced) loop wall s per pass
    attempted = 0
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        ops = workload.pass_ops(rng)
        t = tracer.Tracer()
        plain, traced_ = [], []
        for op in ops:   # each op untraced, then traced, so both meet the same machine state
            plain.append(attempt(workload, op))
            with tracer.installed(t):
                traced_.append(attempt(workload, op, lambda o: workload.run_traced(o, t)))
        for op, (result, message, *_), (t_result, t_message, *_) in zip(ops, plain, traced_):
            message = message or workload.check(op, result)
            t_message = t_message or workload.check(op, t_result)
            if not (message or t_message) and \
                    workload.signature(op, result) != workload.signature(op, t_result):
                t_message = f"traced output differs from untraced for {op[:2]}"
            failures += [m for m in (message, f"traced {t_message}" if t_message else None) if m]
        attempted += 2 * len(ops)
        walls.append((sum(r[2] for r in traced_), sum(r[2] for r in plain)))
        passes.append(t.spans)
    return {"attempted": attempted, "failed": len(failures), "passes": passes,
            "walls": walls, "ops_per_pass": len(ops)}


def span_problems(spans: list, loop_wall_s: float) -> list[str]:
    """Checks on one traced pass: every span lies inside its parent (spans
    from a child process inside the op that ran it), no span's children
    take longer than the span, and the op spans cover the wall time the
    loop measured around the traced ops."""
    problems = set()
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            up, up_start, up_end, _, _ = spans[parent]
            if start < up_start - SPAN_EPS_S or end > up_end + SPAN_EPS_S:
                problems.add(f"span {name} lies outside its parent {up}")
            child_s[parent] += end - start
    for (name, start, end, _, _), inner in zip(spans, child_s):
        if end - start - inner < -SPAN_EPS_S:
            problems.add(f"span {name} has negative self time")
    ops_s = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    if not MIN_SPAN_SHARE * loop_wall_s <= ops_s <= loop_wall_s:
        problems.add(f"op spans cover {ops_s / loop_wall_s:.1%} of the traced wall time")
    return sorted(problems)


def counters(spans: list) -> dict:
    """Deterministic counts of one pass: calls and note sums per span name,
    and the build calls made directly by the generator beyond its classes."""
    rows = tracer.summarize(spans)
    out = {name: [row["calls"], row["notes"]] for name, row in sorted(rows.items())}
    parents = tracer.parent_names(spans)
    builds = sum(1 for (name, *_), up in zip(spans, parents)
                 if name == "flowgraph.build" and up and up.startswith("enumeration.enumerate_classes"))
    classes = sum(row["notes"] for name, row in rows.items()
                  if name.startswith("enumeration.enumerate_classes"))
    out["enumeration.duplicates"] = builds - classes
    return out


def layer_metrics(run: dict, startup_ms: float, import_ms: float) -> tuple[dict, dict]:
    passes = run["passes"]
    count = counters(passes[0])
    rows: dict = {}
    for spans in passes:
        for name, row in tracer.summarize(spans).items():
            acc = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    n = len(passes)

    def calls(name):
        return count.get(name, [0, 0])[0]

    def per_call(name, scale):
        row = rows.get(name)
        return row["total_s"] / row["calls"] * scale if row else 0.0

    def self_per_pass_ms(prefix):
        return sum(r["self_s"] for k, r in rows.items() if k.startswith(prefix)) / n * 1000

    m = {
        "enumeration.generator.self_ms": self_per_pass_ms("enumeration.enumerate_classes.k"),
        "enumeration.count_table.ms": per_call("enumeration.count_table", 1000),
        "enumeration.duplicates": count["enumeration.duplicates"],
        "flowgraph.faces.calls_per_op": calls("flowgraph.faces") / run["ops_per_pass"],
        "gradcheck.check_gradient_like.self_ms": self_per_pass_ms("gradcheck.check_gradient_like"),
        "gradcheck.witness_cycle.len": count.get("gradcheck.check_gradient_like", [0, 0])[1],
        "equiv.canonical_code.darts": count.get("equiv.canonical_code", [0, 0])[1],
        "equiv.canonical_code_mirror.darts": count.get("equiv.canonical_code_mirror", [0, 0])[1],
        "cli.interp_startup_ms": startup_ms,
        "cli.import_ms": import_ms,
    }
    for k in (1, 2, 3):
        name = f"enumeration.enumerate_classes.k{k}"
        m[f"{name}.ms"] = per_call(name, 1000)
        m[f"enumeration.classes.k{k}"] = count[name][1] // count[name][0] if calls(name) else 0
    for layer in _TIMED_LAYERS:
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.us_per_call"] = per_call(layer, 1e6)
    for cmd in CLI_COMMANDS:
        m[f"cli.main.{cmd}.us"] = per_call(f"cli.main.{cmd}", 1e6)
    traced_s = sum(t for t, _ in run["walls"])
    plain_s = sum(p for _, p in run["walls"])
    m["bench.trace_overhead_pct"] = (traced_s - plain_s) / plain_s * 100

    modules: dict = {}
    for name, row in rows.items():
        module = "op (outside morseflow)" if name == "op" else name.split(".")[0]
        acc = modules.setdefault(module, {"calls": 0, "self_ms_per_pass": 0.0})
        acc["calls"] += row["calls"]
        acc["self_ms_per_pass"] += row["self_s"] / n * 1000
    detail = {
        "passes": n,
        "ops_per_pass": run["ops_per_pass"],
        "traced_ms_per_pass": traced_s / n * 1000,
        "op_span_share_pct": rows["op"]["total_s"] / traced_s * 100,
        "modules": modules,
        "counters": count,
    }
    return m, detail


def trace_problems(run: dict) -> list[str]:
    """Span checks of every pass, and deterministic counters that repeat."""
    problems = []
    first = counters(run["passes"][0])
    for i, (spans, (traced_s, _)) in enumerate(zip(run["passes"], run["walls"])):
        problems += [f"pass {i}: {p}" for p in span_problems(spans, traced_s)]
        if counters(spans) != first:
            problems.append(f"pass {i}: deterministic counters differ from pass 0")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the set-up repeats)")
    args = parser.parse_args(argv)

    if not (SRC / "morseflow" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: {ROOT} is not a morseflow checkout (no src/morseflow or tests/fixtures)",
              file=sys.stderr)
        return 2
    _import_program()

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time_setup(workload)}))
        return 0

    # One core for this process and its children.  In interleaved trial runs
    # of cli on a 2-vCPU machine, unpinned runs spread 27% between runs on
    # op_tail_ms and 17% on ops_per_s, pinned runs 10% on both.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    failures: list = []
    if args.trace:
        workload.setup()
        problems = workload.verify()
        run = traced(workload, args, failures)
        problems += trace_problems(run)
        startup_ms = startup_probe(None)
        metrics, detail = layer_metrics(run, startup_ms, startup_probe("import morseflow.cli"))
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(run["passes"]))
    else:
        setups = timed_setups(workload, args)
        problems = workload.verify()
        run = untraced(workload, args, failures)
        metrics = dict(run["metrics"], setup_s=statistics.median(setups))
        detail = dict(run["detail"], setup_s_reps=setups)
        startup_ms = startup_probe(None)
        units = END_TO_END
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "interp_startup_ms": startup_ms,
        "failures": failures[:20],
        "problems": problems,
    })
    correct = run["failed"] == 0 and not problems
    for line in failures[:20] + problems:
        print(f"FAILED: {line}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:45s} {metrics[name]:14.4f} {unit}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def _import_program():
    """Import morseflow from the checkout's src/ and the benchmark modules."""
    global dims, equiv, flowgraph, gradcheck, FunctionProfile, inputs, tracer
    sys.path[:0] = [str(SRC), str(BENCH)]
    from morseflow import dims, equiv, flowgraph, gradcheck  # noqa: F401
    from morseflow.singularity import FunctionProfile  # noqa: F401

    import inputs  # noqa: F401
    import tracer  # noqa: F401


if __name__ == "__main__":
    sys.exit(main())
