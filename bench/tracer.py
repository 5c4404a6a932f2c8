"""Spans around morseflow's public functions, recorded from outside the package.

install() replaces each traced function by a wrapper in every morseflow
module namespace that holds it, so calls between modules (enumeration's
imported build, gradcheck's imported face_coherence_check) and calls
through module globals (build -> euler_characteristic -> faces) are all
recorded.  Spans stay in memory as (name, start, end, parent, note) and are
written out when the run ends.  Only the standard library is imported here,
so a child process can load this module before morseflow.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (module, function) pairs wrapped by install(); the span name is
# "<module>.<function>" except where _NAMES says otherwise.
LAYERS = {
    "flowgraph": ("build", "faces", "euler_characteristic", "face_coherence_check",
                  "poincare_hopf_check", "reverse"),
    "gradcheck": ("check_gradient_like", "saddle_digraph", "build_energy"),
    "equiv": ("canonical_code",),
    "enumeration": ("enumerate_classes", "count_table"),
    "dims": ("report",),
}


def _canonical_name(args, kwargs):
    mirror = kwargs.get("include_mirror", args[1] if len(args) > 1 else False)
    return "equiv.canonical_code_mirror" if mirror else "equiv.canonical_code"


def _enumerate_name(args, kwargs):
    return f"enumeration.enumerate_classes.k{args[0] if args else kwargs['k']}"


_NAMES = {
    ("equiv", "canonical_code"): _canonical_name,
    ("enumeration", "enumerate_classes"): _enumerate_name,
}

# Deterministic per-call counts stored as the span's note.
_NOTES = {
    ("equiv", "canonical_code"): lambda args, result: len(args[0].dart_dir),
    ("gradcheck", "check_gradient_like"):
        lambda args, result: len(result.witness_cycle or ()),
    ("enumeration", "enumerate_classes"): lambda args, result: len(result),
}


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent, note)
    with times from time.perf_counter (the system-wide monotonic clock on
    Linux, so child-process spans share the parent's time axis) and parent
    the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, note=None):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1] if self._stack else -1, note)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter()
        try:
            yield index
        finally:
            self._close(index, name, start)

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            label = name(args, kwargs) if callable(name) else name
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, label, start)
                raise
            self._close(index, label, start, note(args, result) if note else None)
            return result
        return traced

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere (a child process), re-rooting its
        top-level spans under parent."""
        base = len(self.spans)
        for name, start, end, up, note in spans:
            self.spans.append((name, start, end, parent if up < 0 else base + up, note))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every LAYERS function for the duration of the block."""
    import morseflow.cli  # noqa: F401  (load every module that may hold a name)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "morseflow" or n.startswith("morseflow."))]
    undo = []
    for modname, fnames in LAYERS.items():
        module = sys.modules[f"morseflow.{modname}"]
        for fname in fnames:
            original = getattr(module, fname)
            wrapper = tracer.wrap(_NAMES.get((modname, fname), f"{modname}.{fname}"),
                                  original, _NOTES.get((modname, fname)))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        undo.append((m, attr, original))
    try:
        yield tracer
    finally:
        for m, attr, original in reversed(undo):
            setattr(m, attr, original)


def summarize(spans: list) -> dict:
    """Per span name: calls, total and self seconds, and the sum of notes.
    Self time is the span's duration minus that of its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    rows: dict = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["notes"] += note or 0
    return rows


def parent_names(spans: list) -> list:
    """Name of each span's direct parent, or None for roots."""
    return [spans[p][0] if p >= 0 else None for _, _, _, p, _ in spans]
