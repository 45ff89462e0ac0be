"""Run one workload process with spans around the calls into each layer.

Usage: python3 perfbench/tracer.py TRACE_OUT cli ARGS...
       python3 perfbench/tracer.py TRACE_OUT shift OFFSET MAX_RADIUS

Prints exactly what the untraced process prints, and writes to TRACE_OUT a
JSON summary: per span name its calls, total seconds and self seconds
(duration minus the spans it directly caused), the counts observed on
returned values, and the garbage collector's time and collections.

Each public function is wrapped where its caller looks it up (cli binds its
own `kesten_profile`, spectral its own `orbit_ball`, and so on), so the
program's source is untouched.  No wrapped function calls itself, so summing
a name's spans counts no interval twice.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from cosetlab import characters, cli, cosets, finitegroup, freegroup, spectral, suite

import shift_profile


class Tracer:
    """Spans kept in flat arrays (name id, parent span id, start, end) and
    summarised when the process ends."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counters: dict = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call
        and hands the return value to observe(counters, value)."""
        fn = getattr(owner, attr)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                starts[sid] = t0
                stack.pop()

        if observe is None:
            setattr(owner, attr, traced)
            return

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            value = traced(*args, **kwargs)
            observe(self.counters, value)
            return value

        setattr(owner, attr, observed)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def summary(self) -> dict:
        k = len(self.names)
        name = np.frombuffer(self._name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        caused = parent >= 0
        children = np.bincount(parent[caused], weights=dur[caused], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - children, minlength=k)
        spans = {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }
        return {
            "spans": spans,
            "span_count": len(dur),
            "counters": self.counters,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }


def _add(counters: dict, key: str, value: int) -> None:
    counters[key] = counters.get(key, 0) + value


def _ball(counters, ball) -> None:
    _add(counters, "orbit_ball.nodes", len(ball))
    counters["orbit_ball.prefix_sizes"] = [
        ball.prefix_size(r) for r in range(1, ball.radius + 1)
    ]


def _operator(counters, op) -> None:
    _add(counters, "markov_operator.nnz", int(op.counts.nnz))


def _certificate(counters, cert) -> None:
    _add(counters, "reiter_search.window_size", cert.window_size)


def _group(counters, group) -> None:
    _add(counters, "congruence_group.order", len(group))


def _suite(counters, result) -> None:
    _add(counters, "suite.entries", len(result.entries))
    _add(counters, "suite.entries_failed", sum(not e.passed for e in result.entries))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    t = tracer
    for owner in (cli, spectral):  # the CLI and shift_profile.py
        t.wrap(owner, "kesten_profile", "spectral.kesten_profile")
    t.wrap(spectral, "orbit_ball", "cosets.orbit_ball", _ball)
    t.wrap(spectral, "markov_operator", "spectral.markov_operator", _operator)
    t.wrap(spectral, "act", "cosets.act")
    t.wrap(spectral, "minimal_level", "freegroup.minimal_level")
    t.wrap(cosets, "g_mul", "freegroup.g_mul")
    t.wrap(cosets, "retract", "freegroup.retract")
    for owner, attr in (
        (cli, "parse_word"), (cli, "parse_gelement"),
        (spectral, "parse_word"), (freegroup, "parse_gelement"),
    ):
        t.wrap(owner, attr, "freegroup.parse")
    t.wrap(cli, "reiter_search", "spectral.reiter_search", _certificate)
    t.wrap(cli, "run_suite", "suite.run_suite", _suite)
    t.wrap(cli, "congruence_group", "finitegroup.congruence_group", _group)
    t.wrap(cli, "_emit", "cli.emit")
    t.wrap(finitegroup.FiniteGroup, "_compute_classes", "finitegroup.classes")
    for owner in (suite, characters):
        t.wrap(owner, "induce_character", "characters.induce_character")
    for attr in ("frobenius_check", "stages_check", "load_character_table"):
        t.wrap(suite, attr, f"characters.{attr}")
    t.wrap(suite, "registry", "suite.registry")


def main(argv) -> int:
    out_path, mode, rest = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    tracer.start_gc()
    try:
        if mode == "cli":
            code = cli.main(rest)
        elif mode == "shift":
            code = shift_profile.main(rest)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        tracer.stop_gc()
    out_path.write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
