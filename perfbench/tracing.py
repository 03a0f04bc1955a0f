"""Spans around the public polentsim calls the benchmark measures.

Spans are recorded only by this file: during a traced phase the public
functions listed in ``TRACED_CALLS`` are replaced, on their modules, by
wrappers that open a span, call the original and close the span.  Calls
that the package makes through those module attributes (the CLI calls
``spectral.read_jsa``, ``metrics.state_report`` calls ``fidelity``) are
therefore traced too; calls bound by name at import time (``calibrate``
calls its own ``post_select``) stay inside their caller's span.  The
package code is never changed, and the untraced run installs nothing.

``config`` and ``dichroic`` have no call that the benchmark makes from
outside: their time is the self time of the ``cli.*`` spans and part of
``jointstate.post_select`` and ``calibrate.fit_edge_split``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
import tracemalloc

#: Public calls wrapped during a traced phase, per package module (layer).
TRACED_CALLS = {
    "spectral": (
        "build_jsa",
        "apply_bandpass",
        "antidiagonal_marginal",
        "write_jsa",
        "read_jsa",
    ),
    "jointstate": (
        "post_select",
        "delay_sweep",
        "d_parameter",
        "fit_degradation",
        "apply_degradation",
        "density_matrix",
    ),
    "calibrate": ("fit_edge_split",),
    "tomography": ("sample_counts", "attach_accidentals", "mle_reconstruct", "visibility"),
    "metrics": ("fidelity", "purity", "concurrence"),
}

#: Calls whose first argument is a file path; their spans record its size.
FILE_CALLS = ("spectral.write_jsa", "spectral.read_jsa")

#: CLI commands the cli-session workload runs, one span each.
CLI_COMMANDS = (
    "jsa",
    "sweep",
    "sweep_delays",
    "tomo_simulate",
    "tomo_reconstruct",
    "metrics",
    "fit",
)

LAYERS = ("spectral", "jointstate", "calibrate", "tomography", "metrics", "cli")

#: Every reported call, with the end-to-end metric its time should move.
#: ``mle_reconstruct`` is split by the kind of op that made the call.
REPORTED_CALLS = {
    "spectral.build_jsa": "op_p50_s on model-calibrate and cli-session",
    "spectral.apply_bandpass": "op_p50_s on model-calibrate and cli-session",
    "spectral.antidiagonal_marginal": "op_p50_s on model-calibrate",
    "spectral.write_jsa": "op_p50_s on cli-session only",
    "spectral.read_jsa": "op_p50_s on cli-session only",
    "jointstate.post_select": "op_p50_s/ops_per_s on model-calibrate, a little on cli-session; not tomo-stats",
    "jointstate.delay_sweep": "op_p50_s/ops_per_s on model-calibrate, a little on cli-session; not tomo-stats",
    "jointstate.d_parameter": "op_p50_s/ops_per_s on model-calibrate, a little on cli-session; not tomo-stats",
    "jointstate.fit_degradation": "op_p50_s/ops_per_s on model-calibrate, a little on cli-session; not tomo-stats",
    "jointstate.apply_degradation": "op_p50_s on cli-session, a little; not tomo-stats",
    "jointstate.density_matrix": "op_p50_s/ops_per_s on model-calibrate; not tomo-stats",
    "calibrate.fit_edge_split": "op_p50_s/ops_per_s on model-calibrate",
    "tomography.sample_counts": "op_p50_s/op_p90_s/ops_per_s on tomo-stats; not model-calibrate",
    "tomography.attach_accidentals": "op_p50_s/op_p90_s/ops_per_s on tomo-stats; not model-calibrate",
    "tomography.mle_reconstruct.poisson": "op_p50_s/op_p90_s/ops_per_s on tomo-stats, cli-session slightly",
    "tomography.mle_reconstruct.noiseless": "op_p90_s/ops_per_s on tomo-stats",
    "tomography.visibility": "op_p50_s on tomo-stats; not model-calibrate",
    "metrics.fidelity": "op_p50_s/ops_per_s on tomo-stats",
    "metrics.purity": "op_p50_s/ops_per_s on tomo-stats",
    "metrics.concurrence": "op_p50_s/ops_per_s on tomo-stats",
    **{f"cli.{cmd}": "op_p50_s on cli-session" for cmd in CLI_COMMANDS},
}


class Span:
    """One timed call: name, parent op and span, start, end, child time."""

    __slots__ = ("name", "op", "kind", "parent", "index", "start", "end", "child_s",
                 "nbytes", "mem_base", "mem_peak")

    def __init__(self, name, op, kind, parent, index):
        self.name = name
        self.op = op
        self.kind = kind
        self.parent = parent  # index of the enclosing span, -1 for an op
        self.index = index
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.nbytes = 0
        self.mem_base = 0
        self.mem_peak = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct child spans."""
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def key(self) -> str:
        """Reporting name; reconstructions are split by op kind."""
        if self.name == "tomography.mle_reconstruct":
            return self.name + (".noiseless" if self.kind == "noiseless" else ".poisson")
        return self.name

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "op": self.op,
            "kind": self.kind,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "bytes": self.nbytes,
            "mem_peak_bytes": self.mem_peak - self.mem_base,
        }


class Tracer:
    """Keeps every span in memory until the run ends.

    With ``memory=True`` each span also records the peak ``tracemalloc``
    allocation above the level at its start, children included.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.memory = memory
        self._stack: list[Span] = []
        self._op = -1
        self._kind = ""

    @contextlib.contextmanager
    def op(self, index: int, kind: str):
        """Root span of one op; later spans carry its index and kind."""
        self._op, self._kind = index, kind
        with self.span("op") as root:
            yield root

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            if parent is not None:
                parent.mem_peak = max(parent.mem_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        rec = Span(name, self._op, self._kind, -1 if parent is None else parent.index,
                   len(self.spans))
        if self.memory:
            rec.mem_base = rec.mem_peak = tracemalloc.get_traced_memory()[0]
        self.spans.append(rec)
        self._stack.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += rec.duration
            if self.memory:
                rec.mem_peak = max(rec.mem_peak, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent.mem_peak = max(parent.mem_peak, rec.mem_peak)


def _wrap(tracer: Tracer, name: str, fn):
    records_file = name in FILE_CALLS

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        if records_file:
            rec.nbytes = os.path.getsize(args[0])
        return out

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every call in ``TRACED_CALLS`` for the duration of the block."""
    originals = []
    try:
        for layer, names in TRACED_CALLS.items():
            module = importlib.import_module(f"polentsim.{layer}")
            for name in names:
                original = getattr(module, name)
                originals.append((module, name, original))
                setattr(module, name, _wrap(tracer, f"{layer}.{name}", original))
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


def call_stats(spans: list[Span]) -> dict:
    """Per reported call: calls per op, median total and self time, self share.

    The share is the call's summed self time over the summed op time.
    """
    roots = [s for s in spans if s.name == "op"]
    op_total = sum(s.duration for s in roots) or float("nan")
    grouped: dict[str, list[Span]] = {}
    for s in spans:
        if s.name != "op":
            grouped.setdefault(s.key, []).append(s)
    out = {}
    for key in REPORTED_CALLS:
        group = grouped.get(key, [])
        entry = {
            "calls_per_op": len(group) / len(roots) if roots else 0.0,
            "s_p50": statistics.median(s.duration for s in group) if group else None,
            "self_s_p50": statistics.median(s.self_s for s in group) if group else None,
            "self_share": 100.0 * sum(s.self_s for s in group) / op_total if group else 0.0,
        }
        if key in FILE_CALLS:
            seconds = sum(s.duration for s in group)
            entry["mb_per_s"] = sum(s.nbytes for s in group) / 1e6 / seconds if group else 0.0
        out[key] = entry
    return out


def layer_peak_mb(spans: list[Span]) -> dict:
    """Largest allocation peak above its span's start level, per layer (MB)."""
    peaks = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s.layer in peaks:
            peaks[s.layer] = max(peaks[s.layer], (s.mem_peak - s.mem_base) / 1e6)
    return peaks
