"""Closed-loop benchmark of polentsim.

Run from the repository root:

    python3 perfbench/run.py --workload model-calibrate --seed 1 --seconds 30 --trace 0

One client issues the next op only after the previous one completed, in
this process, through the package's public functions.  Every op checks
its outputs; a failed op is counted, never fatal.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The exit code is 0 only when
no op failed.  There is one client and no queue, so no layer waits on
another and no wait time is reported.
"""

import os

# BLAS is fixed to one thread; this must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: In-process set-up is repeated this often; setup_s is the median.
SETUP_REPEATS = 5
#: Share of --seconds spent on the tracemalloc phase of a traced run.
MEMORY_PHASE = 0.1
#: peak_rss_mb covers set-up and this many ops.  Over a whole run it would
#: grow with the op count: the allocator keeps one more 16 MB block per
#: model-calibrate op until it trims the heap, so a faster run reads higher.
PEAK_RSS_OPS = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import polentsim.cli, polentsim.calibrate; "
    "print(time.perf_counter() - t)"
)


def load_program():
    """Import polentsim from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    try:
        import polentsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import polentsim from {SRC}: {exc}")
    if Path(polentsim.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: polentsim imported from {polentsim.__file__}, not {SRC}")


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def measure_setup(workload) -> float:
    """Median over repeats of (fresh-interpreter import + input building)."""
    totals = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        start = time.perf_counter()
        workload.setup()
        totals.append(imports + time.perf_counter() - start)
    return statistics.median(totals)


@dataclass
class Loop:
    """One closed-loop phase: successful op times and failures."""

    times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(workload, seconds: float, first: int, tracer=None) -> Loop:
    """Run ops back to back until ``seconds`` have passed (at least one op)."""
    loop = Loop()
    start = time.perf_counter()
    deadline = start + seconds
    i = first
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                workload.op(i)
            else:
                with tracer.op(i, workload.op_kind(i)):
                    workload.op(i)
        except Exception as exc:  # a failed op is counted and the run goes on
            loop.failed += 1
            if len(loop.errors) < 5:
                loop.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            loop.times.append(time.perf_counter() - t0)
        loop.attempted += 1
        i += 1
        if loop.attempted <= PEAK_RSS_OPS:
            loop.peak_rss_mb = peak_rss_mb()
        if time.perf_counter() >= deadline:
            break
    loop.wall_s = time.perf_counter() - start
    return loop


def p50(times) -> float:
    return statistics.median(times) if times else float("nan")


def percentile(times, q: float) -> float:
    return float(np.percentile(times, q)) if times else float("nan")


def end_to_end(workload, seconds: float, setup_s: float):
    loop = closed_loop(workload, seconds, 0)
    p90 = percentile(loop.times, 90)
    notes = [
        ("ops", len(loop.times)),
        ("op_p90_s.samples_beyond", sum(t > p90 for t in loop.times)),
        ("failed_share", loop.failed / loop.attempted),
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(loop.times) / loop.wall_s, "1/s"),
        "op_p50_s": (p50(loop.times), "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    return [loop], metrics, notes, []


def traced(workload, seconds: float, out_path: Path):
    """Untraced half, traced half, then a short tracemalloc phase."""
    from perfbench import tracing

    @contextlib.contextmanager
    def recording(tracer):
        with tracing.instrumented(tracer):
            previous, workload.span = workload.span, tracer.span
            try:
                yield
            finally:
                workload.span = previous

    untraced = closed_loop(workload, seconds / 2, 0)
    timing = tracing.Tracer()
    with recording(timing):
        spans = closed_loop(workload, seconds / 2, untraced.attempted, timing)
    memory = tracing.Tracer(memory=True)
    tracemalloc.start()
    try:
        with recording(memory):
            mem = closed_loop(workload, seconds * MEMORY_PHASE,
                              untraced.attempted + spans.attempted, memory)
    finally:
        tracemalloc.stop()

    stats = tracing.call_stats(timing.spans)
    peaks = tracing.layer_peak_mb(memory.spans)
    metrics = {}
    for key, entry in stats.items():
        metrics[f"{key}.self_share"] = (entry["self_share"], "%")
        metrics[f"{key}.calls_per_op"] = (entry["calls_per_op"], "count")
    for key in tracing.FILE_CALLS:
        metrics[f"{key}.mb_per_s"] = (stats[key]["mb_per_s"], "MB/s")
    for layer, mb in peaks.items():
        metrics[f"{layer}.peak_mb"] = (mb, "MB")
    overhead = p50(spans.times) - p50(untraced.times)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.op_p50_s"] = (p50(spans.times), "s")

    notes = [
        ("untraced.ops", len(untraced.times)),
        ("untraced.op_p50_s", p50(untraced.times)),
        ("traced.ops", len(spans.times)),
        ("trace.overhead_share", overhead / p50(untraced.times)),
        ("tracemalloc.ops", len(mem.times)),
        ("spans", len(timing.spans)),
    ]
    table = []
    for key, entry in stats.items():
        cells = " ".join(
            f"{name} {entry[name]!r}" for name in ("calls_per_op", "s_p50", "self_s_p50", "self_share")
        )
        table.append(f"call {key} {cells} | should move: {tracing.REPORTED_CALLS[key]}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"timing": [s.as_dict() for s in timing.spans],
                   "memory": [s.as_dict() for s in memory.spans]}, fh)
    table.append(f"spans written to {out_path.relative_to(ROOT)}")
    return [untraced, spans, mem], metrics, notes, table


def main(argv=None) -> int:
    load_program()
    from perfbench import facts, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(work_dir))
        setup_s = measure_setup(workload)
        workload.prepare()
        machine = facts.machine(str(work_dir))
        if args.trace:
            out = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            loops, metrics, notes, table = traced(workload, args.seconds, out)
        else:
            loops, metrics, notes, table = end_to_end(workload, args.seconds, setup_s)
        results = workload.results()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"# polentsim benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} loop=closed clients=1")
    for key, value in machine:
        print(f"machine {key} {value}")
    for key, value in facts.inputs(workload.grid_points):
        print(f"input {key} {value}")
    for key, value in results:
        print(f"result {key} {value!r}")
    for key, value in notes:
        print(f"note {key} {value!r}")
    for line in table:
        print(line)
    for loop in loops:
        for error in loop.errors:
            print(f"failure {error}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
