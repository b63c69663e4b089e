"""One workload in one fresh single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT

SPAWNED_AT is ``time.monotonic()`` in the parent just before it started
this process, so set-up time covers interpreter start, ``import
seriescert``, input generation and one untimed warm-up op. The process
then runs ops back to back (a closed loop, one client) for SECONDS and
prints one JSON object on stdout. With TRACE 1 it alternates untraced and
traced ops, so the per-layer numbers come with their own overhead ratio
and drift of the host over the run falls on both alike.

``serialize.int_to_str`` raises ``sys.set_int_max_str_digits`` for the
whole process; a fresh process per run keeps that from leaking between
workloads.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_op(cli, workload):
    """One op: returns (seconds inside CLI calls, problems found)."""
    elapsed = 0.0

    def invoke(argv):
        nonlocal elapsed
        start = perf_counter()
        try:
            return cli.main(argv)  # looked up per call, so a tracer's patch applies
        finally:
            elapsed += perf_counter() - start

    try:
        problems = workload.run_op(invoke)
    except (Exception, SystemExit) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    return elapsed, problems


def closed_loop(cli, workload, seconds):
    """Run ops back to back for ``seconds`` (at least one).

    Returns (start, end, op times, problems per failed op).
    """
    times, problems = [], []
    start = monotonic()
    while True:
        took, found = run_op(cli, workload)
        times.append(took)
        if found:
            problems.append(found)
        if monotonic() - start >= seconds:
            return start, monotonic(), times, problems


def traced_loop(cli, workload, seconds):
    """Alternate an untraced and a traced op for ``seconds`` (one pair at least).

    Returns (start, end, tracer, untraced op times, traced op times,
    problems per failed op).
    """
    import tracing

    tracer = tracing.Tracer()
    plain, traced, problems = [], [], []
    start = monotonic()
    while True:
        took, found = run_op(cli, workload)
        plain.append(took)
        tracer.op = len(traced)
        with tracer:
            took, more = run_op(cli, workload)
        traced.append(took)
        problems += [p for p in (found, more) if p]
        if monotonic() - start >= seconds:
            return start, monotonic(), tracer, plain, traced, problems


def main(argv):
    name, seed, seconds, trace, spawned = argv
    seed, seconds, trace, spawned = int(seed), float(seconds), int(trace), float(spawned)
    sys.path.insert(0, str(ROOT / "src"))
    from seriescert import cli

    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        workload = WORKLOADS[name](seed, workdir)
        _, warm_problems = run_op(cli, workload)
        if trace:
            start, end, tracer, times, traced, problems = traced_loop(cli, workload, seconds)
        else:
            start, end, times, problems = closed_loop(cli, workload, seconds)
        result = {
            "inputs": workload.inputs,
            "setup_s": start - spawned,
            "timed_s": end - start,
            "op_s": times,
            "attempted": 1 + len(times),
            "problems": ([warm_problems] if warm_problems else []) + problems,
        }
        if trace:
            overhead = statistics.median(traced) / statistics.median(times)
            result["attempted"] += len(traced)
            result["traced_op_s"] = traced
            result["layers"] = tracer.summary(len(traced), workload.bytes_out, overhead)
            by_name, _ = tracer.self_times()
            result["self_s_by_span"] = {k: v / len(traced) for k, v in
                                        sorted(by_name.items(), key=lambda kv: -kv[1])}
            spans = OUT / f"{name}-seed{seed}-spans.jsonl"
            tracer.write_spans(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
