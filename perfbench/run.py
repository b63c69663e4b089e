"""seriescert benchmark: CLI workloads timed end to end, traced per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``.
BENCHMARK.json lists the workloads that gate a change; the others in
``workloads.WORKLOADS`` run the same way, for diagnosis.
Each workload runs in fresh single-threaded Python processes that call
``seriescert.cli.main(argv)`` in-process on generated spec files, one op
after another (a closed loop with one client). Every op's artifacts are
checked; see ``workloads.py``.

With ``--trace 0`` a run starts ``PROCESSES`` processes one after another,
each timing ops for SECONDS / PROCESSES, and reports

    setup_s       s    median over the processes of spawn -> first timed op
    op_s_p50      s    median seconds per op over all timed ops
    ops_per_s     1/s  timed ops / seconds spent in the timed loops
    peak_rss_mib  MiB  median over the processes of peak resident memory

and prints fail_ratio (failed / attempted ops, warm-up ops included) on
its own line. With ``--trace 1`` one process alternates untraced and
traced ops, and reports the per-layer metrics of ``tracing.METRICS``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Results, with the environment
they were measured in, are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROCESSES = 3
RUN_LIMIT_S = 170  # each workload must finish well inside 180 s

sys.path.insert(0, str(HERE))
from tracing import METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        # CPython 3.12+ converts big ints to decimal in subquadratic time
        # through _pylong; numbers with and without it are not comparable.
        "pylong": importlib.util.find_spec("_pylong") is not None,
    }


def spawn(name, seed, seconds, trace, deadline):
    """Run one worker process to completion and return its result."""
    spawned = monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), repr(seconds),
            str(trace), repr(spawned)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    deadline = monotonic() + RUN_LIMIT_S
    if trace:
        workers = [spawn(name, seed, seconds, 1, deadline)]
    else:
        workers = [spawn(name, seed, seconds / PROCESSES, 0, deadline) for _ in range(PROCESSES)]
    times = [t for w in workers for t in w["op_s"]]
    attempted = sum(w["attempted"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    summary = {
        "workload": name,
        "inputs": workers[0]["inputs"],
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:5],
        "timed_ops": len(times),
        "processes": len(workers),
    }
    if trace:
        layers = workers[0]["layers"]
        summary.update(
            traced_ops=len(workers[0]["traced_op_s"]),
            untraced_op_s_p50=statistics.median(times),
            traced_op_s_p50=statistics.median(workers[0]["traced_op_s"]),
            self_s_by_span=workers[0]["self_s_by_span"],
            spans_file=workers[0]["spans_file"],
            metrics={m: {"value": layers[m], "unit": unit} for m, unit in METRICS.items()},
        )
    else:
        values = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "op_s_p50": statistics.median(times),
            "ops_per_s": len(times) / sum(w["timed_s"] for w in workers),
            "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in workers),
        }
        summary["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    return summary


def report(summary, trace):
    """Human-readable block for one workload."""
    name, n = summary["workload"], summary["timed_ops"]
    lines = [f"== {name}  inputs {json.dumps(summary['inputs'])}"]
    m = summary["metrics"]
    if trace:
        lines.append(f"   untraced op_s_p50 {summary['untraced_op_s_p50']:.4f} s  traced "
                     f"{summary['traced_op_s_p50']:.4f} s  ({summary['traced_ops']} traced ops)")
        top = list(summary["self_s_by_span"].items())[:5]
        lines.append("   largest self time per op: " +
                     ", ".join(f"{k} {v:.4f} s" for k, v in top))
        for metric, v in m.items():
            lines.append(f"   {metric:44s} {v['value']:.6g} {v['unit']}")
    else:
        p = summary["processes"]
        lines += [
            f"   setup_s       {m['setup_s']['value']:.4f} s    median of {p} set-ups",
            f"   op_s_p50      {m['op_s_p50']['value']:.4f} s    median of {n} ops",
            f"   ops_per_s     {m['ops_per_s']['value']:.4f} 1/s  {n} ops",
            f"   fail_ratio    {summary['failed'] / summary['attempted']:.4f}      "
            f"{summary['failed']} of {summary['attempted']} ops failed",
            f"   peak_rss_mib  {m['peak_rss_mib']['value']:.2f} MiB  median of {p} processes",
        ]
    for problems in summary["problems"]:
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        lines.append(f"   FAILED op: {'; '.join(problems[:3])}{more}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "seriescert" / "__init__.py").is_file():
        sys.stderr.write(f"no seriescert sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    env = environment(args.seed)
    print(f"env {json.dumps(env)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, args.trace)
        summary["env"] = env
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(summary, indent=2) + "\n")
        print(report(summary, args.trace), flush=True)
        summaries.append(summary)

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
