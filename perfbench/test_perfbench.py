"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

Smoke runs of every workload at tiny windows, the tracer's bookkeeping,
and the seed bands.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import END_TO_END  # noqa: E402
from seriescert import cli  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def traced_op(workload):
    """Run one op under a fresh tracer; returns (tracer, op seconds, problems)."""
    tracer = tracing.Tracer()
    with tracer:
        took, problems = run_op(cli, workload)
    return tracer, took, problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_op_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name](DEFAULT_SEED, tmp_path, smoke=True)
    took, problems = run_op(cli, workload)
    assert problems == []
    assert took > 0 and workload.bytes_out > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_op_passes_under_the_tracer(name, tmp_path):
    workload = WORKLOADS[name](DEFAULT_SEED, tmp_path, smoke=True)
    tracer, _, problems = traced_op(workload)
    assert problems == []
    summary = tracer.summary(1, workload.bytes_out, 1.0)
    assert set(summary) == set(tracing.METRICS)
    assert summary["cli.main.calls"] >= 1
    assert all(summary[f"{m}.errors"] == 0 for m in tracing.MODULES)


def test_failed_check_is_reported(tmp_path):
    workload = WORKLOADS["analyze-sums"](DEFAULT_SEED, tmp_path, smoke=True)
    _, problems = run_op(cli, workload)
    assert problems == []
    workload.spec = str(tmp_path / "missing.json")
    _, problems = run_op(cli, workload)
    assert problems == ["analyze exited 2, expected 0"]


def test_tracer_restores_every_patched_attribute():
    import seriescert
    from seriescert import convergents, enclosure, measure
    from seriescert.measure import PolynomialInt

    namespaces = [seriescert] + [sys.modules[f"seriescert.{m}"] for m in tracing.MODULES]
    before = [dict(vars(ns)) for ns in namespaces]
    original = convergents.partial_sum
    method = PolynomialInt.__dict__["evaluate_interval"]
    with tracing.Tracer():
        wrapped = convergents.partial_sum
        assert wrapped is not original
        assert measure.partial_sum is wrapped and enclosure.partial_sum is wrapped
        assert PolynomialInt.__dict__["evaluate_interval"] is not method
    assert [dict(vars(ns)) for ns in namespaces] == before
    assert PolynomialInt.__dict__["evaluate_interval"] is method


def test_tracer_refuses_a_missing_layer_function(monkeypatch):
    import seriescert

    namespaces = [seriescert] + [sys.modules[f"seriescert.{m}"] for m in tracing.MODULES]
    before = [dict(vars(ns)) for ns in namespaces]
    monkeypatch.setitem(tracing.FUNCTIONS, "measure",
                        (*tracing.FUNCTIONS["measure"], "renamed_away"))
    with pytest.raises(AttributeError, match="renamed_away"):
        tracing.Tracer().install()
    assert [dict(vars(ns)) for ns in namespaces] == before


def test_self_times_sum_to_op_wall_time(tmp_path):
    workload = WORKLOADS["polynomial-scan"](DEFAULT_SEED, tmp_path, smoke=True)
    untraced = statistics.median(run_op(cli, workload)[0] for _ in range(3))
    runs = [traced_op(workload) for _ in range(3)]
    tracer, wall, problems = sorted(runs, key=lambda r: r[1])[1]
    assert problems == []
    _, by_op = tracer.self_times()
    spans = sum(by_op.values())
    overhead = max(wall - untraced, 0.0)
    assert spans <= wall
    assert wall - spans <= overhead + 0.01 * wall


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, "cli.main", 0.0, 10.0, 0, 0),
        (2, "sequences.term", 1.0, 4.0, 1, 0),
        (3, "sequences.checked_pow", 2.0, 3.5, 2, 0),
        (4, "serialize.int_to_str", 5.0, 9.0, 1, 0),
    ]
    by_name, by_op = tracer.self_times()
    assert by_name == {"cli.main": 3.0, "sequences.term": 1.5,
                       "sequences.checked_pow": 1.5, "serialize.int_to_str": 4.0}
    assert by_op == {0: 10.0}


def _band_extremes(name, tmp_path, seeds=range(1, 41)):
    """The two seeds whose a1 lie furthest apart in the band."""
    def log2_a1(seed):
        workdir = tmp_path / f"{name}-{seed}"
        workdir.mkdir()
        spec = json.loads(Path(WORKLOADS[name](seed, workdir).spec).read_text())
        return math.log2(int(spec["a1"]))

    sizes = {seed: log2_a1(seed) for seed in seeds}
    low, high = min(sizes, key=sizes.get), max(sizes, key=sizes.get)
    assert sizes[high] / sizes[low] < 1.01
    return low, high


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_in_the_band_give_the_same_op_sizes(name, tmp_path):
    sizes = []
    for seed in _band_extremes(name, tmp_path):
        workdir = tmp_path / f"op-{seed}"
        workdir.mkdir()
        workload = WORKLOADS[name](seed, workdir)
        tracer, _, problems = traced_op(workload)
        assert problems == []
        summary = tracer.summary(1, workload.bytes_out, 1.0)
        sizes.append((summary["sequences.checked_pow.max_digits"],
                      summary["serialize.int_to_str.digits"]))
    for a, b in zip(*sizes):
        assert a > 0 and abs(a / b - 1) <= 0.01


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-sums", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_the_recorded_digests(name, tmp_path):
    workload = WORKLOADS[name](DEFAULT_SEED, tmp_path)
    _, problems = run_op(cli, workload)
    assert problems == []
    assert workload.digests == workload.expected_digests()


def test_benchmark_json_names_known_workloads_and_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.METRICS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
