"""Tests of the benchmark itself: its spec, its output schema and its exact counts.

    python3 -m pytest perfbench/tests -q

The traced runs make this take a few minutes: transition-sweep and census
each run one full untraced and one full traced pass per call.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT = re.compile(r"\.(calls|hits|misses|items|case_\w+)$")


def run_bench(workload, seed, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result, metric_specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in metric_specs}
    for m in metric_specs:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len({m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}) == len(SPEC["end_to_end"]) + len(
        SPEC["per_layer"]
    )
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_tail_latency_is_nearest_rank():
    values = [float(i) for i in range(1, 1001)]
    assert worker.tail_latency(values, 99.9) == (999.0, 1)
    assert worker.tail_latency(values, 99.0) == (990.0, 10)
    assert worker.tail_latency(values[:106], 90.0) == (96.0, 10)


def test_latency_per_operation_is_the_median_of_its_samples():
    passes = [
        {"keys": [(0, 0), (1, 0), (0, 0)], "kinds": ["a", "b", "a"], "times": [1.0, 5.0, 7.0]},
        {"keys": [(0, 0), (1, 0), (0, 0)], "kinds": ["a", "b", "a"], "times": [3.0, 4.0, 2.0]},
    ]
    assert worker.per_op_latencies(passes) == (["a", "b"], [2.5, 4.5], 3.0)


def test_reference_clock_scales_between_samples_and_skips_them():
    clock = reference.ReferenceClock(interval=1.0, window=1)
    # Samples at 0, 1 and 3 s; the first two take NOMINAL_S, the last twice that.
    nominal = reference.NOMINAL_S
    clock.starts = [0.0, 1.0, 3.0]
    clock.ends = [nominal, 1.0 + nominal, 3.0 + 2 * nominal]
    clock.fit()
    scaled, net = clock.span(0.5, 0.9)
    assert scaled == pytest.approx(0.4) and net == pytest.approx(0.4)
    # Across the second sample: its own time counts as none.
    scaled, net = clock.span(0.5, 1.5)
    assert net == pytest.approx(1.0 - nominal)
    # The stretch after the second sample is scaled by the median of it and
    # the slower third sample: NOMINAL_S / 1.5 NOMINAL_S.
    scaled, net = clock.span(1.5, 2.5)
    assert net == pytest.approx(1.0) and scaled == pytest.approx(1.0 / 1.5)


def test_reference_clock_runs_on_a_timer():
    clock = reference.ReferenceClock(interval=0.01, window=3)
    clock.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        pass
    end = time.perf_counter()
    clock.stop()
    scaled, net = clock.span(start, end)
    assert len(clock.starts) >= 10
    assert 0 < net < end - start
    durations = clock.durations()
    lo, hi = reference.NOMINAL_S / max(durations), reference.NOMINAL_S / min(durations)
    assert lo * net <= scaled * (1 + 1e-9) and scaled <= hi * net * (1 + 1e-9)


@pytest.mark.parametrize("workload", list(worker.workloads.WORKLOADS))
def test_traced_counts_repeat_and_output_schema(workload):
    first = last_json(run_bench(workload, 7, trace=1))
    second = last_json(run_bench(workload, 7, trace=1))
    check_result(first, SPEC["per_layer"])
    exact = {k: v["value"] for k, v in first["metrics"].items() if EXACT.search(k)}
    assert exact == {k: second["metrics"][k]["value"] for k in exact}
    assert any(exact.values())


def test_end_to_end_output_schema():
    check_result(last_json(run_bench("algebra", 3, trace=0)), SPEC["end_to_end"])


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("algebra", 1, trace=0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
