"""diagalg benchmark: one workload, end-to-end or per-layer metrics, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the code under test is its ``src/diagalg``.  The workload runs in a fresh
interpreter (perfbench/worker.py), so its memory, set-up time and cold
caches are its own.  With ``--trace 0`` six more fresh interpreters only
set up, and ``setup_s`` is the median of the seven set-up times.  Times
are scaled to reference speed (perfbench/reference.py), so that the
shared host's drift in speed cancels out; the report shows the raw
figures beside them.

The report lines name each metric with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when every output passed its check, 1 when
one did not, and 2 when the benchmark could not run.  A JSON record of the
run, with the environment, goes to .bench_out/ under the root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(args, extra=(), timeout=WORKER_TIMEOUT_S) -> dict:
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(raw: dict, setups: list[float], metrics: dict) -> None:
    env = raw["env"]
    ref = raw["reference"]
    print(
        f"workload {raw['workload']}  seed {raw['seed']}  python {env['python']}  "
        f"nproc {env['nproc']}  git {env['git_revision']}"
    )
    print(
        f"reference task: {ref['samples']} samples, median {1000 * ref['median_s']:.3f} ms "
        f"(min {1000 * ref['min_s']:.3f}, max {1000 * ref['max_s']:.3f}); nominal "
        f"{1000 * ref['nominal_s']:.3f} ms, so times are scaled by about "
        f"{ref['nominal_s'] / ref['median_s']:.3f}"
    )
    rawv = raw["raw"]
    print(
        f"raw, unscaled: setup_s {rawv['setup_s']:.4f} s (this interpreter), ops_per_s "
        f"{rawv['ops_per_s']:.6g} 1/s, median of all operation samples {rawv['op_p50_ms']:.6g} ms"
    )
    print(
        f"passes {raw['passes']}  ops per pass {raw['ops_per_pass']}  "
        f"attempted {raw['attempted']}  failed {raw['failed']}  "
        f"error_ratio {raw['failed'] / raw['attempted']:.6g}"
    )
    for message in raw["messages"]:
        print(f"  FAILED: {message}")
    tail = raw["tail"]
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, scaled: "
        + ", ".join(f"{s:.4f}" for s in setups) if setups else "",
        "ops_per_s": f"median over {raw['passes']} passes",
        "op_p50_ms": f"median of {tail['operations']} per-operation latencies",
        "op_tail_ms": f"p{tail['percentile']:g} of {tail['operations']} per-operation latencies, "
        f"{tail['beyond']} beyond it ({tail['samples_beyond']} samples)",
        "peak_rss_mib": "ru_maxrss of the workload process",
    }
    for name, entry in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<46} {entry['value']:>14.6g} {entry['unit']:<6} {note}")
    print("per operation kind (count per pass, median ms, seconds per pass):")
    for kind, row in raw["by_kind"].items():
        print(
            f"  {kind:<24} {row['count_per_pass']:>9.6g} {row['p50_ms']:>12.4f} "
            f"{row['seconds_per_pass']:>10.4f}"
        )


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")

    if not (ROOT / "src" / "diagalg" / "__init__.py").is_file():
        print(f"error: no diagalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        raw = run_worker(args)
        setups = []
        if not args.trace:
            setups = [raw["setup_s"]] + [
                run_worker(args, ("--setup-only",), PROBE_TIMEOUT_S)["setup_s"] for _ in range(SETUP_PROBES)
            ]
    except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: metric(raw["layers"].get(name, 0.0), unit) for name, unit in units.items()}
    else:
        values = dict(raw, setup_s=statistics.median(setups))
        metrics = {
            m["name"]: metric(values[m["name"]], END_TO_END_UNITS[m["name"]]) for m in spec["end_to_end"]
        }
    correct = raw["failed"] == 0
    result = {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}

    report(raw, setups, metrics)
    if args.trace:
        print(
            f"tracing: {raw['spans']} spans in {raw['span_file']}; traced ops_per_s "
            f"{raw['layers']['trace.ops_per_s']:.6g} against {raw['layers']['trace.untraced_ops_per_s']:.6g} "
            f"untraced (ratio {raw['layers']['trace.speed_ratio']:.4f}); counts repeat across passes: "
            f"{raw['layer_counts_repeat']}"
        )
        if raw["trace_missing"]:
            print(f"tracing: not found, reported as 0: {', '.join(raw['trace_missing'])}")
    record = dict(raw, setup_samples=setups, result=result)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
