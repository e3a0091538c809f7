"""One workload in a fresh interpreter: set up, run timed passes, print raw results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

perfbench/run.py starts this script; it prints one JSON object on stdout.
Set-up time runs from the first line of this file, before diagalg is
imported, to the end of the warm-up.

Every time the worker reports is in reference seconds: from the first
lines on, a timer runs the task of perfbench/reference.py every
REFERENCE_INTERVAL_S, and each stretch of time is scaled by how fast that
task ran around it.  The unscaled times are kept in the output beside them.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

# One reference sample every REFERENCE_INTERVAL_S of wall time; the time
# between two samples is scaled by the median of the REFERENCE_WINDOW
# samples on either side.
REFERENCE_INTERVAL_S = 0.05
REFERENCE_WINDOW = 8
if __name__ == "__main__":
    CLOCK = reference.ReferenceClock(REFERENCE_INTERVAL_S, REFERENCE_WINDOW)
    CLOCK.start()

import diagalg  # noqa: E402
import diagalg.cli  # noqa: E402,F401  (its import cost belongs to set-up)
import diagalg.verify  # noqa: E402,F401

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_MESSAGES = 10


def _call(fn, arg):
    return fn(arg)


def run_pass(workload, run_op) -> dict:
    """One pass over the workload's groups; each op's clock readings, without the checks."""
    clock = time.perf_counter
    keys: list[tuple] = []
    kinds: list[str] = []
    stamps: list[tuple[float, float]] = []
    ran = []
    failed_groups = set()
    messages = []
    workload.begin_pass()
    for index, group in enumerate(workload.groups):
        outputs = []
        count = 0
        problem = None
        for position, op in enumerate(group.ops):
            if len(op) > 2 and not op[2](outputs):
                continue
            count += 1
            if workload.collect_before_ops:
                gc.collect()
            start = clock()
            try:
                outputs.append(run_op(op[1], outputs))
            except Exception as exc:  # a raising operation is a failed operation
                problem = f"{op[0]}: {type(exc).__name__}: {exc}"
                break
            finally:
                stamps.append((start, clock()))
                keys.append((index if group.key is None else group.key, position))
                kinds.append(op[0])
        if problem is None:
            try:
                problem = group.check(outputs)
            except Exception as exc:
                problem = f"check of {group.ops[0][0]}: {type(exc).__name__}: {exc}"
        ran.append(count)
        if problem is not None:
            failed_groups.add(index)
            messages.append(problem)
    for indices, message in workload.end_pass():
        failed_groups.update(indices)
        messages.append(message)
    return {
        "keys": keys,
        "kinds": kinds,
        "stamps": stamps,
        "attempted": len(stamps),
        "failed": sum(ran[i] for i in failed_groups),
        "messages": messages,
    }


def convert_pass(result: dict, clock: reference.ReferenceClock) -> None:
    """Turn a pass's clock readings into op times, in reference and in raw seconds."""
    spans = [clock.span(a, b) for a, b in result.pop("stamps")]
    result["times"] = [scaled for scaled, _ in spans]
    result["raw_times"] = [raw for _, raw in spans]
    result["busy_s"] = sum(result["times"])
    result["raw_busy_s"] = sum(result["raw_times"])


def per_op_latencies(passes: list[dict]) -> tuple[list[str], list[float], float]:
    """Each operation's latency as the median of its samples.

    Every pass runs the same operations, and a workload may run one
    operation more than once a pass.  A pass cut short by a failure runs
    different operations; then every sample counts on its own.  Returns
    the kinds, the latencies and the mean count of samples per operation.
    """
    keys = passes[0]["keys"]
    if not all(p["keys"] == keys for p in passes):
        kinds = [k for p in passes for k in p["kinds"]]
        return kinds, [t for p in passes for t in p["times"]], 1.0
    samples: dict[tuple, list[float]] = {}
    kind_of: dict[tuple, str] = {}
    for p in passes:
        for key, kind, value in zip(p["keys"], p["kinds"], p["times"]):
            samples.setdefault(key, []).append(value)
            kind_of[key] = kind
    kinds = [kind_of[key] for key in samples]
    return kinds, [statistics.median(v) for v in samples.values()], len(keys) * len(passes) / len(samples)


def tail_latency(ordered: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank value at ``percentile`` and the count of values beyond it."""
    n = len(ordered)
    rank = max(1, -(-round(percentile * 1000) * n // 100_000))  # ceil(percentile / 100 * n)
    return ordered[rank - 1], n - rank


def run_passes(workload, caches, seconds, run_op, before_pass=lambda: None, after_pass=lambda _: None):
    """Whole passes, each from cleared caches and a collected heap, until ``seconds`` have passed."""
    passes = []
    start = time.perf_counter()
    while True:
        for table in caches:
            table.cache_clear()
        gc.collect()
        state = before_pass()
        passes.append(run_pass(workload, run_op))
        after_pass(state)
        if time.perf_counter() - start >= seconds:
            return passes


def cache_counts(tables: dict) -> dict[str, int]:
    """Hit and miss counts of each cache table since its last clear."""
    counts = {}
    for prefix, table in tables.items():
        info = table.cache_info()
        counts[prefix + ".hits"] = info.hits
        counts[prefix + ".misses"] = info.misses
    return counts


def layer_metrics(tracer, pass_marks, pass_counters, pass_caches, traced_rates, untraced_rate, error_ratio):
    """Per-pass layer metrics, and whether every traced pass counted the same."""
    passes = len(pass_marks)
    per_pass_calls = []
    begin = 0
    for end in pass_marks:
        counts = [0] * len(tracer.names)
        for k in tracer.name_ix[begin:end]:
            counts[k] += 1
        per_pass_calls.append(counts)
        begin = end
    vectors = list(zip(per_pass_calls, pass_counters, pass_caches))
    exact = all(v == vectors[0] for v in vectors)

    totals = tracer.totals()
    metrics = {}
    for prefix, _, _ in tracing.SPAN_TARGETS:
        calls, self_s = totals.get(prefix, (0, 0.0))
        metrics[prefix + ".calls"] = calls / passes
        metrics[prefix + ".self_s"] = self_s / passes
    counters = {k: sum(c[k] for c in pass_counters) / passes for k in pass_counters[0]}
    metrics.update(counters)
    for prefix, _, _ in tracing.CACHE_TARGETS:
        hits = sum(c.get(prefix + ".hits", 0) for c in pass_caches) / passes
        misses = sum(c.get(prefix + ".misses", 0) for c in pass_caches) / passes
        metrics[prefix + ".hits"] = hits
        metrics[prefix + ".misses"] = misses
        metrics[prefix + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    act_calls = metrics.get("halfdiag.act.calls", 0)
    metrics["halfdiag.act.nonzero_ratio"] = (
        counters.get("halfdiag.act.nonzero", 0) / act_calls if act_calls else 0.0
    )
    traced = statistics.median(traced_rates)
    metrics["trace.ops_per_s"] = traced
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.speed_ratio"] = traced / untraced_rate
    metrics["bench.error_ratio"] = error_ratio
    return metrics, exact


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(clock: reference.ReferenceClock) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = Path(diagalg.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"imported diagalg from {source}, not from this checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    caches = list(tracing.cache_tables().values())
    for group in workload.warmup:
        outputs = []
        for op in group.ops:
            if len(op) <= 2 or op[2](outputs):
                outputs.append(op[1](outputs))
    for table in caches:
        table.cache_clear()
    # The inputs live for the whole run; freezing them keeps the collector's
    # cost inside operations down to what the operations themselves allocate.
    gc.collect()
    gc.freeze()
    setup_end = time.perf_counter()
    if args.setup_only:
        clock.stop()
        print(json.dumps({"setup_s": clock.span(T0, setup_end)[0]}))
        return 0

    results = []
    tracer = None
    seconds = args.seconds
    if args.trace:
        # Untraced passes for half the time first: the base of the tracing overhead.
        seconds = args.seconds / 2
        untraced = run_passes(workload, caches, seconds, _call)
        results.extend(untraced)
        tracer = tracing.Tracer()
        reported = {}
        for prefix, module_name, attr in tracing.CACHE_TARGETS:
            table = getattr(sys.modules.get(module_name), attr, None)
            if hasattr(table, "cache_info"):
                reported[prefix] = table
        pass_marks, pass_counters, pass_caches = [], [], []

        def record(before):
            pass_marks.append(len(tracer.start))
            pass_counters.append({k: v - before.get(k, 0) for k, v in tracer.counters.items()})
            pass_caches.append(cache_counts(reported))

        tracer.install()
        try:
            timed = run_passes(workload, caches, seconds, tracer.op_runner(), lambda: dict(tracer.counters), record)
        finally:
            tracer.uninstall()
    else:
        timed = run_passes(workload, caches, seconds, _call)
    results.extend(timed)
    clock.stop()
    setup_s, raw_setup_s = clock.span(T0, setup_end)
    for result in results:
        convert_pass(result, clock)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    messages = [m for r in results for m in r["messages"]][:MAX_MESSAGES]
    rates = [r["attempted"] / r["busy_s"] for r in timed]
    reference_s = sorted(clock.durations())
    kinds, latencies, samples_per_op = per_op_latencies(timed)
    by_kind: dict[str, list[float]] = {}
    for kind, value in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(value)
    ordered = sorted(latencies)
    tail, beyond = tail_latency(ordered, workload.tail_percentile)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": len(timed),
        "ops_per_pass": timed[0]["attempted"],
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1000 * statistics.median(ordered),
        "op_tail_ms": 1000 * tail,
        "raw": {
            "setup_s": raw_setup_s,
            "ops_per_s": statistics.median(r["attempted"] / r["raw_busy_s"] for r in timed),
            "op_p50_ms": 1000 * statistics.median(t for r in timed for t in r["raw_times"]),
        },
        "tail": {
            "percentile": workload.tail_percentile,
            "operations": len(ordered),
            "beyond": beyond,
            "samples_beyond": round(beyond * samples_per_op),
        },
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "by_kind": {
            kind: {
                "count_per_pass": sum(1 for k in timed[0]["kinds"] if k == kind),
                "p50_ms": 1000 * statistics.median(values),
                "seconds_per_pass": sum(t for r in timed for k, t in zip(r["kinds"], r["times"]) if k == kind)
                / len(timed),
            }
            for kind, values in sorted(by_kind.items())
        },
        "reference": {
            "nominal_s": reference.NOMINAL_S,
            "samples": len(reference_s),
            "min_s": reference_s[0],
            "median_s": statistics.median(reference_s),
            "max_s": reference_s[-1],
        },
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "git_revision": git_revision(),
            "gc_enabled": gc.isenabled(),
        },
    }
    if tracer is not None:
        metrics, exact = layer_metrics(
            tracer,
            pass_marks,
            pass_counters,
            pass_caches,
            rates,
            statistics.median(r["attempted"] / r["busy_s"] for r in untraced),
            failed / attempted,
        )
        span_file = ROOT / ".bench_out" / f"spans-{args.workload}.bin"
        tracer.write(span_file)
        out.update(
            layers=metrics,
            layer_counts_repeat=exact,
            trace_missing=tracer.missing,
            span_file=str(span_file.relative_to(ROOT)),
            spans=len(tracer.start),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(CLOCK))
