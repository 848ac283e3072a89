"""Two-clock benchmark of the CM-2 convolution compiler reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload solo_large --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics from spans recorded around
each layer's entry points (see ``tracing.py``).  Either way the run
checks every op's output word for word against the reference
interpreter, proves the check can fail on a flipped word, prints each
metric with its unit and an environment record, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md
in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Rounds per run, each one cold start plus warm ops; setup_s is the
#: median of the cold starts.
ROUNDS = 5
#: Warm ops of each kind measured at least, however short
#: ``--seconds`` is.
MIN_OPS = 5

END_TO_END = {
    "setup_s": "s",
    "op_s_p90": "s",
    "updates_per_s": "1/s",
    "modeled_gflops": "Gflop/s",
    "peak_rss_mb": "MiB",
    "ops_ok_frac": "fraction",
}

PER_LAYER = {
    "fortran.parse_s": "s",
    "compiler.compile_s": "s",
    "compiler.select_depth_s": "s",
    "compiler.block_depth": "count",
    "compiler.cache_hit_frac": "fraction",
    "halo.exchange_s": "s",
    "halo.exchanges": "count",
    "halo.bytes_computed": "B",
    "executor.taps_s": "s",
    "executor.updates": "count",
    "executor.bytes_computed": "B",
    "executor.ops_per_byte": "flop/B",
    "blocking.blocked_s": "s",
    "blocking.redundant_points": "count",
    "abft.seal_s": "s",
    "abft.verify_s": "s",
    "abft.seals": "count",
    "abft.verifies": "count",
    "batch.exchange_s": "s",
    "batch.taps_s": "s",
    "batch.host_half_strips": "count",
    "cm_array.distribute_s": "s",
    "cm_array.gather_s": "s",
    "machine.exact_s": "s",
    "machine.cycles": "count",
    "machine.cycles_per_s": "1/s",
    "modeled.comm_cycles": "count",
    "modeled.compute_cycles": "count",
    "modeled.abft_cycles": "count",
    "op.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def _import_program():
    """Import the program under test from ``src/`` of this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import check  # noqa: F401  (imports repro)
    import tracing  # noqa: F401
    import workloads  # noqa: F401


def environment(seed):
    import numpy as np

    def git_commit():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    cpu = platform.processor() or None
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
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
    }


def _cold_reset():
    """Forget every compiled plan, depth choice and strip schedule."""
    from repro.compiler.driver import clear_compile_cache
    from repro.runtime.strips import StripSchedule

    clear_compile_cache()
    StripSchedule._cache.clear()
    StripSchedule._cache_keepalive.clear()


def _lookups():
    from repro.compiler.driver import compile_cache_info, depth_cache_info

    plan, depth = compile_cache_info(), depth_cache_info()
    return plan[0] + depth[0], plan[1] + depth[1]


def _percentile(values, pct):
    """Linear-interpolated percentile (inclusive method), 0 < pct < 100."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload, seed, seconds, trace):
    """One run: rounds of a cold start and warm ops, then the check."""
    import numpy as np

    import check
    import tracing

    rng = np.random.default_rng(seed)
    inputs = workload.inputs(rng)
    tracer = tracing.Tracer()
    ledger = check.Ledger()

    # ROUNDS rounds, each a cold start (caches cleared, timed through
    # the first result) and then warm ops for an equal share of
    # ``seconds``, so both kinds of sample are spread over the run.
    # Under --trace 1 every other warm op is traced; the untraced ones
    # give the tracing overhead.
    setup_times, setup_spans = [], []
    op_times, traced_times, op_rows = [], [], []
    hits = lookups = 0
    state = run = None
    for round_index in range(ROUNDS):
        state = run = None
        gc.collect()
        _cold_reset()
        with _traced(tracer, "setup", trace) as span:
            start = perf_counter()
            state = workload.setup(inputs)
            run = workload.op(state)
            output = workload.output(run)
            setup_times.append(perf_counter() - start)
        setup_spans.append(span)
        ledger.record(output)

        hits0, misses0 = _lookups()
        deadline = perf_counter() + seconds / ROUNDS
        want = -(-MIN_OPS * (round_index + 1) // ROUNDS)
        index = 0
        elapsed = 0.0
        # Start another op only when at least half of it fits.
        while perf_counter() + elapsed / 2 < deadline or min(
            len(op_times), len(traced_times) if trace else want
        ) < want:
            on = bool(trace) and index % 2 == 1
            index += 1
            gc.collect()
            try:
                with _traced(tracer, "op", on) as span:
                    start = perf_counter()
                    result = workload.op(state)
                    elapsed = perf_counter() - start
            except Exception as exc:  # a failed op is counted, not fatal
                ledger.raised(exc)
                continue
            run = result
            ledger.record(workload.output(run))
            if on:
                traced_times.append(elapsed)
                op_rows.append(tracing.op_layers(span))
            else:
                op_times.append(elapsed)
        hits1, misses1 = _lookups()
        hits += hits1 - hits0
        lookups += (hits1 - hits0) + (misses1 - misses0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Off the clock: the reference interpreter, then the flipped-word
    # self-test through the same counting.
    reference = workload.reference(inputs, state)
    ledger.settle(reference)
    ledger.self_test = check.flipped_word_caught(reference, rng)

    # The bounded op time is the 90th percentile, not the median: the
    # host's clock switches between a fast, jittery state and a steady
    # slow one about 1.4x slower for tens of seconds to minutes at a
    # time, so a run's median lands wherever the states' mix puts it,
    # while its upper tail sits at the slow state in nearly every run.
    op_s = _percentile(op_times, 90)
    op_s_p50 = statistics.median(op_times)
    samples = {
        "setup_s": len(setup_times),
        "op_s_p90": len(op_times),
        "updates_per_s": len(op_times),
        "peak_rss_mb": 1,
        "modeled_gflops": 1,
        "ops_ok_frac": ledger.attempted,
    }
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s_p90": op_s,
        "updates_per_s": workload.updates_per_op() / op_s,
        "modeled_gflops": run.gflops,
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }
    record = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "op_s": op_times,
        "setup_s": setup_times,
        "op_s_p25": _percentile(op_times, 25),
        "op_s_p50": op_s_p50,
        "op_s_p75": _percentile(op_times, 75),
        "ops_failed_frac": ledger.failed / ledger.attempted,
        "self_test": ledger.self_test,
        "errors": ledger.errors[:5],
    }
    if trace:
        stats = run.fault_stats
        layers = {
            **tracing.medians([tracing.setup_layers(s) for s in setup_spans]),
            **tracing.medians(op_rows),
            "compiler.block_depth": _block_depth(run),
            # No lookup at all means nothing was recompiled either.
            "compiler.cache_hit_frac": (
                hits / lookups if lookups else 1.0
            ),
            "batch.host_half_strips": getattr(run, "host_half_strips", 0),
            "modeled.comm_cycles": _comm_cycles(run),
            "modeled.compute_cycles": _compute_cycles(run),
            "modeled.abft_cycles": stats.abft_cycles,
            "trace.overhead_frac": (
                statistics.median(traced_times) / op_s_p50 - 1.0
            ),
        }
        metrics = {name: layers[name] for name in PER_LAYER}
        samples = {name: len(op_rows) for name in PER_LAYER}
        for name in ("fortran.parse_s", "compiler.compile_s",
                     "cm_array.distribute_s", "cm_array.gather_s"):
            samples[name] = len(setup_spans)
        record["traced_op_s_p50"] = statistics.median(traced_times)
    record["samples"] = samples
    return ledger, metrics, record, tracer


def _block_depth(run):
    depths = getattr(run, "block_depths", None)
    return max(depths) if depths else run.block_depth


def _comm_cycles(run):
    total = getattr(run, "comm_cycles_total", None)
    return run.total_comm_cycles if total is None else total


def _compute_cycles(run):
    total = getattr(run, "compute_cycles_total", None)
    return run.total_compute_cycles if total is None else total


@contextmanager
def _traced(tracer, name, on):
    """A span named ``name`` with every layer binding routed through
    ``tracer`` -- or, when ``on`` is false, nothing at all."""
    if not on:
        yield None
        return
    import tracing

    with tracing.installed(tracer), tracer.span(name) as span:
        yield span


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    ledger, metrics, record, tracer = measure(
        workload, args.seed, args.seconds, args.trace
    )
    for error in ledger.errors[:5]:
        print(f"perfbench: op failed: {error}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    record["environment"] = environment(args.seed)
    record["metrics"] = metrics

    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]}")
    print(
        f"ops attempted {ledger.attempted}, failed {ledger.failed}; "
        f"flipped-word self-test {'caught' if ledger.self_test else 'MISSED'}"
    )
    print(json.dumps({"environment": record["environment"],
                      "samples": record["samples"]}))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if args.trace:
        tracer.write_chrome(OUT / f"{stem}.trace.json", record["environment"])

    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
