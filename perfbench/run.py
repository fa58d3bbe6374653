"""dgnet-lab benchmark.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 18] [--trace 0|1]

Workloads: train-b1-exp, train-b8-gauss, cli-pipeline (see README.md). The
run sets up its inputs three times, then repeats whole rounds of the workload
until --seconds have passed, checks every output, and prints one JSON object
as its last line: the end-to-end metrics with --trace 0, or the per-layer
metrics of a traced run with --trace 1. Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import bootstrap

SETUP_REPEATS = 3
UNITS = {
    "setup_s": "s", "train_images_per_s": "images/s", "segment_images_per_s": "images/s",
    "pipeline_s": "s", "peak_rss_mb": "MB",
    "heldout_pixel_accuracy": "fraction", "final_train_loss": "nats",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train-b1-exp", "train-b8-gauss", "cli-pipeline"))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    bootstrap.pin_threads()
    t0 = time.perf_counter()
    try:
        bootstrap.import_dgnet_lab()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import checks
    import workloads
    from tracer import Tracer

    work = bootstrap.WORK / "work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    clock = workloads.Clock(tracer)
    rounds, round_s = [], []

    def one_round(clock):
        gc.collect()        # each round starts from the heap a fresh process would have
        t = time.perf_counter()
        rounds.append(workload.run_round(clock))
        return time.perf_counter() - t

    try:
        if tracer:
            tracer.install()
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.prepare(clock)
            prepare_s.append(time.perf_counter() - t)
        if tracer:
            # One untraced round is the baseline for the tracing overhead.
            tracer.uninstall()
            baseline_s = one_round(workloads.Clock())
            tracer.install()
        start = time.perf_counter()
        while True:
            round_s.append(one_round(clock))
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload.scenes.left_out:
            print(f"note: scene indices {workload.scenes.left_out} cannot be generated "
                  "(speckle retry fault) and were left out", file=sys.stderr)
        try:
            workload.check(rounds)
            correct = True
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        layer = tracer.layer_metrics()
        values = {k: v for k, (v, _) in layer.items()}
        units = {k: u for k, (_, u) in layer.items()}
        for stage in ("synth", "train", "segment", "eval"):
            values[f"cli.{stage}_s"] = statistics.fmean(clock.times[stage])
            units[f"cli.{stage}_s"] = "s"
        values["trace.overhead_pct"] = 100.0 * (statistics.median(round_s) / baseline_s - 1.0)
        units["trace.overhead_pct"] = "%"
        tracer.write(bootstrap.WORK / "traces" / f"{args.workload}-seed{args.seed}.tsv")
    else:
        values = workload.end_to_end(clock, rounds)
        values["setup_s"] = import_s + statistics.median(prepare_s)
        values["pipeline_s"] = statistics.median(round_s)
        values["peak_rss_mb"] = peak_rss_mb
        units = UNITS
    result = {
        "correct": correct,
        "attempted": workload.ops_per_round * len(rounds),
        "failed": 0,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(values.items())},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
