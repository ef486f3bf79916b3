"""Benchmark of bloff's three journeys: anchor, verify and simnet.

Usage, from the repository root:

    python3 perfbench/run.py --workload anchor --seed 1 --seconds 20 --trace 0

One process runs one workload, single-threaded, in a closed loop: set-up
(timed apart), then whole rounds of ops until ``--seconds`` have passed.
Every op's output is checked against a computation made apart from the
program; an op with any problem counts as failed. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a fixed
list of rounds twice, first untraced and then traced, and prints the
per-layer metrics of the traced pass with its overhead against the
untraced one. Spans go to ``perfbench/out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("bytes_per_record", "B"),
    ("peak_rss_mb", "MB"),
]

# Rounds in a traced run, per workload: an anchor round is a seven-op episode.
TRACE_ROUNDS = {"anchor": 2, "verify": 12, "simnet": 6}


def import_program():
    """Import bloff from this checkout's ``src``, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bloff", "__init__.py")):
        sys.exit(f"perfbench: no bloff sources under {SRC}")
    sys.path.insert(0, SRC)
    import bloff

    if os.path.dirname(os.path.dirname(os.path.abspath(bloff.__file__))) != SRC:
        sys.exit(f"perfbench: bloff was imported from {bloff.__file__}, not {SRC}")


def run_rounds(workload, stop):
    """Rounds 0, 1, ... until ``stop(rounds_done)``."""
    ops = []
    k = 0
    while not stop(k):
        if workload.tracer is not None:
            workload.tracer.op = k
        ops.extend(workload.round(k))
        k += 1
    return ops


def failed(ops) -> int:
    return sum(1 for op in ops if op.problems)


def report_problems(ops) -> None:
    for index, op in enumerate(ops):
        for problem in op.problems:
            print(f"op {index}: {problem}", file=sys.stderr)


def end_to_end(workload, setup_times, ops) -> dict[str, float]:
    records = sum(op.records for op in ops)
    busy = sum(op.seconds for op in ops)
    return {
        "setup_s": statistics.median(setup_times),
        "records_per_s": records / busy,
        "op_p50_ms": statistics.median(op.seconds for op in ops) * 1000,
        "bytes_per_record": workload.bytes_per_record(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload, seed: int):
    """Untraced pass, then traced pass, over the same fixed rounds."""
    from tracing import Tracer

    rounds = TRACE_ROUNDS[workload.name]
    plain = run_rounds(workload, lambda done: done == rounds)
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        ops = run_rounds(workload, lambda done: done == rounds)
    finally:
        tracer.uninstall()
        workload.tracer = None
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload.name}-{seed}.jsonl"))
    overhead = sum(op.seconds for op in ops) / sum(op.seconds for op in plain) - 1
    values = tracer.metrics(
        records=sum(op.records for op in ops),
        final_blocks=sum(op.final_blocks for op in ops),
    )
    values["trace.overhead_pct"] = round(overhead * 100, 3)
    return plain + ops, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["anchor", "verify", "simnet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, HERE)
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = [workload.setup(rep) for rep in range(workload.setup_reps)]
        if args.trace:
            ops, values = traced(workload, args.seed)
            units = dict(PER_LAYER)
        else:
            deadline = time.perf_counter() + args.seconds
            ops = run_rounds(workload, lambda done: time.perf_counter() >= deadline)
            values = end_to_end(workload, setup_times, ops)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_problems(ops)
    result = {
        "correct": failed(ops) == 0,
        "attempted": len(ops),
        "failed": failed(ops),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
