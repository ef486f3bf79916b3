"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py``.

1. ``BENCHMARK.json`` names the workloads and metrics ``run.py`` prints.
2. Each workload runs a few rounds at a tiny size, untraced and traced,
   with every op checked and none failed.
3. One wrong answer is planted in the program's output per workload (a
   flipped verdict, a dropped anchor, a duplicated anchor) and the checks
   must count the op as failed.

Exits 0 when everything holds; takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

run.import_program()

import importlib  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

cli_mod = importlib.import_module("bloff.cli")
simnet_mod = importlib.import_module("bloff.simnet")
verify_mod = importlib.import_module("bloff.verify")

SEED = 4242


def check_benchmark_json() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != tracing.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    return problems


def tiny_runs(workdir: str) -> list[str]:
    """Every workload, untraced then traced, at a tiny size."""
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        os.makedirs(os.path.join(workdir, name))
        workload = cls(SEED, os.path.join(workdir, name))
        setup_times = [workload.setup(rep) for rep in range(2)]
        ops = run.run_rounds(workload, lambda done: done == 2)
        values = run.end_to_end(workload, setup_times, ops)
        if any(v <= 0 for v in values.values()):
            problems.append(f"{name}: an end-to-end metric is not positive: {values}")
        traced_ops, layer = run.traced(workload, SEED)
        if set(layer) != {n for n, _ in tracing.PER_LAYER}:
            problems.append(f"{name}: traced run misses per-layer metrics")
        for index, op in enumerate(ops + traced_ops):
            problems.extend(f"{name} op {index}: {p}" for p in op.problems)
    return problems


def planted(workdir: str) -> list[str]:
    """Each planted wrong answer must make its op count as failed."""
    problems = []

    # verify: the investigator path flips an Accepted verdict to Rejected.
    workload = workloads.VerifyWorkload(SEED, os.path.join(workdir, "plant-verify"))
    os.makedirs(workload.workdir)
    workload.setup(0)
    honest = verify_mod.verify_log

    def flipped(log, chain, *args, **kwargs):
        verdict = honest(log, chain, *args, **kwargs)
        if not verdict.accepted:
            return verdict
        return verify_mod.Verdict(outcome="Rejected", computed_hash=verdict.computed_hash, reason="not-found")

    k = next(k for k in range(100) if workload.case(k)[3].get("outcome") == "Accepted")
    cli_mod.verify_log = flipped
    try:
        (op,) = workload.round(k)
    finally:
        cli_mod.verify_log = honest
    if run.failed([op]) != 1:
        problems.append("verify: a flipped verdict was not counted as failed")

    # anchor: submit silently drops one record of the batch.
    workload = workloads.AnchorWorkload(SEED, os.path.join(workdir, "plant-anchor"))
    os.makedirs(workload.workdir)
    workload.setup(0)
    honest_ingest = cli_mod.ingest

    def dropping(*args, **kwargs):
        records = list(honest_ingest(*args, **kwargs))
        return iter(records[:-1])

    cli_mod.ingest = dropping
    try:
        ops = workload.round(0)
    finally:
        cli_mod.ingest = honest_ingest
    if run.failed(ops) != len(ops):
        problems.append("anchor: a dropped anchor was not counted as failed")

    # simnet: one record is submitted twice, a second later, so its digest
    # is anchored twice on every node.
    workload = workloads.SimnetWorkload(SEED, workdir)
    honest_apply = simnet_mod._apply_action

    def doubling(net, action):
        honest_apply(net, action)
        if action["type"] == "submit" and action is first_submit:
            net.genesis_timestamp += 1
            honest_apply(net, action)
            net.genesis_timestamp -= 1

    sc, logs = workloads.scenario(SEED, 0)
    first_submit = next(a for a in sc["actions"] if a["type"] == "submit")
    original_scenario = workloads.scenario
    workloads.scenario = lambda seed, k: (sc, logs)
    simnet_mod._apply_action = doubling
    try:
        (op,) = workload.round(0)
    finally:
        simnet_mod._apply_action = honest_apply
        workloads.scenario = original_scenario
    if run.failed([op]) != 1 or not any("more than once" in p for p in op.problems):
        problems.append("simnet: a duplicated anchor was not counted as failed")
    return problems


def main() -> int:
    workloads.ANCHOR_BATCHES = (3, 130)
    workloads.VERIFY_ANCHORS = 150
    workloads.SIM_RECORDS = 4
    run.TRACE_ROUNDS = {"anchor": 1, "verify": 6, "simnet": 1}
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        problems = check_benchmark_json() + tiny_runs(workdir) + planted(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
