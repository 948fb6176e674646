"""End-to-end benchmark of the pfzeros CLI on the paper's four workloads.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs operations one at a time (a closed loop) until S seconds
have passed.  Each operation is one or more CLI tasks in a fresh interpreter
(bench/child.py), so every operation pays interpreter start and import, and
no cache carries over from one operation to the next.  After the timed loop
every operation's outputs are checked (bench/workloads.py).  The last line
of standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from the outside-in trace with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

CHILD_ENV = {
    # one BLAS thread, so an operation runs no more threads than its --threads pool
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# The output checks run in this process once the timed loop ends.  With two
# BLAS threads the reference's 128x128 products took up to ten times as long,
# so this process takes one BLAS thread too; it must be set before numpy loads.
os.environ.update(CHILD_ENV)

import layertrace  # noqa: E402
from workloads import WORKLOADS, Operation, op_rng  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".bench_out"
OP_TIMEOUT_S = 60  # an operation takes seconds; a hung one must not outlast the run limit


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = src
    return env


def run_operation(op: Operation, src: str, trace: bool) -> dict | None:
    """Run one operation in a fresh interpreter; its record, or None if it failed."""
    op_dir = os.path.dirname(op.out_dir)  # the CLI outputs get a directory of their own
    os.makedirs(op.out_dir)
    spec_path = os.path.join(op_dir, "operation.json")
    record_path = os.path.join(op_dir, "record.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": src, "tasks": op.tasks, "trace": trace, "out_dir": op.out_dir,
                   "record": record_path}, fh)
    with open(os.path.join(op_dir, "stdout.log"), "w", encoding="utf-8") as out, \
            open(os.path.join(op_dir, "stderr.log"), "w", encoding="utf-8") as err:
        t_launch = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
                                  stdout=out, stderr=err, env=child_env(src), timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not os.path.exists(record_path):
        return None
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    if any(code != 0 for code in record["codes"]):
        return None
    record["t_launch"] = t_launch
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pfzeros", "cli.py")):
        print(f"no pfzeros source under {src}; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run_dir = os.path.join(OUT_ROOT, "ops", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # Untimed warm-up: compiles the package's bytecode once per checkout, a cost
    # users do not pay on every call.
    warm = subprocess.run([sys.executable, "-c", "import pfzeros.cli"], env=child_env(src),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr.decode(errors="replace"))
        return 2

    ops: list[Operation] = []
    records: list[dict | None] = []
    deadline = time.monotonic() + args.seconds
    while not ops or time.monotonic() < deadline:
        index = len(ops)
        out_dir = os.path.abspath(os.path.join(run_dir, f"op{index:04d}", "out"))
        tasks, params = workload.make(op_rng(args.seed, index), out_dir)
        op = Operation(index, out_dir, tasks, params)
        ops.append(op)
        records.append(run_operation(op, src, trace))

    errors = []
    for op, record in zip(ops, records):
        if record is not None:
            errors += [f"op {op.index}: {e}" for e in workload.check(op)]
    for e in errors:
        print(e, file=sys.stderr)
    done = [r for r in records if r is not None]
    result = {"correct": not errors, "attempted": len(ops), "failed": len(ops) - len(done)}
    if not done:
        result["metrics"] = {}
    elif trace:
        result["metrics"] = {
            name: {"value": statistics.median(r["layers"][name] for r in done), "unit": unit}
            for name, unit in layertrace.METRIC_UNITS.items()
        }
        write_trace(args, ops, records, result)
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(r["t_imported"] - r["t_launch"] for r in done),
                        "unit": "s"},
            "task_s.p50": {"value": statistics.median(r["t_end"] - r["t_start"] for r in done),
                           "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] / 1024.0 for r in done),
                            "unit": "MB"},
        }
    print(json.dumps(result))
    return 0


def write_trace(args, ops: list[Operation], records: list[dict | None], result: dict) -> None:
    """One trace file per workload: per-operation layer metrics and the first operation's spans."""
    done = [(op, r) for op, r in zip(ops, records) if r is not None]
    trace_dir = os.path.join(OUT_ROOT, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced_task_s": [r["t_end"] - r["t_start"] for _, r in done],
        "traced_setup_s": [r["t_imported"] - r["t_launch"] for _, r in done],
        "per_layer_median": {k: v["value"] for k, v in result["metrics"].items()},
        "operations": [{"index": op.index, "tasks": op.tasks, "layers": r["layers"]} for op, r in done],
        "span_fields": ["id", "key", "parent", "start_s", "end_s", "work", "failed"],
        "first_operation_spans": done[0][1]["spans"] if done else [],
    }
    with open(os.path.join(trace_dir, f"{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
