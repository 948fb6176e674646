"""One benchmark operation: a fresh interpreter that runs pfzeros CLI tasks.

Usage: python bench/child.py OPERATION_JSON

The operation file gives the source directory the package must come from,
the CLI argument lists, whether to trace, and where to write the record.
Timestamps are CLOCK_MONOTONIC, which the parent process shares, so the
parent can measure set-up time from the moment it launched this interpreter.
"""

import time  # isort: skip
import pfzeros.cli  # isort: skip  # the set-up the benchmark times ends here

T_IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _run_task(argv: list[str]) -> int:
    try:
        return pfzeros.cli.main(argv)
    except SystemExit as exc:  # argparse errors exit through SystemExit
        return exc.code if isinstance(exc.code, int) else 2


def _bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        op = json.load(fh)
    src = os.path.realpath(op["src"])
    if not os.path.realpath(pfzeros.cli.__file__).startswith(src + os.sep):
        print(f"pfzeros was imported from {pfzeros.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if op["trace"]:
        import layertrace

        tracer = layertrace.install()
    t_start = time.monotonic()
    codes = [_run_task(argv) for argv in op["tasks"]]
    t_end = time.monotonic()
    record = {
        "t_imported": T_IMPORTED,
        "t_start": t_start,
        "t_end": t_end,
        "codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.bytes_written"] = _bytes_written(op["out_dir"])
        record["layers"] = layers
        record["spans"] = [[sid, *span] for sid, span in sorted(tracer.spans.items())]
    with open(op["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
