"""One benchmark request in a fresh interpreter.

Usage: python3 perfbench/child.py RESULT TRACE ARGV...

Imports orderkit from the checkout's ``src``, optionally installs the
tracer, then runs ``orderkit.cli.main(ARGV)``.  When main returns it writes
RESULT, a JSON object with the CLOCK_MONOTONIC times at which the import
finished and the request started and ended, the exit code, the peak RSS,
the machine's speed just before and after the request (``calibrate``), and
the per-layer totals when traced.  Exit code 97 means orderkit could not
be imported.
"""

import sys
import time

IMPORT_FAILED = 97


def calibrate(reps=5):
    """Median time of a fixed pure-Python loop, a measure of how fast the
    machine runs Python code at this moment."""
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        acc, table = 0, {}
        for i in range(20000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 1023] = i
        times.append(time.perf_counter() - started)
    return sorted(times)[reps // 2]


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, "src")
    try:
        import orderkit
        import orderkit.cli
    except ImportError as exc:
        print(f"cannot import orderkit: {exc}", file=sys.stderr)
        return IMPORT_FAILED
    ready = time.monotonic()

    import json
    import resource

    tracer = None
    if trace:
        sys.path.insert(0, "perfbench")
        import tracer as tracing

        tracer = tracing.install(orderkit)
    before = calibrate()
    start = time.monotonic()
    rc = orderkit.cli.main(argv)
    end = time.monotonic()
    sys.stdout.flush()
    record = {
        "calibration_s": (before + calibrate()) / 2,
        "ready": ready,
        "start": start,
        "end": end,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["layers"] = tracing.layer_totals(tracer.spans)
        record["enumeration"] = tracing.enumeration_counts(tracer.spans)
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
