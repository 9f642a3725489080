"""One pass of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 worker.py --workload W --size S --seed N
[--docs DIR] [--trace FILE]`` with the package's ``src`` directory on
PYTHONPATH.  The last line of standard output is a JSON object: the pass's
timings, its verdict items and, with ``--trace``, the per-layer metrics.
The spans go to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=Path)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--src", type=Path, required=True,
                        help="the source tree the package must be imported from")
    args = parser.parse_args(argv)

    import thetagib

    if Path(thetagib.__file__).resolve().parent != (args.src / "thetagib").resolve():
        print(f"error: thetagib imported from {thetagib.__file__}, not {args.src}",
              file=sys.stderr)
        return 1
    import workloads

    calls = workloads.requests(args.workload, args.size, args.seed, args.docs)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    items: list = []
    errors: list[str] = []
    cpu0 = process_time()
    t0 = perf_counter()
    for k, call in enumerate(calls):
        if tracer:
            tracer.request = k
        try:
            items.extend(call())
        except Exception:  # a raised call counts as failed, and the run goes on
            errors.append(traceback.format_exc())
    verdict_s = perf_counter() - t0
    cpu_s = process_time() - cpu0

    result = {
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel": "compiled" if thetagib.USING_COMPILED_KERNEL else "pure",
        "items": {item_id: values for item_id, values, _, _ in items},
        "undecided": sorted(item_id for item_id, _, _, undecided in items if undecided),
        "how": dict(Counter(how for _, _, how, _ in items if how is not None)),
        "errors": errors,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write(args.trace, args.workload, t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
