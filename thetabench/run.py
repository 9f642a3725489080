#!/usr/bin/env python3
"""Layered benchmark of the thetagib pipeline.

Usage, from the root of the repository:

    python3 thetabench/run.py --workload grading --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times whole passes of the workload, each in a
fresh interpreter, until ``--seconds`` would be exceeded (at least one
pass), and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics.  Every pass is checked against the pinned verdicts in
``reference.json``; any difference fails the run.  The last line of
standard output is the result as JSON; each run is also appended, with the
environment it ran in, to ``.thetabench/results.jsonl``, which
``compare.py`` reads.

``--pin`` re-pins ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".thetabench"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("grading", "sweep", "certify", "index_doc")

#: Fresh interpreters timed for setup_s before each pass, and at least in
#: all; their median is reported.  Spreading them over the run, like the
#: passes, keeps a short slow spell of a shared machine from setting it.
SETUP_SAMPLES_PER_PASS = 4
SETUP_SAMPLES_MIN = 12
SETUP_PROBE = ("import time; t = time.perf_counter(); import thetagib; "
               "print(time.perf_counter() - t)")
#: A pass that takes longer than this is killed and fails the run.
PASS_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def _run(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return proc.stdout


def measure_setup(samples: int) -> list[float]:
    """Seconds to ``import thetagib`` in ``samples`` fresh interpreters."""
    return [float(_run([sys.executable, "-c", SETUP_PROBE])) for _ in range(samples)]


def run_pass(workload: str, size: str, seed: int, docs: Path | None,
             trace: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--size", size, "--seed", str(seed), "--src", str(SRC)]
    if docs is not None:
        cmd += ["--docs", str(docs)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    return json.loads(_run(cmd).splitlines()[-1])


def check_pass(result: dict, expected: dict[str, list]) -> tuple[list[str], int]:
    """Differences from the reference, and the number of failed items.

    An item fails when its verdict is undecided or missing because its
    call raised.
    """
    got = result["items"]
    problems = [f"{i}: got {got[i]}, reference {v}"
                for i, v in expected.items() if i in got and got[i] != v]
    missing = [i for i in expected if i not in got]
    problems += [f"{i}: no verdict" for i in missing]
    problems += [f"{i}: not in the reference" for i in got if i not in expected]
    problems += [f"call raised:\n{e}" for e in result["errors"]]
    return problems, len(set(missing) | set(result["undecided"]))


def environment(kernel: str) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "kernel": kernel,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, size: str, seed: int, seconds: float, trace: bool,
            expected: dict[str, list], tmp: Path) -> dict:
    """Run the workload; return the run record (metrics, gate, environment)."""
    docs = None
    if workload == "index_doc":
        docs = tmp / "docs"
        docs.mkdir()
        import workloads

        workloads.write_documents(size, seed, docs)

    samples: dict[str, list[float]] = {}
    if trace:
        passes = [run_pass(workload, size, seed, docs)]
        passes.append(run_pass(workload, size, seed, docs,
                               trace=WORK / f"trace-{workload}.jsonl"))
        plain, traced = passes
        samples = {name: [v] for name, v in traced["layers"].items()}
        samples["process.cpu_s"] = [plain["cpu_s"]]
        samples["trace.overhead_s"] = [traced["verdict_s"] - plain["verdict_s"]]
    else:
        measure_setup(1)  # writes the bytecode caches
        setup: list[float] = []
        passes = []
        start = monotonic()
        while True:
            setup += measure_setup(SETUP_SAMPLES_PER_PASS)
            began = monotonic()
            passes.append(run_pass(workload, size, seed, docs))
            now = monotonic()
            if now - start + (now - began) > seconds:
                break
        samples["setup_s"] = setup + measure_setup(max(0, SETUP_SAMPLES_MIN - len(setup)))
        samples["verdict_s"] = [p["verdict_s"] for p in passes]
        samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in passes]

    problems: list[str] = []
    failed = 0
    for p in passes:
        pass_problems, pass_failed = check_pass(p, expected)
        problems += pass_problems
        failed += pass_failed
    attempted = len(expected) * len(passes)
    if not trace:
        samples["decided_frac"] = [1 - failed / attempted]
    kernels = {p["kernel"] for p in passes}
    if len(kernels) != 1:
        raise BenchmarkError(f"passes ran with different kernels: {sorted(kernels)}")
    return {
        "workload": workload, "size": size, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": environment(kernels.pop()),
        "correct": not problems, "problems": problems[:20],
        "attempted": attempted, "failed": failed,
        "how": [p["how"] for p in passes],
        "metrics": {name: _summary(v) for name, v in samples.items()},
    }


def pin(path: Path) -> None:
    """Pin every workload's verdicts, at both sizes, from the current code."""
    import workloads

    reference: dict = {}
    for size in workloads.SPECS:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                docs = None
                if workload == "index_doc":
                    docs = Path(tmp)
                    workloads.write_documents(size, 0, docs)
                result = run_pass(workload, size, 0, docs)
            if result["errors"] or result["undecided"]:
                raise BenchmarkError(f"{size} {workload}: cannot pin a failed run")
            reference.setdefault(size, {})[workload] = {
                "items": result["items"], "how": result["how"]}
            print(f"pinned {size} {workload}: {len(result['items'])} items, "
                  f"{result['how']}")
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test size")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--pin", action="store_true",
                        help="write --reference from the current code and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "thetagib" / "__init__.py").is_file():
        print(f"error: no thetagib sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    try:
        if args.pin:
            pin(args.reference)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in metrics}
        reference = json.loads(args.reference.read_text(encoding="utf-8"))
        expected = reference[args.size][args.workload]["items"]
        tmp = Path(tempfile.mkdtemp(dir=WORK))
        try:
            seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
            record = measure(args.workload, args.size, args.seed, seconds,
                             bool(args.trace), expected, tmp)
        finally:
            shutil.rmtree(tmp)
        if set(record["metrics"]) != set(units):
            raise BenchmarkError(f"measured {sorted(record['metrics'])}, "
                                 f"BENCHMARK.json names {sorted(units)}")
    except (BenchmarkError, OSError, KeyError, ValueError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"env: {json.dumps(record['env'])}")
    print(f"decided by, per pass: {json.dumps(record['how'])}")
    for problem in record["problems"]:
        print(f"VERDICT MISMATCH {problem}", file=sys.stderr)
    for name, s in record["metrics"].items():
        print(f"{name:34} {s['median']:.6g} {units[name]}  "
              f"(median of {s['n']}, quartiles {s['q1']:.6g} .. {s['q3']:.6g})")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": s["median"], "unit": units[name]}
                    for name, s in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
