"""Self-tests of the benchmark: every workload at its tiny size, the verdict
gate, and the refusals.

    python -m pytest thetabench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT, script="run.py"):
    return subprocess.run([sys.executable, str(Path("thetabench") / script), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _tiny(workload, *, seed=1, trace=0, extra=()):
    return _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny", *extra)


def _result(proc):
    return json.loads(proc.stdout.splitlines()[-1])


# the untraced runs use one seed and the traced runs another, since
# verdicts must not depend on the seed
@pytest.mark.parametrize("trace,seed", [(0, 1), (1, 2)])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_passes_gate(workload, trace, seed):
    proc = _tiny(workload, seed=seed, trace=trace)
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert res["metrics"]["decided_frac"]["value"] == 1
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_certify_counts_the_certification():
    layers = _result(_tiny("certify", trace=1))["metrics"]
    assert layers["exact_linalg.certify_calls"]["value"] == 1
    assert layers["gib_checker.certified"]["value"] == 1
    assert layers["exact_linalg.certify_s"]["value"] > 0


def test_tampered_reference_fails_gate(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    items = reference["tiny"]["certify"]["items"]
    item_id = next(iter(items))
    items[item_id][1] += 1  # the pinned index
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    proc = _tiny("certify", extra=("--reference", str(path)))
    assert proc.returncode != 0
    assert _result(proc)["correct"] is False
    assert item_id in proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "thetabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "grading", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_mixed_kernels(tmp_path):
    record = {"size": "full", "workload": "grading", "env": {"kernel": "pure"},
              "metrics": {"verdict_s": {"median": 5.0}}}
    base = tmp_path / "base.jsonl"
    base.write_text(json.dumps(record) + "\n", encoding="utf-8")
    same = _bench(str(base), str(base), script="compare.py")
    assert same.returncode == 0 and "verdict_s" in same.stdout
    record["env"]["kernel"] = "compiled"
    head = tmp_path / "head.jsonl"
    head.write_text(json.dumps(record) + "\n", encoding="utf-8")
    mixed = _bench(str(base), str(head), script="compare.py")
    assert mixed.returncode == 1 and "kernel" in mixed.stderr
