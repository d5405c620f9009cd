"""Tests of the benchmark itself: python3 -m pytest benchmarks -q

The smoke runs use `--seconds 0`: an untraced run then makes one op per
round, a traced run its usual short op list. All tests take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def bench(root: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    res = json.loads(stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def copy_checkout(dst: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(HERE, dst / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dst


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace, section):
    rc, out = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", str(trace))
    res = result(out)
    assert rc == 0 and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_fingerprint_fails_the_run(tmp_path, workload):
    root = copy_checkout(tmp_path)
    path = root / "benchmarks" / "fingerprints.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    for fp in recorded[workload].values():
        fp[min(fp)] = "perturbed"
    path.write_text(json.dumps(recorded), encoding="utf-8")

    args = ("--workload", workload, "--seconds", "0")
    rc, out = bench(root, *args, "--seed", str(workloads.DEFAULT_SEED))
    assert rc == 1 and result(out)["correct"] is False
    # away from the default seed only invariants are checked
    rc, out = bench(root, *args, "--seed", "1")
    assert rc == 0 and result(out)["correct"] is True


def test_checkout_without_sources_exits_nonzero_without_result(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    rc, out = bench(root, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert rc not in (0, 1) and out == ""


def test_inputs_follow_the_seed(tmp_path):
    db, shape = workloads.dense_shape_database, workloads.DENSE_SHAPES[0]
    assert db(5, shape) == db(5, shape) != db(6, shape)

    def priors(seed):
        wl = workloads.ExactAudit(seed, tmp_path)
        wl.setup()
        return [op.key for op in wl.pool()]
    assert priors(5) == priors(5)
