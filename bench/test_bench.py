"""Smoke tests of the benchmark itself (no timing bounds).

Run from the repository root with ``python3 -m pytest bench``.  Every
workload runs at its 1x2 smoke size, so the whole file takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import METRICS  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_gate(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", "0", "--size", "smoke")
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert f"{name} = " in proc.stdout and f" {unit}  (median of" in proc.stdout
    for name in run.LATENCY:
        assert f"{name} = " in proc.stdout
    assert "fail_ratio = 0" in proc.stdout
    assert '"loadavg_1m"' in proc.stdout and '"git_sha"' in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    res = result_of(bench("--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", "1", "--size", "smoke"))
    assert res["correct"] is True
    assert {k: v["unit"] for k, v in res["metrics"].items()} == METRICS
    assert (ROOT / ".bench_trace" / f"{workload}-seed7.json").is_file()


def _worker_result(workload: str, inputs: dict) -> dict:
    """A passing worker result built from the recorded outputs."""
    want = run.EXPECTED[workload]["smoke"]
    if workload == "oprep-2x2":
        return {"errors": [], "verdicts": [0], "outputs": {
            "stdout_sha256": want["stdout_sha256"], "verdicts": ["PASS  x"] * want["checks"]}}
    verdicts = run.expected_verdicts(workload, inputs)
    if workload == "invariance-2x2":
        outputs = {"integrals_sha256": want["integrals_sha256"],
                   "oracle_ok": [True] * len(inputs["oracle"])}
    else:
        outputs = {"gram_sha256": list(want["gram_sha256"])}
    return {"errors": [], "verdicts": verdicts, "outputs": outputs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_catches_a_wrong_output(workload):
    inputs = make_inputs(workload, "smoke", 7)
    good = _worker_result(workload, inputs)
    attempted, failed, _ = run.gate(workload, "smoke", inputs, good)
    assert attempted > 0 and failed == 0
    bad = json.loads(json.dumps(good))
    if workload == "oprep-2x2":
        bad["outputs"]["verdicts"][3] = "FAIL  x"
    elif workload == "invariance-2x2":
        bad["outputs"]["oracle_ok"][0] = False
    else:
        bad["verdicts"][-1] += 1  # a rank off the closed-form dimension
    assert run.gate(workload, "smoke", inputs, bad)[1] > 0
    digest_key = {"oprep-2x2": "stdout_sha256", "invariance-2x2": "integrals_sha256"}
    bad = json.loads(json.dumps(good))
    if workload in digest_key:
        bad["outputs"][digest_key[workload]] = "0" * 64
    else:
        bad["outputs"]["gram_sha256"][1] = "0" * 64
    assert run.gate(workload, "smoke", inputs, bad)[1] > 0


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
