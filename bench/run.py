#!/usr/bin/env python3
"""The repository benchmark: end-to-end metrics, layer metrics, correctness.

Run from the repository root::

    python3 bench/run.py --workload invariance-2x2 --seed 1 --seconds 40 --trace 0

``--trace 0`` runs fresh untraced workers, one after another, until the next
one would overrun ``--seconds`` (always at least one), and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced worker
and reports the per-layer metrics.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md`` for the workloads, the
metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS as PER_LAYER
from workloads import SIZES, WORKLOADS, expected_verdicts, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
EXPECTED = json.loads((BENCH / "expected.json").read_text())
SETUP_PROBES = 8  # set-up-only workers per run, after one uncounted warm-up
WORKER_TIMEOUT_S = 150

# gated end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "checks_per_s": "1/s"}
# reported, not gated: gram-2x2's checks differ in size with the drawn points
# and oprep-2x2 makes one call per worker, so these are steady on
# invariance-2x2 only
LATENCY = {"check_p50_ms": 0.50, "check_p99_ms": 0.99}


class BenchError(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def env_stamp() -> dict:
    """Where and when the numbers were taken (read-only)."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            sha = ref
    try:
        load1 = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load1 = os.getloadavg()[0] if hasattr(os, "getloadavg") else None
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_1m": load1}


def spawn(spec: dict) -> dict:
    """Run one fresh worker; add its spawn time to the result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    t_spawn = now()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["t_spawn"] = t_spawn
    return out


def gate(workload: str, size: str, inputs: dict, res: dict) -> tuple:
    """Pass/fail of every check of one worker: verdicts, digests, oracle.

    Returns (attempted, failed, notes).  A digest mismatch fails every check
    whose output it covers.
    """
    want = EXPECTED[workload][size]
    out = res["outputs"]
    notes = list(res["errors"])
    expected = expected_verdicts(workload, inputs)
    verdicts = res["verdicts"]
    if workload == "oprep-2x2":
        # the single call's verdicts are the PASS/FAIL lines it printed
        lines = out["verdicts"]
        same = verdicts == expected and out["stdout_sha256"] == want["stdout_sha256"]
        if not same:
            notes.append(f"rep-check exit {verdicts}, stdout digest {out['stdout_sha256']}")
        return want["checks"], sum(
            not (same and i < len(lines) and lines[i].startswith("PASS"))
            for i in range(want["checks"])
        ), notes
    ok = [v == e for v, e in zip(verdicts, expected)]
    ok += [False] * (len(expected) - len(ok))
    if workload == "invariance-2x2":
        if out["integrals_sha256"] != want["integrals_sha256"]:
            notes.append(f"integral digest {out['integrals_sha256']}")
            ok = [False] * len(ok)
        bad = {tuple(pr) for pr, good in zip(inputs["oracle"], out["oracle_ok"]) if not good}
        if bad:
            notes.append(f"integral_nu differs from integral_nu_trace on {sorted(bad)}")
            ok = [o and (p, r) not in bad for o, (p, r, _) in zip(ok, inputs["order"])]
    else:
        # checks 2k and 2k+1 are the minors of Gram block k at the two points
        for k, (got, exp) in enumerate(zip(out["gram_sha256"], want["gram_sha256"])):
            if got != exp:
                notes.append(f"Gram block {k} digest {got}")
                ok[2 * k] = ok[2 * k + 1] = False
    notes += [f"check {i}: got {v!r}, expected {e!r}"
              for i, (v, e) in enumerate(zip(verdicts, expected)) if v != e]
    return len(ok), ok.count(False), notes


def wall_of(worker: dict) -> float:
    return worker["t_verdict"] - worker["t_spawn"]


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p * len(xs)) - 1)]


def run_untraced(workload: str, inputs: dict, seconds: float) -> tuple:
    t_start = now()
    spec = {"workload": workload, "inputs": inputs, "mode": "setup", "trace": None}
    spawn(spec)  # warm-up: byte-compiles, fills the page cache
    setups = []
    for _ in range(SETUP_PROBES):
        r = spawn(spec)
        setups.append(r["t_ready"] - r["t_spawn"])
    spec["mode"] = "run"
    workers = []
    while True:
        workers.append(spawn(spec))
        if now() - t_start + statistics.median(map(wall_of, workers)) > seconds:
            break
    setups += [w["t_ready"] - w["t_spawn"] for w in workers]
    return workers, setups


def end_to_end(workload: str, size: str, workers: list, setups: list) -> dict:
    checks = EXPECTED[workload][size].get("checks", len(workers[0]["verdicts"]))
    values = {
        "wall_s": [wall_of(w) for w in workers],
        "setup_s": setups,
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        "checks_per_s": [checks / (w["t_verdict"] - w["t_ready"]) for w in workers],
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        value = statistics.median(values[name])
        print(f"{name} = {value:.6g} {unit}  (median of {len(values[name])})")
        metrics[name] = {"value": value, "unit": unit}
    print("wall_s per worker: " + " ".join(f"{x:.4g}" for x in values["wall_s"]))
    lat_ms = [x * 1e3 for w in workers for x in w["latencies_s"]]
    for name, p in LATENCY.items():
        print(f"{name} = {percentile(lat_ms, p):.6g} ms  (of {len(lat_ms)} checks)")
    return metrics


def run_traced(workload: str, inputs: dict, seed: int) -> tuple:
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{workload}-seed{seed}.json"
    spec = {"workload": workload, "inputs": inputs, "mode": "run", "trace": None}
    plain = spawn(spec)
    spec["trace"] = str(trace_file)
    traced = spawn(spec)
    layers = traced["layers"]
    layers["trace.overhead_share"] = wall_of(traced) / wall_of(plain) - 1
    print(f"traced wall_s = {wall_of(traced):.6g} s, untraced wall_s = {wall_of(plain):.6g} s")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    for name, unit in PER_LAYER.items():
        print(f"{name} = {layers[name]:.6g} {unit}")
    return [plain, traced], {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the same workload at 1x2, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "qmatball" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}", file=sys.stderr)
        return 2
    stamp = env_stamp()
    print("env: " + json.dumps(stamp))
    inputs = make_inputs(args.workload, args.size, args.seed)
    print(f"workload {args.workload} ({args.size}: {SIZES[args.workload][args.size]}), "
          f"seed {args.seed}, {'traced' if args.trace else f'{args.seconds:g} s budget'}")
    try:
        if args.trace:
            workers, metrics = run_traced(args.workload, inputs, args.seed)
        else:
            workers, setups = run_untraced(args.workload, inputs, args.seconds)
            metrics = end_to_end(args.workload, args.size, workers, setups)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = failed = 0
    for w in workers:
        a, f, notes = gate(args.workload, args.size, inputs, w)
        attempted, failed = attempted + a, failed + f
        for note in notes[:10]:
            print(f"gate: {note}")
    print(f"fail_ratio = {failed / attempted:.6g}  ({failed} of {attempted} checks, "
          f"{len(workers)} workers)")
    print("env at end: loadavg_1m " + json.dumps(env_stamp()["loadavg_1m"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
