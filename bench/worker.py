"""One fresh worker process: set up, run every check of a workload, report.

Usage (from ``run.py``; the spec arrives as JSON on stdin)::

    PYTHONPATH=src python3 bench/worker.py < spec.json

The spec holds ``workload``, ``inputs``, ``mode`` (``run`` or ``setup``)
and ``trace`` (a path for the span file, or null).  The worker prints one
JSON line with its clock readings (CLOCK_MONOTONIC, comparable with the
parent's spawn time), per-check latencies and verdicts, peak RSS, the
outputs for the correctness gate and, when traced, the layer report.

Engine caches are process-wide and unbounded, so every measured run gets a
process of its own: a second run in the same process would measure a warm
engine that no ``qmb`` call or test run ever sees.
"""

import json
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    spec = json.load(sys.stdin)
    import qmatball
    from workloads import RUNNERS

    tracer = None
    if spec["trace"]:
        from layers import layer_report, make_hooks
        from tracer import Tracer

        if spec["workload"] == "oprep-2x2":
            import qmatball.cli  # noqa: F401  (wrap the cli layer too)
        tracer = Tracer(qmatball).install(make_hooks())
    runner = RUNNERS[spec["workload"]](spec["inputs"])
    t_ready = now()
    out = {"t_ready": t_ready}
    if spec["mode"] == "run":
        latencies, verdicts, errors = [], [], []
        for label, check in runner.checks():
            t0 = now()
            try:
                if tracer is None:
                    verdict = check()
                else:
                    with tracer.check(label):
                        verdict = check()
            except Exception as exc:  # a raising check counts as failed
                verdict = None
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
            latencies.append(now() - t0)
            verdicts.append(verdict)
        out["t_verdict"] = now()
        if tracer is not None:
            tracer.finish()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["latencies_s"] = latencies
        out["verdicts"] = verdicts
        out["errors"] = errors[:20]
        if tracer is not None:
            out["layers"] = layer_report(tracer)
            with open(spec["trace"], "w") as fh:
                json.dump(
                    {"workload": spec["workload"], "layers": out["layers"],
                     "profile": tracer.profile()[:200], "caches": tracer.cache_info(),
                     "spans": tracer.spans()},
                    fh,
                )
        # the correctness gate's inputs, computed after the timed window
        out["outputs"] = runner.outputs()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
