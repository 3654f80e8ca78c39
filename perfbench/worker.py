"""One workload process: set up, say READY, run the jobs, report as JSON.

Started by run.py, which times set-up from spawn to the READY line. The
process runs every job itself, one after another, on its main thread.
"""

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import TRACE_KEY, WORKLOADS, Ops, load_lib  # noqa: E402

WORKLOAD_IDS = {"trees": 1, "walks": 2, "operator": 3, "cli": 4}


def job_count(w, seconds):
    """Fixed by --seconds and the workload's nominal job cost, never by timing."""
    return max(w.min_jobs, round(seconds / w.nominal_job_s))


def blas_info():
    info = {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    info["numpy"] = np.__version__
    try:
        cfg = np.show_config(mode="dicts")
        info["blas"] = cfg["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy: no dict mode
        info["blas"] = None
    np.linalg.eigvals(np.eye(3))  # make sure the BLAS pool has started
    try:
        info["process_threads"] = len(os.listdir("/proc/self/task"))
    except OSError:
        info["process_threads"] = None
    return info


def _record():
    return {"job_s": [], "verified": 0, "attempted": 0, "failed": 0,
            "check_failures": 0, "errors": [], "trace": tracing.empty()}


def run_job(w, lib, inp, traced, rec):
    gc.collect()
    op = Ops()
    tracer = tracing.Tracer() if traced and w.name != "cli" else None
    if tracer:
        tracer.install()
    t0 = perf_counter()
    raw = w.job(lib, inp, op, traced)
    dt = perf_counter() - t0
    if tracer:
        tracer.uninstall()
        tracing.merge(rec["trace"], tracer.totals())
    plain = w.extract(lib, inp, raw)
    if TRACE_KEY in plain:
        tracing.merge(rec["trace"], plain.pop(TRACE_KEY))
    del raw
    rec["job_s"].append(dt)
    rec["attempted"] += op.attempted
    rec["failed"] += op.failed
    rec["errors"] += op.errors
    try:
        w.check(inp, plain)
        rec["verified"] += 1
    except CheckFailed as exc:
        rec["errors"].append(f"check failed: {exc}")
        rec["check_failures"] += 1


def run_jobs(w, lib, inputs, trace):
    """Run the jobs in order; with trace, each runs untraced and then traced,
    so that both passes see the same machine state."""
    recs = {False: _record(), True: _record()}
    for inp in inputs:
        for traced in ((False, True) if trace else (False,)):
            run_job(w, lib, inp, traced, recs[traced])
    rec = recs[False]
    if trace:
        rec["traced"] = recs[True]
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # --- set-up: timed by the parent up to the READY line ------------------
    lib = load_lib()
    w = WORKLOADS[args.workload]()
    n = job_count(w, args.seconds)
    seq = np.random.SeedSequence([args.seed, WORKLOAD_IDS[w.name]])
    rngs = [np.random.default_rng(s) for s in seq.spawn(n + 2)]
    inputs = w.setup(lib, rngs[0], rngs[1:])
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        if w.warm_up:
            run_jobs(w, lib, inputs[:1], False)
        jobs = inputs[1:]
        if args.trace:  # each job runs twice, so half of them keep the run near --seconds
            jobs = jobs[:max(1, len(jobs) // 2)]
        rec = run_jobs(w, lib, jobs, args.trace)
    finally:
        if hasattr(w, "close"):
            w.close()
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    rec["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    rec["jobs"] = len(jobs)
    rec["env"] = blas_info()
    print(json.dumps(rec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
