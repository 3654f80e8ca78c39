"""Run one benchmark workload; the last line of stdout is its JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload trees --seed 1 --seconds 30 --trace 0

The workload runs in a fresh worker process (worker.py). Set-up is timed
here, from spawning a worker to its READY line, over several spawns. With
--trace 1 the worker repeats its jobs under the per-layer tracer and the
result holds the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

SETUP_SPAWNS = 3       # set-up is the median over this many worker starts
DEADLINE_S = 170.0     # the whole run, set-up spawns included
TAIL_MIN_JOBS = 40     # a tail percentile needs ten jobs beyond it


def run_worker(args, env, setup_only, deadline):
    """Spawn a worker; return (seconds until READY, its later stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    ready = None
    buf = b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - monotonic()
                if left <= 0:
                    raise TimeoutError("workload did not finish in time")
                if not sel.select(left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                if ready is None and b"\n" in buf:
                    ready = perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = buf.decode().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "READY":
        raise RuntimeError(f"worker exited {proc.returncode}")
    return ready, lines[1:]


def import_cost(env, reps=5):
    """Median wall time of `import ratdyn` in a fresh interpreter, less a bare start."""
    bare, imp = [], []
    for _ in range(reps):
        for code, acc in (("pass", bare), ("import ratdyn", imp)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            acc.append(perf_counter() - t0)
    return statistics.median(imp) - statistics.median(bare)


def tail(job_s):
    """(percentile, seconds) with ten jobs beyond it, or None below 40 jobs."""
    n = len(job_s)
    if n < TAIL_MIN_JOBS:
        return None
    return 100.0 * (n - 10) / n, sorted(job_s)[n - 11]


def end_to_end(rec, ready):
    job_s = rec["job_s"]
    return {
        "setup_s": {"value": statistics.median(ready), "unit": "s"},
        "jobs_per_s": {"value": rec["verified"] / sum(job_s), "unit": "1/s"},
        "job_s_p50": {"value": statistics.median(job_s), "unit": "s"},
        "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(rec, env):
    traced = rec["traced"]
    metrics = tracing.layer_metrics(traced["trace"], len(traced["job_s"]))
    metrics["cli.import_s"] = {"value": import_cost(env), "unit": "s"}
    over = sum(traced["job_s"]) / sum(rec["job_s"]) - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * over, "unit": "%"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("trees", "walks", "operator", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ratdyn", "__init__.py")):
        print("perfbench: no ratdyn sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    try:
        ready = [run_worker(args, env, True, deadline)[0] for _ in range(SETUP_SPAWNS - 1)]
        first, lines = run_worker(args, env, False, deadline)
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 3
    ready.append(first)
    rec = json.loads(lines[-1])

    failures = rec["check_failures"] + rec.get("traced", {}).get("check_failures", 0)
    metrics = per_layer(rec, env) if args.trace else end_to_end(rec, ready)
    info = {"workload": args.workload, "seed": args.seed, "jobs": rec["jobs"],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy_blas": rec["env"], "setup_spawns_s": ready, "job_s": rec["job_s"],
            "tail": tail(rec["job_s"]), "errors": rec["errors"][:20]}
    for err in sorted(set(rec["errors"]))[:10]:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
    t = info["tail"]
    print(f"{args.workload}: {rec['jobs']} jobs, seed {args.seed}, "
          f"job_s_p50 {statistics.median(rec['job_s']):.4f} s"
          + (f", job_s_tail p{t[0]:.1f} {t[1]:.4f} s" if t else ", no tail below 40 jobs"))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump({**info, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": failures == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
