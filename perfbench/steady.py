"""Steadiness of the end-to-end metrics over repeated runs.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --label A
    python3 perfbench/steady.py --compare perfbench/out/steady-A.json perfbench/out/steady-B.json

Each round runs every workload of BENCHMARK.json once (or those named
with --workload), one run at a time, with a new seed per round; odd
rounds take the workloads in reverse order. It prints, per
workload and metric, the median, the quartiles and the spread (quartile
distance over the median, as statistics.quantiles gives them), and the
share of failed operations. --compare sets two such files against the
bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("trees", "walks", "operator", "cli")


def load(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {r.returncode}: {r.stderr[-500:]}")
    return json.loads(r.stdout.splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def collect(args):
    spec = load("BENCHMARK.json")
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    for r in range(args.runs):
        order = names if r % 2 == 0 else names[::-1]
        for w in order:
            res = one_run(w, args.first_seed + r, seconds)
            runs[w].append(res)
            print(f"round {r} {w}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
    return {"seconds": seconds, "first_seed": args.first_seed, "runs": runs}


def report(data):
    out = {}
    for w, results in data["runs"].items():
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        out[w] = {}
        for m in results[0]["metrics"]:
            s = summary([r["metrics"][m]["value"] for r in results])
            out[w][m] = s
            print(f"  {m:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{100 * s['spread']:7.2f}%")
    return out


def compare(path_a, path_b):
    spec = load("BENCHMARK.json")
    a, b = (report(load(p)) for p in (path_a, path_b))
    print(f"\n{'workload':9s} {'metric':14s} {'bound':>6s} {'spreadA':>8s} {'spreadB':>8s} "
          f"{'worse':>8s}  verdict")
    ok = True
    for m in spec["end_to_end"]:
        for w in a:
            sa, sb = a[w][m["name"]], b[w][m["name"]]
            shift = (sb["median"] - sa["median"]) / sa["median"]
            worse = shift if m["better"] == "lower" else -shift
            good = worse <= m["bound"] and (m["name"] == "setup_s" or
                                            max(sa["spread"], sb["spread"]) <= m["bound"])
            ok &= good
            print(f"{w:9s} {m['name']:14s} {m['bound']:6.2f} {100 * sa['spread']:7.2f}% "
                  f"{100 * sb['spread']:7.2f}% {100 * worse:7.2f}%  {'ok' if good else 'OUT'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--label", default="latest")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    data = collect(args)
    report(data)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{args.label}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
