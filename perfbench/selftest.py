"""Self-test of the checks: each must reject a deliberately perturbed result.

Run from the repository root:

    python3 perfbench/selftest.py [--workload NAME]

For each workload it runs one job, requires the real output to pass, then
feeds ``check`` perturbed copies and requires each to fail at the named
check. Exits 1 if a real output fails or a perturbation slips through.
"""

import argparse
import copy
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _set(seq, i, fn):
    seq[i] = fn(seq[i])


def _edit_line(e, i, new):
    lines = e["artifact"].decode().splitlines()
    lines[i] = new
    e["artifact"] = ("\n".join(lines) + "\n").encode()


def _edit_json(e, key, value):
    doc = json.loads(e["artifact"])
    doc[key] = value
    e["artifact"] = json.dumps(doc).encode()


def _arcsine_csv(scale=1.0, n=40000, seed=0):
    """A valid 40 000-atom measure CSV for z^2 - 2: x = 2 cos(pi U)."""
    x = scale * 2.0 * np.cos(np.pi * np.random.default_rng(seed).uniform(size=n))
    rows = "".join("%.17g,0,0,%.17g\n" % (v, 1.0 / n) for v in x)
    return ("re,im,is_infinity,weight\n" + rows).encode()


def _first_finite(crit):
    return next(i for i, c in enumerate(crit) if not c[1])


SEED = 7

# (check expected to fire, perturbation applied to a copy of the plain output)
CASES = {
    "trees": [
        ("T3 tree weights sum to d^n", lambda p: _set(p["T3"]["tree"][2], 0, lambda v: v + 1)),
        ("T3 tree R^n(x) = y", lambda p: _set(p["T3"]["tree"][0], 7, lambda v: v + 1e-5)),
        ("T3 moment 4", lambda p: _set(p["T3"]["moments"], 4, lambda v: v + 1e-8)),
        ("lattes integrate z^2", lambda p: _set(p["lattes"]["moments"], 2, lambda v: v * (1 + 1e-9))),
        ("ushiki fiber index sum", lambda p: _set(p["ushiki"]["fibers"][0][3], 0, lambda v: v + 1)),
        ("lattes fiber R(x) = w", lambda p: _set(p["lattes"]["fibers"][2][1], 1, lambda v: v + 1e-6)),
        ("ushiki Riemann-Hurwitz", lambda p: _set(p["ushiki"]["crit"], 0, lambda c: c[:2] + (c[2] + 1,))),
        ("lattes critical point W(x) = 0",
         lambda p: _set(p["lattes"]["crit"], _first_finite(p["lattes"]["crit"]),
                        lambda c: (c[0] + 1e-3,) + c[1:])),
    ],
    "walks": [
        ("z2 walk |z| = 1", lambda p: p["z2"]["walk"][0].__imul__(1.001)),
        ("zm2 walk real", lambda p: _set(p["zm2"]["walk"][0], 40, lambda r: r + 1e-5j)),
        ("T3 walk R(x_k+1) = x_k", lambda p: _set(p["T3"]["walk"][0][30], 5, lambda v: -v)),
        ("zm2 mc in [-2.0, 2.0]", lambda p: _set(p["zm2"]["mc"][0][0], 3, lambda v: 2.1)),
        ("T3 mc E x^2", lambda p: p["T3"]["mc"][0][0].__imul__(0.95)),
        ("z2 mc weights", lambda p: _set(p["z2"]["mc"][1], 0, lambda v: 1.5 * v)),
        ("z2 sample consecutive samples",
         lambda p: _set(p["sample_z2"][0], 10, lambda v: v * np.exp(1e-3j))),
        ("c02 sample bounded", lambda p: _set(p["sample_c02"][0], 0, lambda v: 3.0)),
        ("z2 sample size", lambda p: p.__setitem__("sample_z2", (p["sample_z2"][0][1:], p["sample_z2"][1][1:]))),
    ],
    "operator": [
        ("z2 KMS level 0 is a(y)", lambda p: _set(p["kms_z2"]["levels"][0], 0, lambda v: v + 1e-6)),
        ("z2 KMS levels >= 1 vanish", lambda p: _set(p["kms_z2"]["levels"][3], 0, lambda v: v + 1e-8)),
        ("z2 Lyubich value of z^j is 0", lambda p: p["kms_z2"].__setitem__("lyubich_value", 1e-8)),
        ("c02 KMS final sup variation", lambda p: _set(p["kms_c02"]["levels"][-1], 0, lambda v: v + 1e-5)),
        ("c02 Lyubich gap", lambda p: p["kms_c02"].__setitem__("lyubich_gap", 2e-3)),
        ("KMS defect off beta", lambda p: p.__setitem__("kms_defect", p["kms_defect"] + 1e-11)),
        ("witness report", lambda p: p["witness"]["report"].__setitem__("passed", False)),
        ("witness (u|au)(y) = 1", lambda p: p["witness"]["u"][0].__imul__(1.0001)),
        ("witness norm bound",
         lambda p: p["witness"]["report"].__setitem__("norm_a", p["witness"]["report"]["eps"] + 100.0)),
        ("lemma 3.1 defect", lambda p: p.__setitem__("lemma31", 1e-8)),
        ("frame partition of unity", lambda p: p["frame"][0].__iadd__(0.01)),
        ("frame delta defect", lambda p: p.__setitem__("frame_defect", 1e-8)),
    ],
    "cli": [
        ("help usage line", lambda p: p["help"].__setitem__("stdout", "")),
        ("cli cloud in [-2.0, 2.0]", lambda p: _edit_line(p["cloud"], 1, "2.5,0,0")),
        ("cli cloud consecutive samples", lambda p: _edit_line(p["cloud"], 2, "0.5,0,0")),
        ("render: filled unit disc of z^2",
         lambda p: p["render"].__setitem__("artifact", p["render"]["artifact"][:-300] + b"\0"
                                           + p["render"]["artifact"][-299:])),
        ("mc weights sum to 1", lambda p: _edit_line(p["mc"], 1, "0.5,0,0,0.003")),
        ("kms z^2 levels >= 1 vanish", lambda p: _edit_line(p["kms"], 30, "3,5,1e-6,0")),
        ("witness uau_min", lambda p: _edit_json(p["witness"], "uau_min", 0.99)),
        ("info Riemann-Hurwitz", lambda p: p["info"].__setitem__(
            "stdout", p["info"]["stdout"].replace("6 expected 6", "5 expected 6"))),
        ("verify lattes", lambda p: p["verify"].__setitem__(
            "stdout", p["verify"]["stdout"].replace("lattes: passed", "lattes: FAILED"))),
        ("cli mc40k E x^2", lambda p: p.__setitem__("mc40k", {"stdout": "", "artifact": _arcsine_csv(0.9)})),
    ],
}


def expect_failure(w, inp, plain, want):
    try:
        w.check(inp, plain)
    except CheckFailed as exc:
        if str(exc).startswith(want):
            return f"caught   {want}"
        return f"MISSED   {want} (failed elsewhere first: {exc})"
    return f"MISSED   {want} (check passed)"


def run(name, lib, seed):
    w = W.WORKLOADS[name]()
    seq = np.random.SeedSequence([seed, 99])
    rngs = [np.random.default_rng(s) for s in seq.spawn(2)]
    inp = w.setup(lib, rngs[0], rngs[1:])[-1]
    op = W.Ops()
    plain = w.extract(lib, inp, w.job(lib, inp, op, False))
    lines = []
    try:
        if name == "cli":
            # a working 40 000-sample command would have to pass the same check
            plain["mc40k"] = {"stdout": "", "artifact": _arcsine_csv()}
        w.check(inp, plain)
        lines.append(f"passes   {name}: real output ({op.attempted} operations, "
                     f"{op.failed} failed)")
        for want, mutate in CASES[name]:
            bad = copy.deepcopy(plain)
            mutate(bad)
            if name == "cli":
                w.first = {}   # let the content check, not byte identity, judge
            lines.append(expect_failure(w, inp, bad, want))
        if name == "cli":
            w.first = {k: v.get("artifact", v["stdout"]) for k, v in plain.items()}
            bad = copy.deepcopy(plain)
            bad["cloud"]["artifact"] += b"\n"
            lines.append(expect_failure(w, inp, bad, "cloud byte-identical"))
            try:
                W._run_command([sys.executable, "-c", "import sys; sys.exit(3)"], w.env)
                lines.append("MISSED   a nonzero exit code is a failed operation")
            except W.CommandFailed:
                lines.append("caught   a nonzero exit code is a failed operation")
    except CheckFailed as exc:
        lines.append(f"FAILS    {name}: real output: {exc}")
    finally:
        if hasattr(w, "close"):
            w.close()
    return lines


def main():
    ap = argparse.ArgumentParser(description="check that every check can fail")
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS), action="append")
    args = ap.parse_args()
    # the cli workload's commands import ratdyn from the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    lib = W.load_lib()
    bad = 0
    for name in args.workload or ("trees", "walks", "operator", "cli"):
        for line in run(name, lib, SEED):
            print(f"{name:9s} {line}", flush=True)
            bad += not line.startswith(("caught", "passes"))
    print("selftest: " + ("all checks catch their perturbation" if not bad
                          else f"{bad} problem(s)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
