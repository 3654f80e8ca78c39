"""End-to-end CLI: grammar, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

CMD = [sys.executable, "-m", "ratdyn.cli"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          timeout=300, env=dict(os.environ))


def test_info_polynomial():
    r = run("info", "z^2")
    assert r.returncode == 0
    assert "degree: 2" in r.stdout
    assert "riemann_hurwitz: 2 expected 2 -> ok" in r.stdout


def test_info_rational_expression():
    # top-level / splits numerator and denominator; 16/27 stays a coefficient
    r = run("info", "(z^3 - 16/27)/z")
    assert r.returncode == 0
    assert "degree: 3" in r.stdout


def test_info_registry_name_and_family():
    assert "degree: 4" in run("info", "lattes").stdout
    assert "degree: 4" in run("info", "power_map_n:n=4").stdout
    assert "degree: 3" in run("info", "tchebychev_n:n=3").stdout


def test_info_points_parse_back(lattes):
    # each printed critical point and image reads back as a complex number
    from ratdyn.ratmap import critical_points
    r = run("info", "lattes")
    assert r.returncode == 0
    rows = [line.split() for line in r.stdout.splitlines()
            if line.startswith("critical: ")]
    want = [(c.point.z, c.value.z) for c in critical_points(lattes)]
    assert len(rows) == len(want) == 6
    for (_, point, _, _, _, image), pair in zip(rows, want):
        for text, w in zip((point, image), pair):
            got = complex(text.replace("i", "j"))
            assert abs(got - w) <= 1e-12 * max(1.0, abs(w)), (text, w)


def test_parse_errors_exit_2():
    assert run("info", "zz^^").returncode == 2
    assert run("info", "z^").returncode == 2
    for expr in ("1e400*z^2", "(1e200*z+1)^2"):   # coefficients overflow
        r = run("info", expr)
        assert r.returncode == 2
        assert r.stderr == "error: map coefficients must be finite\n"
    assert run("verify", "no_such_example").returncode == 2
    assert run("preimage", "z^2").returncode == 2      # missing --point
    assert run().returncode == 2                       # no subcommand


def test_preimage_table():
    r = run("preimage", "z^2", "--point", "4")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "x_re,x_im,is_infinity,index"
    assert lines[1].startswith("-2,") and lines[2].startswith("2,")
    assert lines[-1].startswith("# index sum 2")


def test_preimage_tiny_point_keeps_every_root():
    # the six preimages of 1e-18 under z^6 have modulus 1e-3
    r = run("preimage", "z^6", "--point", "1e-18")
    assert r.returncode == 0
    rows = [l.split(",") for l in r.stdout.splitlines()
            if l and not l.startswith(("x_re", "#"))]
    assert len(rows) == 6
    assert all(row[2:] == ["0", "1"] for row in rows)
    assert all(abs(abs(complex(float(row[0]), float(row[1]))) - 1e-3)
               <= 1e-15 for row in rows)


def test_preimage_critical_value_and_depth():
    r = run("preimage", "z^2", "--point", "0")
    body = [l for l in r.stdout.splitlines()
            if l and not l.startswith(("x_re", "#"))]
    assert len(body) == 1 and body[0].endswith(",2")
    r2 = run("preimage", "z^2", "--point", "16", "--depth", "3")
    assert "# index sum 8" in r2.stdout


def test_preimage_infinity():
    r = run("preimage", "(2z^2 - 1)/z", "--point", "inf")
    assert r.returncode == 0
    assert "# index sum 2" in r.stdout


def test_julia_cloud_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        r = run("julia", "z^2 - 2", "--out", str(p), "--count", "400")
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().strip().splitlines()
    assert rows[0] == "re,im,is_infinity"
    assert len(rows) == 401


# sha256 of the criterion-13 artifacts and of two stdouts, as written before
# clouds moved onto arrays (numpy 2.4 on x86-64 Linux); another numpy or
# LAPACK build may move the last bits
PINNED = {
    "cloud.csv": ("bb5eda8ef710443df857ea276e288d12"
                  "a7cbb605b02f44f333e1653990b15685",
                  ["julia", "z^2 - 2", "--count", "300", "--out"]),
    "img.pgm": ("9429ba418629b0c9fc30716f7e6faa6e"
                "10b68c76f4ada3328c698164d7860b88",
                ["julia", "z^2", "--res", "24", "--window=-1.2,1.2,-1.2,1.2",
                 "--render"]),
    "mu.csv": ("9dc93aaeb45facef915532d41dfe09b4"
               "ab12632b802f5c65f7042319ad2294e8",
               ["measure", "z^2 - 2", "--method", "mc", "--samples", "400",
                "--out"]),
    "trace.csv": ("402efd3da3fbeaa5d82ce85dd7b7c1ad"
                  "f28926d1bac61250001cfb0fa377b62d",
                  ["kms", "z^2", "--test", "z", "--levels", "5", "--out"]),
    "wit.json": ("fd79e4455476e39af5cf7494b7c06dbf"
                 "f430a4a945a382679babc8f382d38fd0",
                 ["witness", "z^2", "--a", "2 + 0.25*z + 0.25*conj(z)",
                  "--eps", "0.2", "--out"]),
    "verify --all": ("e858e12e7a8bb34b89344d01fe098e58"
                     "1a38f4dd845bec7f6a67bbf3435f6ca4", ["verify", "--all"]),
    "info lattes": ("0290829671b7d9536b60c326867102b6"
                    "41c0d9ab4287251ae0cc46611cacab1d", ["info", "lattes"]),
}


def test_artifacts_match_pinned_digests(tmp_path):
    import hashlib
    for name, (digest, args) in PINNED.items():
        path = tmp_path / name
        r = run(*args, *([str(path)] if args[-1] in ("--out", "--render")
                         else []))
        assert r.returncode == 0, r.stderr
        data = path.read_bytes() if path.exists() else r.stdout.encode()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_julia_render_window_equals_form(tmp_path):
    img = tmp_path / "z2.pgm"
    r = run("julia", "z^2", "--render", str(img),
            "--window=-1.2,1.2,-1.2,1.2", "--res", "32")
    assert r.returncode == 0
    raw = img.read_bytes()
    assert raw.startswith(b"P5\n32 32\n255\n")
    img2 = tmp_path / "z2b.pgm"
    run("julia", "z^2", "--render", str(img2),
        "--window=-1.2,1.2,-1.2,1.2", "--res", "32")
    assert raw == img2.read_bytes()


def test_measure_exact_csv(tmp_path):
    out = tmp_path / "mu.csv"
    r = run("measure", "z^2 - 2", "--method", "exact", "--depth", "6",
            "--point", "0.37", "--out", str(out))
    assert r.returncode == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "re,im,is_infinity,weight"
    total = sum(float(l.split(",")[3]) for l in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-12)
    out2 = tmp_path / "mu2.csv"
    run("measure", "z^2 - 2", "--method", "exact", "--depth", "6",
        "--point", "0.37", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_measure_mc(tmp_path):
    out = tmp_path / "mc.csv"
    r = run("measure", "z^2", "--method", "mc", "--samples", "500",
            "--out", str(out))
    assert r.returncode == 0
    assert len(out.read_text().strip().splitlines()) == 501


def test_kms_trace(tmp_path):
    out = tmp_path / "trace.csv"
    r = run("kms", "z^2", "--test", "z", "--levels", "6", "--out", str(out))
    assert r.returncode == 0
    assert "beta: 0.69314718055994529" in r.stdout
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "level,probe_index,re,im"
    out2 = tmp_path / "t2.csv"
    run("kms", "z^2", "--test", "z", "--levels", "6", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_witness_report(tmp_path):
    rep = tmp_path / "wit.json"
    r = run("witness", "z^2", "--a", "2 + 0.25*z + 0.25*conj(z)",
            "--eps", "0.2", "--out", str(rep))
    assert r.returncode == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["n"] == 5
    assert data["norm_two_u"] <= data["norm_two_bound"] + 1e-8
    rep2 = tmp_path / "wit2.json"
    run("witness", "z^2", "--a", "2 + 0.25*z + 0.25*conj(z)",
        "--eps", "0.2", "--out", str(rep2))
    assert rep.read_bytes() == rep2.read_bytes()


def test_witness_bad_eps_exit_2():
    r = run("witness", "z^2", "--a", "2 + 0.25*z + 0.25*conj(z)",
            "--eps", "99")
    assert r.returncode == 2


@pytest.mark.parametrize("args", [
    ("kms", "z^2", "--probes", "0"),
    ("witness", "z^2", "--a", "2 + 0.25*z + 0.25*conj(z)", "--eps", "0.2",
     "--probes", "0"),
    ("kms", "z^2", "--levels", "-1"),
    ("julia", "z^2", "--count", "-5", "--out", "{tmp}"),
], ids=["kms-probes", "witness-probes", "kms-levels", "julia-count"])
def test_bad_counts_exit_2(args, tmp_path):
    out = tmp_path / "out.csv"
    r = run(*(a.replace("{tmp}", str(out)) for a in args))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("test", [
    "z^", "z^(2)", "conj(z)^", "1/0", "z^1000000000000", "z -",
])
def test_bad_test_functions_exit_2(test):
    r = run("kms", "z^2", "--test", test, "--levels", "1")
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("text,table", [
    ("2*-z", {(1, 0): -2.0}),
    ("-z", {(1, 0): -1.0}),
    ("-1 + z", {(0, 0): -1.0, (1, 0): 1.0}),
    ("z - -1", {(0, 0): 1.0, (1, 0): 1.0}),
    ("-conj(z)^2 - 3/4 z", {(0, 2): -1.0, (1, 0): -0.75}),
    ("2 + 0.25*z + 0.25*conj(z)", {(0, 0): 2.0, (1, 0): 0.25, (0, 1): 0.25}),
])
def test_test_function_signs_multiply_their_term(text, table):
    # a sign opening a term, or right after `*`, is part of the term
    from ratdyn.cli import parse_test_function
    from ratdyn.transfer import TestFunction
    got = parse_test_function(text)
    assert got.label == text
    assert np.array_equal(got.coeffs, TestFunction.from_table(table).coeffs)


def test_test_function_leading_minus_on_the_command_line():
    # the equals form keeps the sign out of flag parsing
    def lyubich(test):
        r = run("kms", "z^2", test, "--levels", "1")
        assert r.returncode == 0, r.stderr
        line = [t for t in r.stdout.splitlines() if t.startswith("lyubich_v")]
        return float(line[0].split()[-1])
    assert lyubich("--test=-z") == -lyubich("--test=z") != 0.0


def test_verify_single():
    r = run("verify", "z2_minus_2")
    assert r.returncode == 0
    assert "tent_conjugacy: ok" in r.stdout
    assert r.stdout.strip().endswith("z2_minus_2: passed")


def test_verify_report_json(tmp_path):
    rep = tmp_path / "verify.json"
    r = run("verify", "power_map_n", "--param", "2", "--out", str(rep))
    assert r.returncode == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True


def test_verify_has_no_threads_flag():
    r = run("verify", "power_map_n", "--threads", "2")
    assert r.returncode == 2
    assert "unrecognized arguments: --threads" in r.stderr


def test_walk_budget_exits_1(tmp_path):
    # 60 steps x 2e8 walkers is refused before anything is allocated
    out = tmp_path / "mu.csv"
    r = run("measure", "z^2 - 2", "--method", "mc", "--samples", "200000000",
            "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("computation failed: ")
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "ratdyn.cfg"
    cfg.write_text("count = 400\nseed = 0\n")
    a = tmp_path / "a.csv"
    r = run("--config", str(cfg), "julia", "z^2 - 2", "--out", str(a))
    assert r.returncode == 0
    b = tmp_path / "b.csv"
    run("julia", "z^2 - 2", "--out", str(b), "--count", "400")
    assert a.read_bytes() == b.read_bytes()
    # explicit flags beat the config file
    c = tmp_path / "c.csv"
    run("--config", str(cfg), "julia", "z^2 - 2", "--out", str(c),
        "--count", "200")
    assert len(c.read_text().strip().splitlines()) == 201


def test_config_rejects_unknown_keys(tmp_path):
    # a misspelt key, the retired thread count, or a line without '=' is a
    # usage error
    out = tmp_path / "a.csv"
    for line, msg in (("cuont = 5", "unknown config key"),
                      ("threads = 2", "unknown config key"),
                      ("count 5", "config line without '='")):
        cfg = tmp_path / "ratdyn.cfg"
        cfg.write_text(f"count = 400\n{line}\n")
        r = run("--config", str(cfg), "julia", "z^2", "--out", str(out))
        assert r.returncode == 2
        assert msg in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()
