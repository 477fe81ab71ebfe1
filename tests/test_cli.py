import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from carnotdim.cli import system_from_json
from conftest import FIB2, GDMS2, MORAN4, run_cli, write_spec


def parse(out):
    return json.loads(out.decode())


def test_pressure_json(moran4_path):
    rc, out, err = run_cli(["pressure", "--spec", moran4_path, "--t", "2.0"])
    assert rc == 0
    rec = parse(out)
    assert rec["op"] == "pressure"
    # 4 maps of ratio 1/2: P(2) = log(4 * 1/4) = 0, exactly
    assert abs(rec["P_lo"]) < 1e-12 and abs(rec["P_hi"]) < 1e-12
    assert rec["params"]["t"] == 2.0
    # timing goes to stderr, never into the payload
    assert b"wallclock" in err and b"wallclock" not in out


def test_spec_cannot_declare_a_loose_table_exact(tmp_path):
    """A table is exact only when w_lo == w_up (and K == 1); a spec's "exact"
    key is not read, so loose weights get a two-sided bracket."""
    spec = dict(GDMS2, weights={"w_lo": [0.4, 0.4], "w_up": [0.5, 0.5], "exact": True})
    rc, out, err = run_cli(["pressure", "--spec", write_spec(tmp_path, "w.json", spec),
                            "--t", "1.0"])
    assert rc == 0, err
    rec = parse(out)
    assert rec["method"] == "subadditive"
    assert rec["P_lo"] == pytest.approx(math.log(0.8), rel=1e-12)
    assert rec["P_hi"] == pytest.approx(0.0, abs=1e-15)


def test_pressure_grid_csv(moran4_path):
    rc, out, _ = run_cli(["pressure", "--spec", moran4_path,
                          "--t-grid", "0.0:2.0:0.5", "--format", "csv"])
    assert rc == 0
    lines = out.decode().strip().split("\n")
    assert lines[0] == "t,P_lo,P_hi"
    assert len(lines) == 6
    vals = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert vals[0][1] == pytest.approx(math.log(4))
    assert all(a[1] >= b[1] for a, b in zip(vals, vals[1:]))  # decreasing


def test_dim_command(moran4_path):
    rc, out, _ = run_cli(["dim", "--spec", moran4_path, "--tol", "1e-8"])
    assert rc == 0
    rec = parse(out)
    assert rec["h_lo"] <= 2.0 <= rec["h_hi"]
    assert rec["h_hi"] - rec["h_lo"] <= 1e-8 * 1.01


def test_dim_fib_incidence(fib2_path):
    rc, out, _ = run_cli(["dim", "--spec", fib2_path])
    assert rc == 0
    rec = parse(out)
    # oracle: root of log lam([[1,1],[1,0]] diag(2^-t, 3^-t)) = 0
    def lam(t):
        M = np.array([[1.0, 1.0], [1.0, 0.0]]) * \
            np.array([2.0, 3.0])[None, :] ** -t
        return max(abs(np.linalg.eigvals(M)))
    lo, hi = 0.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.log(lam(mid)) > 0 else (lo, mid)
    assert rec["h_lo"] - 1e-6 <= 0.5 * (lo + hi) <= rec["h_hi"] + 1e-6


def test_gdms_spec_roundtrip(gdms2_path):
    rc, out, _ = run_cli(["dim", "--spec", gdms2_path])
    assert rc == 0
    rec = parse(out)
    # two ratio-1/2 similarities: dimension 1
    assert rec["h_lo"] <= 1.0 + 1e-3 and rec["h_hi"] >= 1.0 - 1e-3


def test_theta_cf(tmp_path):
    rc, out, _ = run_cli(["theta", "--system", "cf",
                          "--radius", "12", "--shells", "5"])
    assert rc == 0
    rec = parse(out)
    assert rec["theta_lo"] <= rec["theta_hat"] <= rec["theta_hi"]
    assert rec["shells"] == 5


def test_measure_command(fib2_path):
    rc, out, _ = run_cli(["measure", "--spec", fib2_path,
                          "--t", "0.8", "--depth", "4"])
    assert rc == 0
    rec = parse(out)
    assert rec["mass_total"] == pytest.approx(1.0)
    assert rec["gibbs_min"] == pytest.approx(1.0)
    assert rec["gibbs_max"] == pytest.approx(1.0)


def test_measure_past_the_recursion_limit(tmp_path):
    """A one-map spec at depth 2000: the word blocks once recursed once per
    letter (RecursionError, exit 1), and 0.5^2000 once underflowed the
    cylinder masses (NaN, exit 4)."""
    one = write_spec(tmp_path, "one.json", dict(MORAN4, maps=MORAN4["maps"][:1]))
    rc, out, err = run_cli(["measure", "--spec", one, "--t", "1", "--depth", "2000"])
    assert rc == 0 and b"Traceback" not in err and b"Warning" not in err
    rec = parse(out)
    assert (rec["depth"], rec["mass_total"], rec["gibbs_min"], rec["gibbs_max"]) == (
        2000, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("argv, want", [
    (["pressure", "--t", "1100"], {"P_hi": pytest.approx(1100 * math.log(0.5), rel=1e-12)}),
    (["pressure", "--t", "2000"], {"P_hi": pytest.approx(2000 * math.log(0.5), rel=1e-12)}),
    (["measure", "--t", "2000", "--depth", "4"],
     {"mass_total": pytest.approx(1.0, abs=1e-9), "gibbs_min": 1.0, "gibbs_max": 1.0}),
], ids=["pressure-t1100", "pressure-t2000", "measure-t2000"])
def test_large_t_exits_0(argv, want, fib2_path):
    """fib2 at t where 0.5^t and 3^-t underflow: the transfer kernel scales
    every weight by the largest, so these answer; each exited 2 ("zero
    matrix has no Perron data") while w^t was formed unscaled."""
    rc, out, err = run_cli([argv[0], "--spec", fib2_path] + argv[1:])
    assert rc == 0 and b"Warning" not in err, err
    rec = parse(out)
    assert {k: rec[k] for k in want} == want


def test_limitset_stdout_and_files(moran4_path, tmp_path):
    rc, out, _ = run_cli(["limitset", "--spec", moran4_path, "--depth", "2"])
    assert rc == 0
    lines = out.decode().strip().split("\n")
    assert lines[0] == "z1,z2,t1,err"
    assert len(lines) == 16 + 1
    csv = tmp_path / "c.csv"
    rc, _, _ = run_cli(["limitset", "--spec", moran4_path, "--depth", "2",
                        "--out", str(csv)])
    assert rc == 0 and csv.read_text().startswith("z1,z2,t1,err\n")
    ply = tmp_path / "c.ply"
    rc, _, _ = run_cli(["limitset", "--spec", moran4_path, "--depth", "2",
                        "--out", str(ply)])
    assert rc == 0 and ply.read_text().startswith("ply\n")


def test_compare_dim_command():
    rc, out, _ = run_cli(["compare-dim", "--h", "2.0"])
    assert rc == 0
    rec = parse(out)
    assert rec["euclid_lo"] == 1.0 and rec["euclid_hi"] == 2.0
    assert rec["Q"] == 4.0 and rec["N"] == 3.0


def test_cli_import_leaves_scipy_out():
    code = "import sys, carnotdim.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert proc.stdout.strip() == b"False"


def test_commands_leave_numpy_ma_out(moran4_path, fib2_path):
    """No command pays for importing numpy.ma (np.unique loads it)."""
    runs = [["compare-dim", "--h", "2.0"], ["dim", "--spec", fib2_path],
            ["limitset", "--spec", moran4_path, "--depth", "4", "--mode", "chaos",
             "--samples", "200"]]
    code = ("import contextlib, io, json, sys\n"
            "from carnotdim.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {runs!r}]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    assert json.loads(proc.stdout) == [[0, 0, 0], False]


def test_measure_dim_command(moran4_path):
    rc, out, _ = run_cli(["measure-dim", "--spec", moran4_path,
                          "--bernoulli", "0.25,0.25,0.25,0.25"])
    assert rc == 0
    assert parse(out)["dimension"] == pytest.approx(2.0)


def test_measure_dim_markov(fib2_path, tmp_path):
    P = tmp_path / "P.json"
    P.write_text(json.dumps([[0.5, 0.5], [1.0, 0.0]]))
    rc, out, _ = run_cli(["measure-dim", "--spec", fib2_path,
                          "--markov", str(P)])
    assert rc == 0
    assert 0 < parse(out)["dimension"] < 4


def test_measure_dim_markov_periodic_chain(tmp_path):
    """P of period 2 with stationary law (1/4, 1/2, 1/4) on scales 1/2,
    1/4, 1/2: h = log(2) / 2 and chi = 3 log(2) / 2, so the dimension is
    1/3; iterating pi P itself stopped at (1/3, 1/3, 1/3) and printed 0.25."""
    spec = write_spec(tmp_path, "moran3.json", dict(MORAN4, maps=[
        {"translate": [0.0, 0.0, 0.0], "scale": 0.5},
        {"translate": [2.0, 0.0, 0.0], "scale": 0.25},
        {"translate": [0.0, 2.0, 0.0], "scale": 0.5}]))
    P = tmp_path / "P.json"
    P.write_text(json.dumps([[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]))
    rc, out, err = run_cli(["measure-dim", "--spec", spec, "--markov", str(P)])
    assert rc == 0, err
    assert parse(out)["dimension"] == pytest.approx(1 / 3, rel=1e-12)
    # rows stochastic to a rounding, as np.allclose accepts them, give the same
    # law; the entropy of the rows as given moves the dimension by ~1e-9
    P.write_text(json.dumps([[0, 1 - 1e-9, 0], [0.5 - 5e-10, 0, 0.5 - 5e-10], [0, 1 - 1e-9, 0]]))
    rc, out, err = run_cli(["measure-dim", "--spec", spec, "--markov", str(P)])
    assert rc == 0, err
    assert parse(out)["dimension"] == pytest.approx(1 / 3, rel=1e-8)


def test_measure_gibbs_ratio_past_the_float_range_exits_4():
    """CF R = 4 at t = 1200: prod (w_mid / w_lo)^t over two letters passes
    the float range; the inf exits 4 as any non-finite result does."""
    rc, out, err = run_cli(["measure", "--system", "cf", "--radius", "4", "--t", "1200",
                            "--depth", "2", "--side", "lower"])
    assert rc == 4 and out == b""
    assert b"Traceback" not in err and b"Warning" not in err and b"NaN" not in err
    assert json.loads(err.decode().splitlines()[-1])["error"] == "NonConvergenceError"


def test_subsystem_command():
    rc, out, _ = run_cli(["subsystem", "--target", "0.6"])
    assert rc == 0
    rec = parse(out)
    assert not rec["exhausted"]
    assert rec["h_hi"] <= 0.6 + 1e-12
    assert rec["h_lo"] >= 0.6 - 1e-4 - 1e-12


def test_exit_code_2_bad_input(tmp_path):
    rc, out, err = run_cli(["dim", "--spec", "/nonexistent/file.json"])
    assert rc == 2
    assert b"error" in err and out == b""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"spec_version": 99}))
    rc, _, err = run_cli(["dim", "--spec", str(bad)])
    assert rc == 2
    assert b"ValidationError" in err


@pytest.mark.parametrize("argv", [
    ["pressure", "--spec", "{spec}"],  # neither --t nor --t-grid
    ["pressure", "--spec", "{spec}", "--t-grid", "0:nan:0.5"],
    ["compare-dim", "--h", "nan"],
    ["compare-dim", "--h", "inf"],
    ["dim", "--spec", "{spec}", "--tol", "nan"],
], ids=["pressure-no-t", "grid-nan", "h-nan", "h-inf", "tol-nan"])
def test_exit_code_2_json_error(argv, moran4_path):
    rc, out, err = run_cli([a.format(spec=moran4_path) for a in argv])
    assert rc == 2 and out == b""
    assert json.loads(err.decode().splitlines()[-1])["error"] == "ValidationError"


@pytest.mark.parametrize("argv, error", [
    (["limitset", "--spec", "{spec}", "--mode", "chaos", "--samples", "-5"], "ValidationError"),
    (["limitset", "--spec", "{spec}", "--mode", "chaos", "--seed", "-1"], "ValidationError"),
    (["limitset", "--spec", "{spec}", "--mode", "chaos", "--samples", "3000000000"],
     "BudgetError"),
    (["limitset", "--spec", "{spec}", "--mode", "chaos", "--samples", "11", "--budget", "10"],
     "BudgetError"),
    (["limitset", "--spec", "{spec}", "--mode", "chaos", "--samples", "1", "--depth",
      "3000000"], "BudgetError"),
    (["limitset", "--spec", "{one}", "--depth", "3000000"], "BudgetError"),
    (["measure", "--spec", "{one}", "--t", "1", "--depth", "3000000"], "BudgetError"),
    (["pressure", "--spec", "{spec}", "--t-grid", "0:1e9:1e-9"], "BudgetError"),
    (["pressure", "--spec", "{spec}", "--t-grid=-1e308:1e308:1", "--budget", "5"],
     "BudgetError"),
    (["dim", "--spec", "{spec}", "--tol", "-1"], "ValidationError"),
    (["dim", "--spec", "{spec}", "--tol", "0"], "ValidationError"),
    (["dim", "--system", "cantor", "--shells", "1", "--seed", "-3"], "ValidationError"),
], ids=["samples-negative", "seed-negative", "samples-over-memory", "samples-over-budget",
        "depth-over-budget", "one-map-depth-over-budget", "one-map-measure-depth-over-budget",
        "grid-over-budget", "grid-overflows",
        "tol-negative", "tol-zero", "cantor-seed"])
def test_sizes_and_seeds_keep_the_exit_codes(argv, error, moran4_path, tmp_path):
    """Each of these once exited 1 with a traceback, never returned, or
    exited 0 with a meaningless tolerance."""
    one = write_spec(tmp_path, "one.json", dict(MORAN4, maps=MORAN4["maps"][:1]))
    rc, out, err = run_cli([a.format(spec=moran4_path, one=one) for a in argv])
    assert rc == {"ValidationError": 2, "BudgetError": 3}[error] and out == b""
    assert json.loads(err.decode().splitlines()[-1])["error"] == error


@pytest.mark.parametrize("argv, error", [
    (["limitset", "--spec", "{spec}", "--depth", "600"], "BudgetError"),
    (["measure", "--spec", "{spec}", "--t", "1", "--depth", "600"], "BudgetError"),
    (["subsystem", "--target", "0.6", "--tol", "-1"], "ValidationError"),
    (["subsystem", "--target", "0.6", "--tol", "0"], "ValidationError"),
    (["subsystem", "--target", "0.6", "--c", "5", "--exponent", "1e-5"], "ValidationError"),
    (["measure-dim", "--spec", "{spec}", "--bernoulli", "a,b"], "ValidationError"),
    (["measure-dim", "--spec", "{spec}", "--bernoulli", "0.25,0.25,0.25,0.25", "--depth", "8"],
     "ValidationError"),
    (["dim", "--bogus"], "ValidationError"),
    (["measure", "--spec", "{spec}"], "ValidationError"),
    (["frobnicate"], "ValidationError"),
    ([], "ValidationError"),
], ids=["limitset-count-overflow", "measure-count-overflow", "subsystem-tol-negative",
        "subsystem-tol-zero", "subsystem-no-weight-below-1", "bernoulli-not-numbers",
        "measure-dim-depth", "unknown-flag", "measure-without-t", "unknown-command", "no-command"])
def test_argv_and_overflows_keep_the_exit_codes(argv, error, moran4_path):
    """Each of these once exited 1 with a traceback, exited 2 with no JSON
    error, never returned, or exited 0 with a meaningless tolerance."""
    rc, out, err = run_cli([a.format(spec=moran4_path) for a in argv])
    assert rc == {"ValidationError": 2, "BudgetError": 3}[error] and out == b""
    assert json.loads(err.decode().splitlines()[-1])["error"] == error


@pytest.mark.parametrize("argv, error", [
    (["compare-dim", "--group", "heis_c:100000", "--h", "1"], "ValidationError"),
    (["theta", "--system", "cf", "--radius", "8", "--shells", "1000000000"], "ValidationError"),
    (["theta", "--system", "cf", "--radius", "9000", "--shells", "100000000"], "BudgetError"),
    (["dim", "--system", "cantor", "--group", "heis_q:1", "--shells", "1"], "UnsupportedError"),
    (["limitset", "--system", "cantor", "--group", "heis_q:1", "--shells", "1"],
     "UnsupportedError"),
], ids=["rank-100000", "shells-past-keys", "shells-past-budget", "cantor-quaternionic",
        "cantor-quaternionic-limitset"])
def test_oversized_inputs_fail_before_allocating(argv, error):
    """Under a 2 GiB address-space limit each of these exits 2 or 3 with a
    JSON error: a 74.5 GiB structure matrix, a 7.45 GiB array of shell
    radii, and a quaternionic Cantor build (no inversion there) once died
    with a MemoryError traceback or ran for minutes."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2 ** 30, 2 * 2 ** 30))
    proc = subprocess.run([sys.executable, "-m", "carnotdim.cli"] + argv, capture_output=True,
                          preexec_fn=limit, timeout=60,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    rc_want = {"ValidationError": 2, "UnsupportedError": 2, "BudgetError": 3}[error]
    assert proc.returncode == rc_want and proc.stdout == b"", proc.stderr.decode()
    assert json.loads(proc.stderr.decode().splitlines()[-1])["error"] == error


def test_help_exits_0():
    for argv in (["--help"], ["dim", "-h"]):
        rc, out, err = run_cli(argv)
        assert rc == 0 and b"usage: carnotdim" in out and err == b""


def test_chaos_samples_up_to_the_budget(moran4_path):
    """A chaos cloud is charged its letters, samples x depth = 30 here."""
    argv = ["limitset", "--spec", moran4_path, "--mode", "chaos", "--samples", "10",
            "--depth", "3", "--budget"]
    rc, out, _ = run_cli(argv + ["30"])
    assert rc == 0 and len(out.splitlines()) == 11
    rc, out, err = run_cli(argv + ["29"])
    assert rc == 3 and out == b""
    assert json.loads(err.decode().splitlines()[-1])["error"] == "BudgetError"


@pytest.mark.parametrize("text,fragment", [
    (json.dumps({"spec_version": 1, "group": {"kind": "heis_c", "n": 1},
                 "edges": []}), "'vertices'"),
    (json.dumps({**MORAN4, "maps": [{"translate": [0.0, 0.0, 0.0], "scale": "half"}]}),
     "half"),
    (json.dumps(MORAN4)[:40], "malformed spec"),
    # found by the spec fuzz (tests/test_cli_fuzz.py): each exited 1 with a
    # traceback, or 0 with a meaningless answer
    (json.dumps({**MORAN4, "maps": [{"translate": math.inf, "scale": 0.5}]}),
     "translate must be 3 finite numbers"),
    (json.dumps({**MORAN4, "maps": [dict(m, rotate_theta=-math.inf) for m in MORAN4["maps"]]}),
     "rotation angle must be finite"),
    (json.dumps({**MORAN4, "group": {"kind": "heis_c", "n": math.inf}}), "malformed spec"),
    (json.dumps({**GDMS2, "vertices": [dict(GDMS2["vertices"][0], id=[[]])]}),
     "vertex id must be a string"),
    (json.dumps({**GDMS2, "edges": [dict(e, src=[]) for e in GDMS2["edges"]]}),
     "edge src must be a string"),
    (json.dumps({**GDMS2, "weights": {"w_lo": [math.nan, 0.4], "w_up": [0.5, 0.5]}}),
     "weights must be finite"),
    (json.dumps({**GDMS2, "weights": {"w_lo": [0.4] * 3, "w_up": [0.5] * 3}}),
     "3 rows for 2 edges"),
    (json.dumps({**GDMS2, "weights": {"w_lo": [0.4, 0.4], "w_up": 0.5}}), "one length"),
    (json.dumps({**GDMS2, "weights": {"w_lo": [0.4, 0.4], "w_up": [0.5, 0.5],
                                      "distortion": math.nan}}), "distortion constant"),
], ids=["missing-vertices", "scale-not-a-number", "truncated-json", "translate-infinite",
        "rotation-infinite", "rank-infinite", "vertex-id-list", "edge-src-list",
        "weights-nan", "weights-too-long", "weights-scalar", "distortion-nan"])
def test_malformed_spec_exits_2(text, fragment, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    rc, out, err = run_cli(["dim", "--spec", str(spec)])
    assert rc == 2 and out == b""
    rec = json.loads(err.decode().splitlines()[-1])
    assert rec["error"] == "ValidationError" and fragment in rec["message"]


def test_coordinates_near_the_float_range_leave_stderr_clean(tmp_path):
    """A vertex and a translation at 1e200: the distances overflow to a
    non-finite value, which fails the closed-form certificate, and no numpy
    RuntimeWarning precedes the JSON error line.  The message calls the
    distance not finite rather than printing a NaN."""
    far = [1e200, 1e200, 0.0]
    a, b = GDMS2["edges"]
    spec = {**GDMS2, "vertices": [dict(GDMS2["vertices"][0], center=far)],
            "edges": [dict(a, chain=[{"translate": far}, {"dilate": 0.5}]), b]}
    rc, out, err = run_cli(["dim", "--spec", write_spec(tmp_path, "far.json", spec)])
    assert rc == 2 and out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ValidationError", lines
    message = json.loads(lines[0])["message"]
    assert "not finite" in message and "nan" not in message.lower(), message


def test_spec_directory_exits_2(tmp_path):
    rc, out, err = run_cli(["dim", "--spec", str(tmp_path)])
    assert rc == 2 and out == b""
    assert json.loads(err.decode().splitlines()[-1])["error"] == "IsADirectoryError"


@pytest.mark.parametrize("argv", [
    ["--radius", "300", "--shells", "8"],
    ["--group", "heis_c:2", "--radius", "60", "--shells", "8"],
], ids=["heis1-r300", "heis2-r60"])
def test_theta_cf_deep(argv):
    rc, out, err = run_cli(["theta", "--system", "cf"] + argv)
    assert rc == 0, err.decode()
    rec = parse(out)
    half_q = 3.0 if "heis_c:2" in argv else 2.0
    assert rec["theta_lo"] <= half_q <= rec["theta_hi"]
    assert rec["shells"] == 8


CANTOR_SHELLS2_DIM = """{
  "distortion": 1.0,
  "edges": 91590,
  "h_hi": 2.0500707626342773,
  "h_lo": 1.7879252433776855,
  "iterations": 46,
  "note": "pressure bracket width dominates (slack 0.262)",
  "op": "dim",
  "params": {
    "budget": 1000000,
    "command": "dim",
    "epsilon": 2.0,
    "group": "heis_c:1",
    "lattice_budget": 200000000,
    "radius": 8.0,
    "seed": 0,
    "shells": 2,
    "system": "cantor",
    "tol": 1e-06
  },
  "slack": 0.2621445192565918,
  "tol": 1e-06
}
"""


def test_dim_cantor_full_separation():
    """separation_scale 1 anchors 91,590 maps on two dilated-lattice layers
    (8,232 and 83,358 points, the integer-key counts of
    test_cantor_shell_counts_match_integer_keys)."""
    rc, out, err = run_cli(["dim", "--system", "cantor", "--epsilon", "2", "--shells", "2"])
    assert rc == 0, err.decode()
    assert out.decode() == CANTOR_SHELLS2_DIM


def test_system_moran_is_not_a_choice():
    # moran systems come from --spec files with "kind": "moran"
    rc, out, err = run_cli(["dim", "--system", "moran"])
    assert rc == 2 and out == b"" and b"invalid choice" in err


@pytest.mark.parametrize("var", ["CARNOTDIM_BUDGET", "CARNOTDIM_LATTICE_BUDGET"])
def test_malformed_budget_variable_exits_2(var, moran4_path):
    """A budget variable that is not an integer once exited 1 with a traceback."""
    rc, out, err = run_cli(["dim", "--spec", moran4_path], env={var: "abc"})
    assert rc == 2 and out == b""
    assert json.loads(err.decode().splitlines()[-1])["error"] == "ValidationError"


def test_record_rejects_nan():
    from carnotdim import cli
    from carnotdim.errors import NonConvergenceError
    args = cli.build_parser().parse_args(["compare-dim", "--h", "1.0"])
    with pytest.raises(NonConvergenceError):
        cli._record(args, "compare-dim", {"h": float("nan")})


def test_exit_code_3_budget(moran4_path):
    # depth-10 deterministic cloud needs 4^10 words, far over a budget of 10
    rc, _, err = run_cli(["limitset", "--spec", moran4_path, "--depth", "10",
                          "--budget", "10"])
    assert rc == 3
    assert b"BudgetError" in err


def test_budget_env_var(moran4_path):
    rc, _, err = run_cli(["limitset", "--spec", moran4_path, "--depth", "10"],
                         env={"CARNOTDIM_BUDGET": "10"})
    assert rc == 3
    assert b"BudgetError" in err
    # an explicit flag overrides the environment
    rc, out, _ = run_cli(["limitset", "--spec", moran4_path, "--depth", "2",
                          "--budget", "1000"],
                         env={"CARNOTDIM_BUDGET": "10"})
    assert rc == 0 and out


def test_out_file_matches_stdout(moran4_path, tmp_path):
    rc, out, _ = run_cli(["pressure", "--spec", moran4_path, "--t", "1.0"])
    f = tmp_path / "o.json"
    rc2, out2, _ = run_cli(["pressure", "--spec", moran4_path, "--t", "1.0",
                            "--out", str(f)])
    assert rc == rc2 == 0
    assert out2 == b""
    assert f.read_bytes() == out


def test_exit_code_4_nonconvergence(moran4_path, monkeypatch, capsys):
    from carnotdim import cli
    from carnotdim.errors import NonConvergenceError

    def boom(*a, **k):
        raise NonConvergenceError("did not converge")

    monkeypatch.setattr(cli, "bowen_dim", boom)
    rc = cli.main(["dim", "--spec", moran4_path])
    assert rc == 4
    assert "NonConvergenceError" in capsys.readouterr().err


def test_error_taxonomy_exit_codes():
    from carnotdim import errors
    assert errors.ValidationError("x").exit_code == 2
    assert errors.PoleError("x", distance=0.0).exit_code == 2
    assert errors.BudgetError("x", estimate=2, budget=1).exit_code == 3
    assert errors.NonConvergenceError("x").exit_code == 4


def test_theta_over_budget_shell_exits_3():
    rc, out, err = run_cli(["theta", "--system", "cf", "--radius", "600", "--shells", "8"])
    assert rc == 3 and out == b""
    assert json.loads(err.decode()) == {
        "error": "BudgetError",
        "message": "lattice histogram would cost ~4.01e+08 (budget 2.00e+08)"}


@pytest.mark.parametrize("spec, rc_want", [
    (None, 0),
    # the anchor o of B(o, 1) is the pole of J; validate "none" lets it through
    ({"spec_version": 1, "kind": "gdms", "group": {"kind": "heis_c", "n": 1},
      "vertices": [{"id": "X", "center": [0.0, 0.0, 0.0], "radius": 1.0}],
      "edges": [{"id": "a", "src": "X", "dst": "X", "chain": [{"invert": True}]}],
      "contraction": 0.5, "validate": "none"}, 4),
], ids=["cantor-annulus", "pole-at-anchor"])
def test_limitset_coordinates_are_finite(spec, rc_want, tmp_path):
    """Words start at a point of the vertex set, not at the center of a
    shell-mode Cantor annulus (every map's pole); a cloud that still has a
    non-finite coordinate exits 4 with a JSON error."""
    if spec is None:
        argv = ["--system", "cantor", "--epsilon", "2", "--shells", "1"]
    else:
        argv = ["--spec", write_spec(tmp_path, "pole.json", spec)]
    rc, out, err = run_cli(["limitset", "--depth", "1"] + argv)
    assert rc == rc_want, err.decode()
    if rc_want:
        assert json.loads(err.decode())["error"] == "NonConvergenceError"
        return
    rows = out.decode().strip().split("\n")
    assert rows[0] == "z1,z2,t1,err" and len(rows) > 1000
    assert np.isfinite(np.array([r.split(",") for r in rows[1:]], float)).all()


def test_gdms_spec_contraction_is_certified():
    """The two maps of the spec are dilations by 1/2: the certified bound is
    0.5 (a sampled Lipschitz ratio times 1.05 gave 0.525)."""
    assert system_from_json(GDMS2).contraction == 0.5


def test_escaping_edge_is_named(tmp_path):
    """Edge ids read from a spec appear as 'a' in messages, not np.str_('a')."""
    spec = json.loads(json.dumps(GDMS2))
    spec["edges"][0]["chain"][0]["translate"] = [3.0, 0.0, 0.0]
    rc, _, err = run_cli(["dim", "--spec", write_spec(tmp_path, "escape.json", spec)])
    assert rc == 2
    assert "edge 'a'" in json.loads(err.decode())["message"]
