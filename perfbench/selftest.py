"""Self-test of the benchmark harness (about a minute on two cores).

    python3 perfbench/selftest.py

1. Every workload runs one pass at its tiny size, and every answer passes.
2. Every oracle rejects a perturbed copy of each answer, and every pass-level
   check rejects a perturbed pass.
3. run.py prints exactly the metric names and units of BENCHMARK.json, with
   --trace 0 and --trace 1.
4. run.py exits nonzero, printing no result, in a directory that holds only
   BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from workloads import ChildResult  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"


def perturb(out):
    """A wrong answer of the same shape as `out`."""
    if isinstance(out, ChildResult):
        bad = copy.copy(out)
        if out.path is not None:  # export: drop the last row
            bad.path = out.path.with_name("perturbed" + out.path.suffix)
            bad.path.write_bytes(out.path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)[0] + b"\n")
        elif out.out.lstrip().startswith(b"{"):  # JSON: first number becomes NaN
            bad.out = re.sub(rb"(: )-?[0-9][0-9.e+-]*", rb"\1NaN", out.out, count=1)
        else:  # CSV: last value becomes nan
            bad.out = out.out.rstrip(b"\n").rsplit(b",", 1)[0] + b",nan\n"
        return bad
    if isinstance(out, int):
        return out + 1
    bad = dict(out)
    if "h_lo" in bad:
        bad["h_lo"] += 2.0
        bad["h_hi"] += 2.0
    elif "hat" in bad:
        bad.update(lo=out["lo"] + 1.0, hi=out["hi"] + 1.0, hat=out["hat"] + 1.0)
    elif "words" in bad:
        bad["hi"] = out["hi"] * 1.02
    else:  # pressure bracket
        bad["lo"] = out["hi"] + 1.0
    return bad


def perturb_pass(name, results):
    bad = dict(results)
    if name == "cf_build_dim":
        a, b = [k for k in results if k.startswith("dim_cf_R")][:2]
        bad[a], bad[b] = results[b], results[a]
    elif name == "lattice_theta":
        last = sorted(k for k in results if k.startswith("count_R"))[-1]
        bad[last] = results[last] * 2
    elif name == "cli_export":
        key = "pressure"
        bad[key] = copy.copy(results[key])
        bad[key].out = results[key].out + b" "
    else:
        return None  # no pass-level check
    return bad


def check_workloads():
    for name, wl in W.WORKLOADS.items():
        st = wl.setup(3, "tiny", SCRATCH / name)
        wl.expect(st)
        ops = wl.ops(st)
        results = {op.label: op.run() for op in ops}
        for op in ops:
            ok, _ = op.check(results[op.label])
            assert ok, f"{name}/{op.label}: genuine answer rejected"
            try:
                ok, _ = op.check(perturb(results[op.label]))
            except (ValueError, KeyError):
                ok = False
            assert not ok, f"{name}/{op.label}: perturbed answer accepted"
        assert not wl.pass_check(st, results), f"{name}: genuine pass rejected"
        bad = perturb_pass(name, results)
        if bad is not None:
            assert wl.pass_check(st, bad), f"{name}: perturbed pass accepted"
        print(f"ok   {name}: {len(ops)} operations at tiny size, every oracle rejects "
              "a perturbed answer")


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                              "lattice_theta", "--seed", "1", "--seconds", "1",
                              "--trace", str(trace)], cwd=ROOT, capture_output=True,
                             text=True, timeout=170, check=True)
        res = last_json(out.stdout)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
        assert res["correct"] and res["failed"] == 0, res
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert got == want, (trace, set(got) ^ set(want))
        print(f"ok   --trace {trace}: metric names and units match BENCHMARK.json {key}")


def check_bare_directory():
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cf_build_dim",
                          "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and '"correct"' not in out.stdout, out
    print("ok   a directory without the package source exits "
          f"{out.returncode} and prints no result")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_workloads()
        check_metric_names()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()  # only if no benchmark run is using it
        except OSError:
            pass
    print("selftest passed")


if __name__ == "__main__":
    main()
