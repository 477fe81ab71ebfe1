"""Benchmark for carnotdim: time to certified brackets, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cf_build_dim --seed 1 --seconds 25 --trace 0

The workload's inputs come from --seed.  Passes over the workload's
operation list repeat while another pass fits in --seconds, and every answer
is checked against an oracle that shares no code with the package.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 one untraced pass is followed by
traced passes, and the JSON carries the per-layer metrics.  Lines before it
are a human-readable account of the same numbers.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time counts every import, numpy's included

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_REPEATS = 3  # this process plus two fresh interpreters
LAYER_TABLE = ("groups", "conformal", "gdms", "thermo", "systems", "dimension", "cli", "bench")
CLI_PASS_KEYS = ("cli.cmd_s", "cli.overhead_frac", "cli.export_bytes", "cli.export_mb_per_s")
CLI_PROBE_KEYS = ("cli.import_s", "cli.import_scipy_s", "cli.cold_start_s")


@dataclass
class PassResult:
    times: dict = field(default_factory=dict)     # label -> seconds
    results: dict = field(default_factory=dict)   # label -> summary or None
    widths: dict = field(default_factory=dict)    # label -> bracket width
    failed: set = field(default_factory=set)

    @property
    def solve_s(self) -> float:
        return sum(self.times.values())


def run_pass(wl, st, ops, tracer=None) -> PassResult:
    """One closed-loop pass: each operation starts when the previous returned."""
    res = PassResult()
    span_key = f"{getattr(wl, 'OP_LAYER', 'bench')}.op"
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                tracer.op = i
                with tracer.span(span_key, op.label):
                    out = op.run()
        except Exception:
            out = None
            print(f"# op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        res.times[op.label] = perf_counter() - t0
        res.results[op.label] = out
        if out is None:
            res.failed.add(op.label)
            continue
        try:
            ok, width = op.check(out)
        except Exception:
            ok, width = False, 0.0
            print(f"# check {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        res.widths[op.label] = width
        if not ok:
            res.failed.add(op.label)
            print(f"# op {op.label} failed its oracle: {out!r:.300}", file=sys.stderr)
    bad = wl.pass_check(st, res.results)
    for label in bad:
        print(f"# op {label} failed a pass-level check", file=sys.stderr)
    res.failed |= bad
    return res


def fits(passes, t_start: float, seconds: float) -> bool:
    """Whether one more pass of median length ends within the window."""
    med = statistics.median(p.solve_s for p in passes)
    return perf_counter() - t_start + med <= seconds


def median_pass(passes) -> float:
    """One pass's time, each operation at its median over the passes."""
    return sum(statistics.median(p.times[label] for p in passes) for label in passes[0].times)


def tail_percentile(n_min: int) -> float:
    """The highest of PERCENTILES with at least ten samples beyond it (nearest
    rank) among n_min samples; 100 (the maximum) when none has.  It is fixed
    by the workload's minimum sample count, so it does not jump with speed."""
    for q in PERCENTILES:
        if n_min - math.ceil(q / 100.0 * n_min) >= 10:
            return q
    return 100.0


def nearest_rank(samples, q: float):
    """(value at percentile q, samples beyond it)."""
    xs = sorted(samples)
    rank = max(math.ceil(q / 100.0 * len(xs)), 1)
    return xs[rank - 1], len(xs) - rank


def count_failures(passes):
    """Failed operations, including answers that change between passes."""
    failed = 0
    for p in passes:
        drift = {lab for lab, w in p.widths.items()
                 if lab in passes[0].widths and w != passes[0].widths[lab]}
        failed += len(p.failed | drift)
    return failed


def setup_probe(workload: str, seed: int, k: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    workdir = ROOT / ".perfbench" / f"probe-{os.getpid()}-{k}"
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                          str(seed), str(workdir)], capture_output=True, text=True,
                         timeout=170, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def env_stamp() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return out.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
            "cpu_pinning": "not available", "cache_control": "not available"}


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def end_to_end(wl, st, seed, seconds, setup_main):
    ops = wl.ops(st)
    passes = []
    t_start = perf_counter()
    while len(passes) < wl.MIN_PASSES or fits(passes, t_start, seconds):
        passes.append(run_pass(wl, st, ops))
    setups = [setup_main] + [setup_probe(wl.name, seed, k) for k in range(SETUP_REPEATS - 1)]
    samples = [t for p in passes for t in p.times.values()]
    q = tail_percentile(wl.MIN_PASSES * len(ops))
    tail_s, beyond = nearest_rank(samples, q)
    children = [r for p in passes for r in p.results.values() if hasattr(r, "maxrss_kb")]
    if children:
        rss_kb = max(r.maxrss_kb for r in children)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": median_pass(passes),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "width_sum": sum(passes[0].widths.values()),
    }
    failed = count_failures(passes)
    notes = [f"passes={len(passes)} ops_per_pass={len(ops)} samples={len(samples)}",
             "pass_s: " + " ".join(f"{p.solve_s:.4f}" for p in passes),
             f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
             f"op_tail_s is p{q:g} of n={len(samples)} ({beyond} samples beyond)",
             f"fail_frac={failed}/{len(samples)}"]
    return metrics, len(samples), failed, notes


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def library_layer_metrics(table, tracer) -> dict:
    c, calls = tracer.counts, table.calls
    chains = calls["conformal.ConformalChain"]
    chain_s = table.inclusive({"conformal.ConformalChain"})
    words = c["gdms.admissible_words:items"]
    words_s = table.inclusive({"gdms.admissible_words"})
    m = {
        "groups.lattice_s": table.inclusive({"groups.lattice_norm_histogram",
                                             "groups.lattice_shell_array"}),
        "groups.lattice_points": c["lattice_points"],
        "groups.lattice_keep_ratio": (c["lattice_points"] / c["lattice_candidates"]
                                      if c["lattice_candidates"] else 0.0),
        "conformal.chains_built": chains,
        "conformal.chain_s": chain_s,
        "conformal.us_per_chain": 1e6 * chain_s / chains if chains else 0.0,
        "systems.build_s": table.inclusive({"systems.build_cf_system",
                                            "systems.build_cantor_system",
                                            "systems.build_self_similar"}),
        "systems.packing_s": table.inclusive({"systems.sphere_packing"}),
        "systems.packing_accept_ratio": (c["packing_accepted"] / c["packing_candidates"]
                                         if c["packing_candidates"] else 0.0),
        "systems.distortion_s": table.inclusive({"thermo.estimate_distortion"}, site="systems"),
        "gdms.validate_s": table.inclusive({"gdms.GdmsSpec"}),
        "gdms.irreducibility_calls": calls["gdms.finite_irreducibility"],
        "gdms.irreducibility_s": table.inclusive({"gdms.finite_irreducibility"}),
        "gdms.words": words,
        "gdms.words_per_s": words / words_s if words_s else 0.0,
        "thermo.pressure_evals": calls["thermo.pressure_bracket"],
        "thermo.pressure_s": table.self_by_key["thermo.pressure_bracket"],
        "thermo.partition_sums": calls["thermo.log_partition_sum"],
        "thermo.perron_calls": calls["thermo.perron_eigenvalue"],
        "thermo.perron_s": table.inclusive({"thermo.perron_eigenvalue"}),
        "thermo.bisection_iters": c["bisection_iters"],
        "thermo.gibbs_s": table.inclusive({"thermo.transfer_eigenmeasure",
                                           "thermo.gibbs_check"}),
        "thermo.weights_s": table.inclusive({"thermo.compute_weight_table",
                                             "thermo.estimate_distortion"}),
        "thermo.theta_s": table.inclusive({"thermo.theta_estimate"}),
        "thermo.slack": tracer.sums["slack"],
    }
    for layer in LAYER_TABLE:
        m[f"{layer}.self_s"] = table.self_by_layer[layer]
    return m


def cli_pass_metrics(results) -> dict:
    procs = [r for r in results.values() if r is not None]
    exports = [r for lab, r in results.items() if lab.startswith("export_") and r is not None]
    cmd_s = sum(r.cmd_s for r in procs)
    wall = sum(r.wall for r in procs)
    export_bytes = sum(r.path.stat().st_size for r in exports if r.path.exists())
    export_cmd_s = sum(r.cmd_s for r in exports)
    return {"cli.cmd_s": cmd_s,
            "cli.overhead_frac": 1.0 - cmd_s / wall if wall else 0.0,
            "cli.export_bytes": export_bytes,
            "cli.export_mb_per_s": export_bytes / 1e6 / export_cmd_s if export_cmd_s else 0.0}


def cli_probe_metrics(workdir: Path) -> dict:
    """Import profile and cold start of the CLI, each the median of three."""
    from workloads import cli_env, run_child
    env = cli_env()
    imports, scipy_imports, cold = [], [], []
    for _ in range(3):
        r = run_child([sys.executable, "-X", "importtime", "-c", "import carnotdim.cli"],
                      workdir, env)
        total = scipy = 0
        for line in r.err.decode().splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = int(parts[0].rpartition(":")[2])
            except ValueError:
                continue  # the column header
            total += self_us
            if parts[2].strip().split(".")[0] == "scipy":
                scipy += self_us
        imports.append(total / 1e6)
        scipy_imports.append(scipy / 1e6)
        cold.append(run_child([sys.executable, "-m", "carnotdim.cli", "compare-dim",
                               "--h", "2.0"], workdir, env).wall)
    return {"cli.import_s": statistics.median(imports),
            "cli.import_scipy_s": statistics.median(scipy_imports),
            "cli.cold_start_s": statistics.median(cold)}


def traced(wl, st, seconds, workdir):
    import carnotdim
    from tracing import SpanTable, Tracer

    ops = wl.ops(st)
    t_start = perf_counter()
    untraced = run_pass(wl, st, ops)
    tracer = Tracer(carnotdim)
    passes, per_pass = [], []
    tracer.install()
    try:
        while not passes or fits([untraced] + passes, t_start, seconds):
            tracer.reset()
            p = run_pass(wl, st, ops, tracer)
            passes.append(p)
            m = library_layer_metrics(SpanTable(tracer.spans), tracer)
            m.update(cli_pass_metrics(p.results) if wl.name == "cli_export"
                     else dict.fromkeys(CLI_PASS_KEYS, 0.0))
            per_pass.append(m)
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(cli_probe_metrics(workdir) if wl.name == "cli_export"
                   else dict.fromkeys(CLI_PROBE_KEYS, 0.0))
    solve = median_pass(passes)
    metrics["trace.solve_s"] = solve
    metrics["trace.untraced_solve_s"] = untraced.solve_s
    metrics["trace.overhead_s"] = solve - untraced.solve_s
    every = [untraced] + passes
    failed = count_failures(every)
    attempted = sum(len(p.times) for p in every)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYER_TABLE)
    notes = [f"traced passes={len(passes)} after 1 untraced; ops_per_pass={len(ops)}",
             "layer self time per pass (s): " + ", ".join(
                 f"{layer}={metrics[f'{layer}.self_s']:.4f}" for layer in LAYER_TABLE),
             f"sum of layer self times {self_sum:.4f} s, traced solve_s {solve:.4f} s; "
             f"untraced solve_s {untraced.solve_s:.4f} s; "
             f"tracing overhead {metrics['trace.overhead_s']:+.4f} s",
             f"fail_frac={failed}/{attempted}"]
    return metrics, attempted, failed, notes


# ---------------------------------------------------------------------------

def declared_metrics(trace: bool):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "carnotdim" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/carnotdim", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as W
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))
    workdir = ROOT / ".perfbench" / f"{wl.name}-{os.getpid()}"
    try:
        imports_s = perf_counter() - _T0
        t0 = perf_counter()
        st = wl.setup(args.seed, "full", workdir)
        setup_main = imports_s + perf_counter() - t0
        wl.expect(st)
        if args.trace:
            metrics, attempted, failed, notes = traced(wl, st, args.seconds, workdir)
        else:
            metrics, attempted, failed, notes = end_to_end(wl, st, args.seed, args.seconds,
                                                           setup_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    names = {name for name, _ in declared}
    if names != set(metrics):
        raise KeyError(f"computed metrics differ from BENCHMARK.json: "
                       f"missing {sorted(names - set(metrics))}, "
                       f"undeclared {sorted(set(metrics) - names)}")
    print(f"# perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env_stamp().items()))
    for line in notes:
        print("# " + line)
    for name, unit in declared:
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
