"""The benchmark's four workloads.

Each workload builds its fixed inputs from a seed (``setup``), computes its
reference answers with ``oracles`` (``expect``, untimed), and lists the
operations of one pass.  An operation returns a small summary of what the
package produced; its ``check`` returns (ok, bracket width) against the
oracle, and ``pass_check`` returns the labels that fail a check spanning
several operations.  Every loop is closed: one client, one process, the next
operation starts when the previous one has returned.

Sizes are given as (full, tiny); the self-test runs the tiny ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

# One BLAS thread for the package, the oracles and every CLI child: the
# matrices here are at most a few hundred wide, and on a 2-vCPU VM waking BLAS
# worker threads stalled single calls by 10-80 ms at random, which dominated
# the run-to-run spread.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import oracles as O  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
Q_HEIS1 = 4  # homogeneous dimension of the first Heisenberg group


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Tuple[bool, float]]


def _seeds(seed: int, n: int) -> List[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=n)]


def _dim_summary(db) -> Dict[str, float]:
    return {"h_lo": float(db.h_lo), "h_hi": float(db.h_hi)}


def _bracket_ok(s, h_min: float, h_max: float, eps: float = 1e-9) -> bool:
    """A certified bracket must meet [h_min, h_max], the interval that is
    known to hold the true dimension, and may not be inverted."""
    return s["h_lo"] <= s["h_hi"] and s["h_lo"] <= h_max + eps and s["h_hi"] >= h_min - eps


# ---------------------------------------------------------------------------
# cf_build_dim
# ---------------------------------------------------------------------------

class CfBuildDim:
    name = "cf_build_dim"
    why = ("closed loop, 1 client: build CF on Heis^1 at R=4,5,6 (0.8k/2.6k/5.9k edges) and a "
           "3-shell Cantor system (~0.56k edges), each then bowen_dim tol 1e-3; build dominates")
    SIZES = {"full": ((4.0, 5.0, 6.0), 3), "tiny": ((3.5, 4.0), 2)}
    TOL = 1e-3
    EPSILON = 0.5
    CANTOR_EPS, SEP_SCALE = 2.0, 8.0
    MIN_PASSES = 6  # 42 samples: op_tail_s is p75

    def setup(self, seed: int, size: str = "full", workdir=None):
        import carnotdim as cd
        radii, shells = self.SIZES[size]
        d_seed, c_seed = _seeds(seed, 2)
        return SimpleNamespace(
            cd=cd, g=cd.heisenberg(1), radii=radii, d_seed=d_seed, c_seed=c_seed, built={},
            cf_params=[cd.CfSystemParams(self.EPSILON, R) for R in radii],
            cantor_params=cd.CantorSystemParams(epsilon=self.CANTOR_EPS, shells=shells,
                                                separation_scale=self.SEP_SCALE))

    def expect(self, st):
        st.cf_norms = [O.lattice_norms(2.5 + self.EPSILON, R) for R in st.radii]
        # Cantor shells: radii d_n = sum_{j<=n} j^-eps, maps of ratio
        # sep_n / (10 d0) with sep_n = scale (n+2)^-eps and d0 = 2 / inner,
        # acting on the annulus inner <= ||x|| <= outer, where ||DJ(x)|| = ||x||^-2
        n = np.arange(1, st.cantor_params.shells + 1, dtype=float)
        d = np.cumsum(n ** -self.CANTOR_EPS)
        st.inner, st.outer = d[0] - 0.1, d[-1] + 0.1
        st.cantor_ratio = self.SEP_SCALE * (n + 2.0) ** -self.CANTOR_EPS / (10.0 * 2.0 / st.inner)

    def ops(self, st) -> List[Op]:
        cd, g = st.cd, st.g
        ops = []
        for params, norms in zip(st.cf_params, st.cf_norms):
            label = f"cf_R{params.radius:g}"
            lo, up = O.cf_log_weights(norms)
            h_range = (O.moran_root(lo), O.moran_root(up))

            def run_build(params=params, label=label):
                st.built[label] = cd.build_cf_system(g, params, distortion_seed=st.d_seed)
                return st.built[label].n_edges

            def run_dim(label=label):
                return _dim_summary(cd.bowen_dim(st.built.pop(label), tol=self.TOL))

            def check_dim(s, h_range=h_range):
                return (s["h_hi"] < Q_HEIS1 and _bracket_ok(s, *h_range),
                        s["h_hi"] - s["h_lo"])
            ops += [Op(f"build_{label}", run_build, lambda n, norms=norms: (n == norms.size, 0.0)),
                    Op(f"dim_{label}", run_dim, check_dim)]

        def run_cantor():
            sys_ = cd.build_cantor_system(g, st.cantor_params, seed=st.c_seed)
            shells = np.asarray(sys_.cantor_shells)
            counts = np.bincount(shells, minlength=st.cantor_params.shells + 1)[1:]
            return {**_dim_summary(cd.bowen_dim(sys_, tol=self.TOL)), "shell_counts": counts}

        def check_cantor(s):
            counts = s["shell_counts"]
            if (counts < 1).any():
                return False, 0.0
            log_r, log_c = np.log(st.cantor_ratio), np.log(counts)
            h_min, h_max = (O.bisect_decreasing(
                lambda t, r=r: O.log_sum_pow(log_r - 2 * math.log(r), t, log_c))
                for r in (st.outer, st.inner))
            return (s["h_hi"] < Q_HEIS1 and _bracket_ok(s, h_min, h_max),
                    s["h_hi"] - s["h_lo"])
        # one operation, not two: an odd number of operation kinds keeps the
        # median operation inside one cluster of times rather than in a gap
        ops.append(Op("cantor", run_cantor, check_cantor))
        return ops

    def pass_check(self, st, results) -> Set[str]:
        labels = [f"dim_cf_R{R:g}" for R in st.radii]
        lows = [results[lab]["h_lo"] if results.get(lab) else None for lab in labels]
        bad = set()
        for a, b, lab in zip(lows, lows[1:], labels[1:]):
            if a is None or b is None or b < a:  # lower bounds nondecreasing in R
                bad.add(lab)
        return bad


# ---------------------------------------------------------------------------
# lattice_theta
# ---------------------------------------------------------------------------

class LatticeTheta:
    name = "lattice_theta"
    why = ("closed loop, 1 client: cf_shell_family r_max=60, 8 shells (64M lattice points) + "
           "theta_estimate, and criterion-9 shell counts up to R=30; lattice enumeration dominates")
    SIZES = {"full": (60.0, 8, (10.0, 14.0, 18.0, 22.0, 26.0, 30.0)),
             "tiny": (24.0, 6, (6.0, 8.0, 10.0, 12.0))}
    EPSILON = 0.5
    MIN_PASSES = 6  # 42 samples: op_tail_s is p75

    def setup(self, seed: int, size: str = "full", workdir=None):
        import carnotdim as cd
        r_max, shells, radii = self.SIZES[size]
        # seeded offsets on all but the largest radius, whose point array sets
        # the workload's peak memory (it moves by 14 % between R=30 and 30.5)
        offsets = np.random.default_rng(seed).uniform(0.0, 0.5, size=len(radii) - 1)
        return SimpleNamespace(cd=cd, g=cd.heisenberg(1), r_max=r_max, shells=shells,
                               radii=[float(r + u) for r, u in zip(radii, offsets)]
                               + [float(radii[-1])])

    def expect(self, st):
        # the shells cover Delta <= ||gamma|| <= r_max
        st.theta_points = (O.lattice_count_below(np.nextafter(st.r_max, np.inf))
                           - O.lattice_count_below(2.5 + self.EPSILON))
        st.counts = [O.lattice_count_below(R) for R in st.radii]

    def ops(self, st) -> List[Op]:
        cd, g = st.cd, st.g

        def run_theta():
            fam = cd.cf_shell_family(g, self.EPSILON, st.r_max, n_shells=st.shells)
            est = cd.theta_estimate(fam)
            return {"lo": est.lo, "hi": est.hi, "hat": est.estimate,
                    "points": int(sum(int(c.sum()) for c in fam.counts))}

        def check_theta(s):
            half_q = Q_HEIS1 / 2
            return (s["lo"] <= half_q <= s["hi"] and s["hi"] - s["lo"] <= 0.4
                    and s["lo"] <= s["hat"] <= s["hi"] and s["points"] == st.theta_points,
                    s["hi"] - s["lo"])

        ops = [Op("theta", run_theta, check_theta)]
        for k, R in enumerate(st.radii):
            def run(R=R):
                Z, _ = cd.lattice_shell_array(g, 0.0, R)
                return Z.shape[0]
            ops.append(Op(f"count_R{k}", run,
                          lambda n, k=k: (n == st.counts[k], 0.0)))
        return ops

    def pass_check(self, st, results) -> Set[str]:
        counts = [results.get(f"count_R{k}") for k in range(len(st.radii))]
        if None in counts or abs(O.loglog_slope(st.radii, counts) - 4.0) > 0.05 * 4.0:
            return {f"count_R{len(st.radii) - 1}"}
        return set()


# ---------------------------------------------------------------------------
# gdms_spectral
# ---------------------------------------------------------------------------

def _random_irreducible(rng, k: int, density: float) -> np.ndarray:
    A = rng.random((k, k)) < density
    perm = rng.permutation(k)
    A[perm, np.roll(perm, -1)] = True  # a full cycle: irreducible
    A[perm[0], perm[0]] = True          # a loop: aperiodic
    return A


def _cf_edge_norms(sys_) -> np.ndarray:
    """Gauge norms of the CF letters, read from the edge ids 'g<x>,<y>,<t>'."""
    c = np.array([[int(v) for v in e.id[1:].split(",")] for e in sys_.edges], float)
    z2 = c[:, 0] ** 2 + c[:, 1] ** 2
    return (z2 * z2 + c[:, 2] ** 2) ** 0.25


class GdmsSpectral:
    name = "gdms_spectral"
    why = ("closed loop, 1 client: thermodynamics on prebuilt systems: spectral bowen_dim on a "
           "random-incidence CF R=3.15 (86 edges), subadditive CF R=5, Moran/spectral oracles, Gibbs")
    # (spectral CF radius, subadditive CF radius, oracle systems, Gibbs depth)
    SIZES = {"full": (3.15, 5.0, 4, 20), "tiny": (3.05, 3.5, 2, 8)}
    DENSITY = 0.3
    GRID = np.linspace(0.0, 4.0, 15)
    MIN_PASSES = 4  # 104 samples: op_tail_s is p90

    def setup(self, seed: int, size: str = "full", workdir=None):
        import carnotdim as cd
        r_spec, r_sub, n_oracle, depth = self.SIZES[size]
        g = cd.heisenberg(1)
        d_seed, m_seed = _seeds(seed, 2)
        rng = np.random.default_rng(m_seed)
        base = cd.build_cf_system(g, cd.CfSystemParams(0.5, r_spec), distortion_seed=d_seed)
        A = _random_irreducible(rng, base.n_edges, self.DENSITY)
        spectral = cd.GdmsSpec(g, base.vertices, base.edges, incidence=A,
                               contraction=base.contraction, weights=base.weights,
                               validate="none")
        subadd = cd.build_cf_system(g, cd.CfSystemParams(0.5, r_sub), distortion_seed=d_seed)
        oracle_systems = []
        for kind in ("moran", "spectral") * n_oracle:
            k = int(rng.integers(2, 7))
            ratios = rng.uniform(0.1, 0.8, size=k)
            maps = [(cd.gpoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)), float(r))
                    for r in ratios]
            inc = _random_irreducible(rng, k, 0.4) if kind == "spectral" else None
            oracle_systems.append((kind, ratios, inc,
                                   cd.build_self_similar(g, maps, incidence=inc)))
        golden = cd.build_self_similar(
            g, [(cd.gpoint([0.0, 0.0], [0.0]), 0.5), (cd.gpoint([1.0, 0.0], [0.0]), 1 / 3)],
            incidence=np.array([[1, 1], [1, 0]], bool))
        return SimpleNamespace(cd=cd, spectral=spectral, A=A, subadd=subadd, r_spec=r_spec,
                               oracle_systems=oracle_systems, golden=golden, depth=depth)

    def expect(self, st):
        norms = _cf_edge_norms(st.spectral)
        st.alphabet_ok = np.allclose(np.sort(norms), O.lattice_norms(3.0, st.r_spec),
                                     rtol=0, atol=1e-12)
        lo, up = O.cf_log_weights(norms)
        st.spec_range = (O.spectral_root(st.A, lo), O.spectral_root(st.A, up))
        lo5, up5 = O.cf_log_weights(_cf_edge_norms(st.subadd))
        st.sub_logw = (lo5, up5)
        st.sub_range = (O.moran_root(lo5), O.moran_root(up5))
        st.oracle_roots = [O.moran_root(np.log(r)) if inc is None
                           else O.spectral_root(inc, np.log(r), tol=1e-12)
                           for _, r, inc, _ in st.oracle_systems]
        st.golden_h = O.golden_root()
        st.golden_words = O.golden_words(st.depth)

    def ops(self, st) -> List[Op]:
        cd = st.cd

        def dim_op(label, sys_, tol, h_range, inputs_ok=True):
            def check(s):
                return (inputs_ok and _bracket_ok(s, *h_range) and s["h_hi"] < Q_HEIS1,
                        s["h_hi"] - s["h_lo"])
            return Op(label, lambda: _dim_summary(cd.bowen_dim(sys_, tol=tol)), check)

        ops = [dim_op("spectral_cf", st.spectral, 1e-3, st.spec_range, st.alphabet_ok),
               dim_op("subadditive_cf", st.subadd, 1e-6, st.sub_range)]
        for k, t in enumerate(self.GRID):
            def run(t=float(t)):
                pb = cd.pressure_bracket(st.subadd, t)
                return {"t": t, "lo": pb.lower, "hi": pb.upper}

            def check(s):
                lo_w, up_w = st.sub_logw  # log sum w_lo^t <= P(t) <= log sum w_up^t
                eps = 1e-9 * (1 + abs(s["hi"]))
                return (math.isfinite(s["lo"]) and s["lo"] <= s["hi"]
                        and s["lo"] <= O.log_sum_pow(up_w, s["t"]) + eps
                        and s["hi"] >= O.log_sum_pow(lo_w, s["t"]) - eps, 0.0)
            ops.append(Op(f"pressure_{k}", run, check))
        for k, ((kind, _, _, sys_), root) in enumerate(zip(st.oracle_systems, st.oracle_roots)):
            def check(s, root=root):
                return (s["h_lo"] - 1e-9 <= root <= s["h_hi"] + 1e-9
                        and s["h_hi"] - s["h_lo"] <= 1e-9 + 1e-12, s["h_hi"] - s["h_lo"])
            ops.append(Op(f"{kind}_{k}", lambda sys_=sys_: _dim_summary(
                cd.bowen_dim(sys_, tol=1e-9)), check))

        def run_gibbs():
            m = cd.transfer_eigenmeasure(st.golden, st.golden_h, st.depth)
            lo, hi = cd.gibbs_check(m, st.golden, st.golden_h)
            return {"lo": lo, "hi": hi, "words": len(m.words), "lam": m.eigenvalue,
                    "mass": float(m.masses.sum())}

        def check_gibbs(s):
            return (s["lo"] > 0 and s["hi"] / s["lo"] <= 1.01
                    and s["words"] == st.golden_words and abs(s["mass"] - 1) <= 1e-9
                    and abs(s["lam"] - 1) <= 1e-8, 0.0)
        ops.append(Op("gibbs", run_gibbs, check_gibbs))
        return ops

    def pass_check(self, st, results) -> Set[str]:
        return set()


# ---------------------------------------------------------------------------
# cli_export
# ---------------------------------------------------------------------------

MORAN4 = {"spec_version": 1, "kind": "moran", "group": {"kind": "heis_c", "n": 1},
          "maps": [{"translate": [x, y, 0.0], "scale": 0.5}
                   for x, y in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))]}
FIB2 = {"spec_version": 1, "kind": "moran", "group": {"kind": "heis_c", "n": 1},
        "maps": [{"translate": [0.0, 0.0, 0.0], "scale": 0.5},
                 {"translate": [1.0, 0.0, 0.0], "scale": 1.0 / 3.0}],
        "incidence": [[1, 1], [1, 0]]}
GDMS2 = {"spec_version": 1, "kind": "gdms", "group": {"kind": "heis_c", "n": 1},
         "vertices": [{"id": "X", "center": [0.0, 0.0, 0.0], "radius": 2.01}],
         "edges": [{"id": "a", "src": "X", "dst": "X",
                    "chain": [{"translate": [0.0, 0.0, 0.0]}, {"dilate": 0.5}]},
                   {"id": "b", "src": "X", "dst": "X",
                    "chain": [{"translate": [1.0, 0.0, 0.0]}, {"dilate": 0.5}]}]}


@dataclass
class ChildResult:
    rc: int
    out: bytes
    err: bytes
    wall: float
    maxrss_kb: int
    path: Optional[Path] = None  # the file an export command wrote

    @property
    def cmd_s(self) -> float:
        """The command's own wallclock_s= report on stderr (0 if absent)."""
        for line in self.err.decode(errors="replace").splitlines():
            if line.startswith("wallclock_s="):
                return float(line.partition("=")[2])
        return 0.0


def run_child(argv, cwd: Path, env=None) -> ChildResult:
    """Run one child to completion; its own peak RSS comes from wait4."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                       wall, usage.ru_maxrss)


def cli_env() -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("CARNOTDIM_BUDGET", "CARNOTDIM_LATTICE_BUDGET"):
        env.pop(var, None)
    return env


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliExport:
    name = "cli_export"
    why = ("closed loop, 1 child at a time: the criterion-10 CLI matrix (threads 1 and nproc in "
           "turn), then limitset depth 8 (65536 rows) to CSV, PLY and chaos CSV; cold start dominates")
    SIZES = {"full": 8, "tiny": 3}
    OP_LAYER = "cli"  # each operation is one CLI process
    MIN_PASSES = 2  # both thread counts; 24 samples: op_tail_s is p50

    def setup(self, seed: int, size: str = "full", workdir=None):
        import carnotdim  # noqa: F401  (set-up includes the import, as for every workload)
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        for name, spec in (("moran4", MORAN4), ("fib2", FIB2), ("gdms2", GDMS2)):
            (workdir / f"{name}.json").write_text(json.dumps(spec))
        depth = self.SIZES[size]
        return SimpleNamespace(workdir=workdir, depth=depth, env=cli_env(),
                               chaos_seed=_seeds(seed, 1)[0], first_out={}, passes_done=0)

    def expect(self, st):
        st.golden_h = O.golden_root()
        st.rows = 4 ** st.depth

    def _matrix(self, st):
        """(label, argv, check) of the criterion-10 command matrix."""
        g_h = st.golden_h

        def pressure_moran(r):
            p = math.log(4 * 0.5 ** 0.5)
            return abs(r["P_lo"] - p) <= 1e-12 and abs(r["P_hi"] - p) <= 1e-12, 0.0

        def dim_fib(r):
            return (r["h_lo"] - 1e-6 <= g_h <= r["h_hi"] + 1e-6
                    and r["h_hi"] - r["h_lo"] <= 1e-6 + 1e-12, r["h_hi"] - r["h_lo"])

        def theta(r):
            return r["theta_lo"] <= r["theta_hat"] <= r["theta_hi"], r["theta_hi"] - r["theta_lo"]

        def measure(r):
            return (abs(r["mass_total"] - 1) <= 1e-9 and r["gibbs_min"] > 0
                    and r["gibbs_max"] / r["gibbs_min"] <= 1.01, 0.0)

        def compare(r):
            # Heis^1: beta_-(a) = max(a, 2a - 2), beta_+(a) = min(2a, a + 1); h = 2
            return (r["euclid_lo"] == 1.0 and r["euclid_hi"] == 2.0
                    and r["Q"] == 4 and r["N"] == 3, 0.0)

        def measure_dim(r):
            return abs(r["dimension"] - 2.0) <= 1e-12, 0.0  # log 4 / log 2

        def subsystem(r):
            return (not r["exhausted"] and 0.6 - 1e-4 <= r["h_lo"] <= r["h_hi"] <= 0.6, 0.0)

        def grid_csv(out):
            header, v = O.csv_rows(out)
            want = (1 - v[:, 0]) * math.log(2)  # two maps of ratio 1/2
            return (header == ["t", "P_lo", "P_hi"] and v.shape == (5, 3)
                    and np.abs(v[:, 1:] - want[:, None]).max() <= 1e-12, 0.0)

        def limit_csv(out):
            header, v = O.csv_rows(out)
            return header == ["z1", "z2", "t1", "err"] and v.shape == (64, 4), 0.0

        json_cmds = [
            ("pressure", ["pressure", "--spec", "moran4.json", "--t", "0.5"], pressure_moran),
            ("dim", ["dim", "--spec", "fib2.json"], dim_fib),
            ("theta", ["theta", "--system", "cf", "--radius", "12", "--shells", "5"], theta),
            ("measure", ["measure", "--spec", "fib2.json", "--t", "0.8", "--depth", "4"],
             measure),
            ("compare-dim", ["compare-dim", "--h", "2.0"], compare),
            ("measure-dim", ["measure-dim", "--spec", "moran4.json",
                             "--bernoulli", "0.25,0.25,0.25,0.25"], measure_dim),
            ("subsystem", ["subsystem", "--target", "0.6"], subsystem),
        ]
        cmds = [(lab, argv, lambda out, f=f: f(O.strict_json(out))) for lab, argv, f in json_cmds]
        cmds.insert(1, ("pressure-grid", ["pressure", "--spec", "gdms2.json", "--t-grid",
                                          "0.2:1.0:0.2", "--format", "csv"], grid_csv))
        cmds.insert(5, ("limitset", ["limitset", "--spec", "moran4.json", "--depth", "3"],
                        limit_csv))
        return cmds

    def ops(self, st) -> List[Op]:
        base = [sys.executable, "-m", "carnotdim.cli"]
        nthreads = str(os.cpu_count() or 1)
        ops = []
        for label, argv, check in self._matrix(st):
            def run(argv=argv):
                # criterion 10 runs each command at 1 and nproc threads: passes alternate
                threads = ("1", nthreads)[st.passes_done % 2]
                return run_child(base + argv + ["--threads", threads], st.workdir, st.env)

            def check_child(r, check=check):
                return check(r.out) if r.rc == 0 else (False, 0.0)
            ops.append(Op(label, run, check_child))
        d = str(st.depth)
        exports = [
            ("export_csv", ["--out", "cloud.csv"], "cloud.csv"),
            ("export_ply", ["--out", "cloud.ply"], "cloud.ply"),
            ("export_chaos", ["--mode", "chaos", "--samples", str(st.rows), "--seed",
                              str(st.chaos_seed), "--out", "chaos.csv"], "chaos.csv"),
        ]
        for label, extra, fname in exports:
            def run(extra=extra, fname=fname):
                path = st.workdir / fname
                if path.exists():
                    path.unlink()
                r = run_child(base + ["limitset", "--spec", "moran4.json", "--depth", d]
                              + extra, st.workdir, st.env)
                r.path = path
                return r

            def check_export(r):
                if r.rc != 0 or not r.path.exists():
                    return False, 0.0
                if r.path.suffix == ".ply":
                    return O.ply_vertices(r.path) == st.rows, 0.0
                return O.count_lines(r.path) == st.rows + 1, 0.0
            ops.append(Op(label, run, check_export))
        return ops

    def pass_check(self, st, results) -> Set[str]:
        """stdout byte-identical across passes (so across thread counts), and
        export files byte-identical across passes."""
        st.passes_done += 1
        bad = set()
        for label, r in results.items():
            if r is None:
                continue
            if r.path is None:
                value = r.out
            else:
                value = _file_digest(r.path) if r.path.exists() else None
            if st.first_out.setdefault(label, value) != value:
                bad.add(label)
        return bad


WORKLOADS = {w.name: w for w in (CfBuildDim(), LatticeTheta(), GdmsSpectral(), CliExport())}
