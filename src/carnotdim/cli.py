"""Command-line interface.

One command per process; all numeric work is deterministic given the
configuration (seeds are explicit, `--threads` is accepted for interface
stability but every reduction is already order-deterministic).  Timing is
reported on stderr only, so output files are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import time
from contextlib import contextmanager

import numpy as np

from .errors import BudgetError, CarnotDimError, NonConvergenceError, ValidationError
from . import groups as G
from .groups import GroupSpec
from .conformal import chain_from_json
from .gdms import DEFAULT_WORD_BUDGET, EdgeMap, GdmsSpec, VertexSet
from . import dimension as D
from .thermo import (InvariantMeasureSpec, bowen_dim, ensure_weights,
                     gibbs_check, measure_dimension, pressure_bracket,
                     subsystem_with_dimension, theta_estimate,
                     transfer_eigenmeasure, WeightTable)
from .systems import (CantorSystemParams, CfSystemParams, build_cantor_system,
                      build_cf_system, build_self_similar, cantor_shell_family,
                      cf_shell_family, power_law_weights)

SPEC_VERSION = 1


# ---------------------------------------------------------------------------
# Spec ingestion
# ---------------------------------------------------------------------------

@contextmanager
def _input_errors(what: str):
    """Report a missing key, a bad value or broken JSON in `what` as a ValidationError."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{what} is missing the key {exc.args[0]!r}") from None
    # JSONDecodeError is a ValueError; int(inf) raises OverflowError
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from None


def _read_json(path: str, what: str):
    with open(path) as fh, _input_errors(what):
        return json.load(fh)


def group_from_json(obj) -> GroupSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("group fragment needs a 'kind'")
    kind = obj["kind"]
    if kind == "heis_c":
        return G.heisenberg(int(obj.get("n", 1)))
    if kind == "heis_q":
        return G.quaternionic_heisenberg(int(obj.get("n", 1)))
    if kind == "step2":
        B = np.asarray(obj["B"], float)
        return G.step2(B)
    raise ValidationError(f"unknown group kind {kind!r}")


def parse_group_flag(text: str) -> GroupSpec:
    """--group heis_c:1 | heis_q:2 | a path to a JSON group fragment."""
    if os.path.exists(text):
        obj = _read_json(text, "group file")
    elif ":" in text:
        kind, _, n = text.partition(":")
        obj = {"kind": kind, "n": n}
    else:
        obj = {"kind": text}
    with _input_errors("--group"):
        return group_from_json(obj)


def _point(g: GroupSpec, value, what: str):
    """The point of a spec's coordinate list (z..., t...): m1 + m2 finite numbers."""
    coords = np.asarray(value, float)
    if coords.shape != (g.m1 + g.m2,) or not np.isfinite(coords).all():
        raise ValidationError(f"{what} must be {g.m1 + g.m2} finite numbers, got {value!r}")
    return G.gpoint(coords[:g.m1], coords[g.m1:])


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


def system_from_json(obj) -> GdmsSpec:
    """Build the system of a parsed spec; a malformed spec raises ValidationError."""
    if not isinstance(obj, dict):
        raise ValidationError("a system spec must be a JSON object")
    if obj.get("spec_version") != SPEC_VERSION:
        raise ValidationError(f"unsupported spec_version {obj.get('spec_version')!r}")
    kind = obj.get("kind", "gdms")
    if kind not in ("moran", "gdms"):
        raise ValidationError(f"unknown system kind {kind!r}")
    with _input_errors("spec"):
        g = group_from_json(obj["group"])
        incidence = obj.get("incidence")
        if incidence is not None:
            incidence = np.asarray(incidence, bool)
        if kind == "moran":
            maps = []
            for m in obj["maps"]:
                p = _point(g, m["translate"], "a map's translate")
                if "rotate_theta" in m:
                    maps.append((p, float(m["scale"]), float(m["rotate_theta"])))
                else:
                    maps.append((p, float(m["scale"])))
        else:
            vertices = []
            for v in obj["vertices"]:
                vertices.append(VertexSet(id=_name(v["id"], "a vertex id"),
                                          center=_point(g, v["center"], "a vertex center"),
                                          radius=float(v["radius"]),
                                          inner_radius=float(v.get("inner_radius", 0.0))))
            edges = [EdgeMap(id=_name(e["id"], "an edge id"), src=_name(e["src"], "an edge src"),
                             dst=_name(e["dst"], "an edge dst"),
                             chain=chain_from_json(g, e["chain"]))
                     for e in obj["edges"]]
            weights = None
            if "weights" in obj:
                w = obj["weights"]
                weights = WeightTable(np.asarray(w["w_lo"], float),
                                      np.asarray(w["w_up"], float),
                                      distortion=float(w.get("distortion", 1.0)))
            contraction = obj.get("contraction")
            if contraction is not None:
                contraction = float(contraction)
    if kind == "moran":
        return build_self_similar(g, maps, incidence=incidence)
    return GdmsSpec(g, vertices, edges, incidence=incidence,
                    contraction=contraction, weights=weights,
                    validate=obj.get("validate", "closed_form"))


def load_system(args) -> GdmsSpec:
    if getattr(args, "spec", None):
        return system_from_json(_read_json(args.spec, "spec"))
    system = getattr(args, "system", None)
    if system == "cf":
        g = parse_group_flag(args.group)
        return build_cf_system(g, CfSystemParams(args.epsilon, args.radius),
                               budget=args.lattice_budget)
    if system == "cantor":
        g = parse_group_flag(args.group)
        return build_cantor_system(
            g, CantorSystemParams(epsilon=args.epsilon, shells=args.shells),
            seed=args.seed, budget=args.lattice_budget)
    raise ValidationError("no system given: use --spec FILE or --system cf|cantor")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _record(args, op: str, payload: dict) -> str:
    rec = {"op": op, "params": _param_echo(args), **payload}
    try:
        return json.dumps(rec, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or infinity in the result
        raise NonConvergenceError(f"{op} produced a non-finite value ({exc})") from None


def _param_echo(args) -> dict:
    skip = {"func", "out", "format", "threads"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None or callable(v):
            continue
        out[k] = v
    return out


def _grid(text: str, budget: int):
    """The points lo + k*step of lo:hi:step; more than `budget` is a BudgetError."""
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValidationError(f"bad grid {text!r}: expected lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValidationError(f"bad grid {text!r}")
    steps = (hi - lo) / step  # may overflow to inf
    if steps + 1 > budget:
        raise BudgetError(f"grid {text!r} has {steps + 1:.6g} points (budget {budget})",
                          estimate=steps + 1, budget=budget)
    return [lo + k * step for k in range(int(round(steps)) + 1)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_pressure(args):
    if args.t is None and not args.t_grid:
        raise ValidationError("pressure needs --t T or --t-grid lo:hi:step")
    sys = load_system(args)
    if args.t_grid or args.format == "csv":
        rows = []
        for t in _grid(args.t_grid, args.budget) if args.t_grid else [args.t]:
            pb = pressure_bracket(sys, t)
            rows.append((t, pb.lower, pb.upper))
        if args.format == "json":
            payload = {"grid": [{"t": t, "P_lo": lo, "P_hi": hi} for t, lo, hi in rows],
                       "distortion": ensure_weights(sys).distortion}
            _emit(args, _record(args, "pressure", payload))
        else:
            lines = ["t,P_lo,P_hi"]
            lines += [f"{t:.17g},{lo:.17g},{hi:.17g}" for t, lo, hi in rows]
            _emit(args, "\n".join(lines) + "\n")
        return
    pb = pressure_bracket(sys, args.t)
    _emit(args, _record(args, "pressure", {**pb.to_json(),
                                           "distortion": pb.distortion}))


def cmd_dim(args):
    sys = load_system(args)
    db = bowen_dim(sys, tol=args.tol)
    payload = {**db.to_json(), "distortion": ensure_weights(sys).distortion,
               "edges": sys.n_edges}
    _emit(args, _record(args, "dim", payload))


def cmd_theta(args):
    g = parse_group_flag(args.group)
    if args.system == "cf":
        fam = cf_shell_family(g, args.epsilon, args.radius,
                              n_shells=args.shells, budget=args.lattice_budget)
    elif args.system == "cantor":
        sysm = build_cantor_system(
            g, CantorSystemParams(epsilon=args.epsilon, shells=args.shells),
            seed=args.seed, budget=args.lattice_budget)
        fam = cantor_shell_family(sysm)
    else:
        raise ValidationError("theta needs --system cf|cantor")
    est = theta_estimate(fam)
    _emit(args, _record(args, "theta", est.to_json()))


def cmd_measure(args):
    sys = load_system(args)
    m = transfer_eigenmeasure(sys, args.t, args.depth, budget=args.budget)
    lo, hi = gibbs_check(m, sys, args.t, side=args.side)
    payload = {"eigenvalue": m.eigenvalue, "depth": m.depth, "t": m.t,
               "mass_total": float(m.masses.sum()),
               "gibbs_min": lo, "gibbs_max": hi,
               "distortion": ensure_weights(sys).distortion}
    _emit(args, _record(args, "measure", payload))


def cmd_limitset(args):
    sys = load_system(args)
    cloud = sys.limit_set_cloud(args.depth, mode=args.mode,
                                samples=args.samples, seed=args.seed,
                                budget=args.budget)
    if not (np.isfinite(cloud.Z).all() and np.isfinite(cloud.T).all()):
        raise NonConvergenceError("limit-set cloud has a non-finite coordinate")
    if args.out and args.out.endswith(".ply"):
        cloud.to_ply(args.out)
    elif args.out:
        cloud.to_csv(args.out)
    else:
        cloud.write_csv(_sys.stdout)


def cmd_compare_dim(args):
    g = parse_group_flag(args.group)
    m = [g.m1, g.m2]
    lo, hi = D.euclidean_dim_bounds(args.h, m)
    _emit(args, _record(args, "compare-dim",
                        {"h": args.h, "euclid_lo": lo, "euclid_hi": hi,
                         "layers": m, "Q": D.homogeneous_dim(m),
                         "N": D.topological_dim(m)}))


def cmd_measure_dim(args):
    sys = load_system(args)
    if args.bernoulli:
        with _input_errors("--bernoulli"):
            p = np.asarray([float(x) for x in args.bernoulli.split(",")])
        mu = InvariantMeasureSpec.bernoulli(p)
    elif args.markov:
        with _input_errors("--markov file"):
            P = np.asarray(_read_json(args.markov, "--markov file"), float)
        mu = InvariantMeasureSpec.markov(P)
    else:
        raise ValidationError("measure-dim needs --bernoulli p1,p2,... or --markov FILE")
    val = measure_dimension(sys, mu)
    _emit(args, _record(args, "measure-dim", {"dimension": val}))


def cmd_subsystem(args):
    gen = power_law_weights(args.c, args.exponent)
    res = subsystem_with_dimension(gen, args.target, tol=args.tol,
                                   budget=args.budget)
    payload = {"n_edges": len(res.indices), "h_lo": res.dim.h_lo,
               "h_hi": res.dim.h_hi, "exhausted": res.exhausted,
               "trace_tail": [[int(i), h] for i, h in res.trace[-5:]]}
    _emit(args, _record(args, "subsystem", payload))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, system=False):
    # argparse converts a string default with `type`, so a malformed variable is a usage error
    p.add_argument("--budget", type=int,
                   default=os.environ.get("CARNOTDIM_BUDGET", str(DEFAULT_WORD_BUDGET)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for interface stability; results are "
                        "independent of thread count")
    p.add_argument("--out", default=None)
    if system:
        p.add_argument("--spec", default=None, help="system spec JSON file")
        p.add_argument("--lattice-budget", dest="lattice_budget", type=int,
                       default=os.environ.get("CARNOTDIM_LATTICE_BUDGET",
                                              str(G.DEFAULT_LATTICE_BUDGET)))
        p.add_argument("--system", choices=["cf", "cantor"], default=None)
        p.add_argument("--group", default="heis_c:1")
        p.add_argument("--epsilon", type=float, default=0.5)
        p.add_argument("--radius", type=float, default=8.0)
        p.add_argument("--shells", type=int, default=6)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed argv: the usage text, then exit 2 with JSON
        self.print_usage(_sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="carnotdim",
        description="Dimension computations for conformal graph directed "
                    "Markov systems on step-2 Carnot groups")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure", help="two-sided pressure bounds")
    _add_common(p, system=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-grid", dest="t_grid", default=None, help="lo:hi:step")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("dim", help="Bowen parameter bracket")
    _add_common(p, system=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("theta", help="finiteness threshold from shell sums")
    _add_common(p, system=True)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("measure", help="transfer eigenmeasure + Gibbs check")
    _add_common(p, system=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--side", choices=["lower", "mid", "upper"], default="mid")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("limitset", help="limit-set point cloud (CSV or PLY)")
    _add_common(p, system=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--mode", choices=["deterministic", "chaos"],
                   default="deterministic")
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=cmd_limitset)

    p = sub.add_parser("compare-dim", help="Euclidean dimension bounds")
    _add_common(p)
    p.add_argument("--group", default="heis_c:1")
    p.add_argument("--h", type=float, required=True)
    p.set_defaults(func=cmd_compare_dim)

    p = sub.add_parser("measure-dim", help="invariant measure dimension")
    _add_common(p, system=True)
    p.add_argument("--bernoulli", default=None)
    p.add_argument("--markov", default=None)
    p.set_defaults(func=cmd_measure_dim)

    p = sub.add_parser("subsystem", help="greedy subsystem with target dimension")
    _add_common(p)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--exponent", type=float, default=2.0)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_subsystem)

    return ap


def main(argv=None) -> int:
    start = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"--{name.replace('_', '-')} must be finite, got {value}")
        args.func(args)
    except SystemExit as exc:  # --help, after printing the help text
        return exc.code
    except CarnotDimError as exc:
        _sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                      "message": str(exc)}) + "\n")
        return exc.exit_code
    except OSError as exc:  # an input file that is missing, a directory, unreadable
        _sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                      "message": str(exc)}) + "\n")
        return 2
    _sys.stderr.write(f"wallclock_s={time.monotonic() - start:.3f}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
