"""In-process fuzz of the CLI: the flags of every subcommand, malformed
argv, and mutated spec files.

Whatever the arguments, `cli.main` returns 0, 2, 3 or 4, no exception
escapes it, no traceback or NaN is printed, and a nonzero return leaves a
JSON error as the last line of stderr.  In the flag and spec fuzz stderr
holds nothing else: no warning, only the JSON line (after the usage text,
on a usage error) or, on success, the `wallclock_s=` line.  Sizes are
capped (small depths, CF radii, budgets, and Cantor systems of one shell)
so that every example finishes quickly; sizes past a budget are part of
the fuzz.
"""

import contextlib
import copy
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from carnotdim import cli

from conftest import FIB2, GDMS2, MORAN4

SPECS = {"moran4": MORAN4, "fib2": FIB2, "gdms2": GDMS2}
# --markov files: a chain on fib2's two edges, one on moran4's four, and malformed ones
MARKOV = {"fib2": [[0.5, 0.5], [1.0, 0.0]], "moran4": [[0.25] * 4] * 4,
          "flat": [0.5, 0.5], "empty": [], "ragged": [[1.0], [0.5, 0.5]],
          "substochastic": [[0.5, 0.0], [0.0, 0.5]], "scalar": 1.0, "text": "P"}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    for name, obj in {**SPECS, **{f"markov-{k}": v for k, v in MARKOV.items()}}.items():
        (d / f"{name}.json").write_text(json.dumps(obj))
    return d


floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(-3.0, 5.0), st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0]))
sizes = st.one_of(st.integers(-10, 40), st.integers(-2 ** 63, 2 ** 63))
budgets = st.one_of(st.integers(-5, 3000), st.just(0))
texts = st.text(alphabet="0123456789.:-+einfa", max_size=16)
groups = st.one_of(st.sampled_from(["heis_c:1", "heis_c:2", "heis_q:1", "heis_c:0",
                                    "heis_c:-1", "heis_c:x", "heis_q", "step2", "bogus"]),
                   texts)


def flag(name, strategy):
    return st.one_of(st.none(), strategy.map(lambda v: f"--{name}={v}"))


@st.composite
def systems(draw, spec_dir):
    """--spec FILE, --system cf with a small radius, or a one-shell Cantor system."""
    kind = draw(st.sampled_from(["spec", "cf", "cantor"]))
    if kind == "spec":
        return ["--spec", str(spec_dir / f"{draw(st.sampled_from(sorted(SPECS)))}.json")]
    if kind == "cf":
        argv = ["--system", "cf", f"--radius={draw(st.floats(-1.0, 4.0))}"]
        eps = draw(st.one_of(st.none(), st.floats(-1.0, 3.0), st.sampled_from([0.0, 1e-9])))
    else:
        argv = ["--system", "cantor", f"--shells={draw(st.sampled_from([1, 0, -1]))}"]
        eps = draw(st.one_of(st.none(), st.floats(-1.0, 1.6), st.sampled_from([1.0, 1.5])))
    return argv + ([] if eps is None else [f"--epsilon={eps}"])


@st.composite
def argvs(draw, spec_dir):
    command = draw(st.sampled_from(["limitset", "pressure", "dim", "theta", "measure",
                                    "compare-dim", "measure-dim", "subsystem"]))
    argv = [command]
    if command in ("compare-dim", "subsystem"):
        pass  # no system
    elif command == "theta":
        # theta builds its own family: a CF radius up to 12, or one Cantor shell
        if draw(st.booleans()):
            argv += ["--system", "cf", f"--radius={draw(st.floats(-1.0, 12.0))}",
                     f"--shells={draw(st.integers(-2, 12))}"]
        else:
            argv += draw(systems(spec_dir))
    else:
        argv += draw(systems(spec_dir))
    if command == "limitset":
        opts = [flag("depth", st.integers(-3, 12)),
                flag("mode", st.sampled_from(["deterministic", "chaos"])),
                flag("samples", sizes), flag("seed", sizes), flag("budget", budgets)]
    elif command == "pressure":
        grid = st.one_of(texts, st.tuples(floats, floats, floats).map(
            lambda g: ":".join(map(repr, g))))
        opts = [flag("t", floats), flag("t-grid", grid), flag("budget", st.integers(-5, 200)),
                flag("format", st.sampled_from(["json", "csv"]))]
    elif command == "dim":
        opts = [flag("tol", floats), flag("budget", budgets)]
    elif command == "theta":
        opts = [flag("epsilon", st.floats(-1.0, 3.0)), flag("group", groups)]
    elif command == "measure":
        opts = [flag("t", floats), flag("depth", st.integers(-3, 8)),
                flag("side", st.sampled_from(["lower", "mid", "upper"])),
                flag("budget", budgets)]
    elif command == "compare-dim":
        opts = [flag("h", floats), flag("group", groups)]
    elif command == "measure-dim":
        probs = st.lists(floats, max_size=5).map(lambda p: ",".join(map(repr, p)))
        markov = st.sampled_from(sorted(MARKOV) + ["missing"]).map(
            lambda k: str(spec_dir / f"markov-{k}.json"))
        opts = [flag("bernoulli", st.one_of(probs, texts)), flag("markov", markov)]
    else:
        opts = [flag("c", floats), flag("exponent", floats), flag("target", floats),
                flag("tol", floats), flag("budget", budgets)]
    return argv + [f for f in (draw(o) for o in opts) if f is not None]


# tokens of malformed argv: flags of the wrong command or with no value, stray
# values; no flag that sizes a system, so every argv stays small
TOKENS = ["--bogus", "--t", "--depth", "--tol", "--h", "--spec", "--system", "cf", "cantor",
          "--mode", "chaos", "--format", "x", "1", "-1", "0.5", "nan", "--", "-", "=",
          "--t=", "-h", "--help", "--budget", "--target", "--bernoulli", "--markov"]


@st.composite
def malformed(draw):
    command = draw(st.sampled_from(["limitset", "pressure", "dim", "theta", "measure",
                                    "compare-dim", "measure-dim", "subsystem", "bogus", ""]))
    return [command] + draw(st.lists(st.sampled_from(TOKENS), max_size=6))


def assert_contract(argv, clean_stderr=False):
    """The exit-code contract; with clean_stderr, also that stderr holds one
    line (the JSON error, or wallclock_s= on success), after the parser's
    usage text on a usage error, and that no warning, which a run outside
    pytest would print there, was issued.  Without it, warnings reach
    pytest's summary as before."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=clean_stderr) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    assert "Traceback" not in err.getvalue()
    assert "nan" not in out.getvalue().lower(), (argv, out.getvalue())
    lines = err.getvalue().splitlines()
    if rc:
        record = json.loads(lines[-1])
        assert set(record) == {"error", "message"} and out.getvalue() == ""
    if clean_stderr:
        assert not caught, (argv, [str(w.message) for w in caught])
        usage = (rc == 2 and lines[0].startswith("usage: carnotdim")
                 and record["message"].startswith("carnotdim"))
        assert (len(lines) == 1 or usage) and (rc or lines[0].startswith("wallclock_s=")), \
            (argv, lines)


FUZZ = settings(deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_cli_flags_keep_the_exit_code_contract(data, spec_dir):
    assert_contract(data.draw(argvs(spec_dir)), clean_stderr=True)


@pytest.mark.parametrize("t", ["613", "-647"])
def test_measure_at_extreme_t_leaves_stderr_clean(t, spec_dir):
    """Masses that underflow to 0 at t = 613 and a negative t (refused)
    print no warning."""
    assert_contract(["measure", "--spec", str(spec_dir / "fib2.json"), f"--t={t}"],
                    clean_stderr=True)


@settings(FUZZ, max_examples=150)
@given(argv=malformed())
def test_malformed_argv_keeps_the_exit_code_contract(argv):
    assert_contract(argv)


# ---------------------------------------------------------------------------
# Mutated spec files
# ---------------------------------------------------------------------------

# values a mutation writes in place of a spec entry: mistyped, non-finite
# (written as the NaN / Infinity tokens that json.load accepts), out of range
ODD_VALUES = [None, True, "x", "", [], {}, [[]], 0, -1, 2, 10 ** 6, 1e308, -1e308, 1e-320,
              math.nan, math.inf, -math.inf, [math.nan, 0.0, 0.0], [1.0, 2.0], [0.5], 0.5,
              "heis_c", {"kind": "heis_c", "n": 1}, [{"dilate": 0.5}], [{"invert": True}]]


def _paths(obj, path=()):
    """Every (path, value) of a JSON tree, the root included."""
    yield path, obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, path + (k,))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from _paths(v, path + (k,))


def _get(obj, path):
    for k in path:
        obj = obj[k]
    return obj


# the specs of the CLI tests, plus every optional key: a rotation, a hole,
# a weight table, a declared contraction and a validation mode
FULL_SPECS = {
    **SPECS,
    "moran-rotate": dict(MORAN4, maps=[dict(m, rotate_theta=0.5) for m in MORAN4["maps"]]),
    "gdms2-full": dict(GDMS2, vertices=[dict(GDMS2["vertices"][0], inner_radius=0.0)],
                       weights={"w_lo": [0.4, 0.4], "w_up": [0.5, 0.5], "distortion": 1.0},
                       contraction=0.5, validate="closed_form")}


@st.composite
def mutated_specs(draw):
    """A moran or gdms spec after 1-3 mutations: a key or list entry removed
    or replaced by an odd value, `maps` emptied, or `incidence` made ragged,
    oversized or of the wrong type."""
    spec = copy.deepcopy(FULL_SPECS[draw(st.sampled_from(sorted(FULL_SPECS)))])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "replace", "replace", "replace", "empty-maps",
                                   "incidence"]))
        if op == "empty-maps":
            if spec.get("kind") == "moran":
                spec["maps"] = []
            continue
        if op == "incidence":
            edges = spec.get("maps", spec.get("edges"))
            n = len(edges) if isinstance(edges, list) else 2
            spec["incidence"] = draw(st.sampled_from([
                [[1] * n] * (n + 1), [[1] * (n + 1)] * n, [[1], [1, 1]], [1] * n,
                [[1] * 300] * 300, [[math.nan] * n] * n, [["a"] * n] * n, [], 1, "x"]))
            continue
        paths = [p for p, _ in _paths(spec) if p and p != ("spec_version",)]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _get(spec, path[:-1])
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return spec


SPEC_COMMANDS = [["dim"], ["dim", "--tol", "1e-3"], ["pressure", "--t", "1.5"],
                 ["pressure", "--t-grid", "0:3:1"], ["limitset", "--depth", "2"],
                 ["limitset", "--depth", "3", "--mode", "chaos", "--samples", "20"],
                 ["measure", "--t", "1.0", "--depth", "2"],
                 ["measure-dim", "--bernoulli", "0.5,0.5"]]


@settings(FUZZ, max_examples=300)
@given(spec=mutated_specs(), command=st.sampled_from(SPEC_COMMANDS))
# translations whose gauge norm |z|^4 + |t|^2 passes the float range: the
# norm is now finite, and the domain radius and weights built from it must
# overflow without a warning
@example(spec=dict(FIB2, maps=[dict(FIB2["maps"][0], translate=[1e308, 0.0, 0.0]),
                               FIB2["maps"][1]]), command=["dim"])
@example(spec=dict(FIB2, maps=[dict(FIB2["maps"][0], translate=[0.0, 0.0, 1e308]),
                               FIB2["maps"][1]]), command=["dim"])
def test_mutated_specs_keep_the_exit_code_contract(spec, command, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert_contract([command[0], "--spec", str(path)] + command[1:], clean_stderr=True)
