"""In-process fuzz of the CLI flags of `limitset`, `pressure` and `dim`.

Whatever the flag values, `cli.main` returns 0, 2, 3 or 4, no exception
escapes it, and a nonzero return leaves a JSON error as the last line of
stderr.  Sizes are capped (small depths, CF radii and budgets) so that
every example finishes quickly; sizes past a budget are part of the fuzz.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from carnotdim import cli

from conftest import FIB2, GDMS2, MORAN4

SPECS = {"moran4": MORAN4, "fib2": FIB2, "gdms2": GDMS2}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    for name, spec in SPECS.items():
        (d / f"{name}.json").write_text(json.dumps(spec))
    return d


floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(-3.0, 5.0), st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0]))
sizes = st.one_of(st.integers(-10, 40), st.integers(-2 ** 63, 2 ** 63))
texts = st.text(alphabet="0123456789.:-+einfa", max_size=16)


def flag(name, strategy):
    return st.one_of(st.none(), strategy.map(lambda v: f"--{name}={v}"))


@st.composite
def systems(draw, spec_dir):
    """--spec FILE, or --system cf with a small radius."""
    if draw(st.booleans()):
        return ["--spec", str(spec_dir / f"{draw(st.sampled_from(sorted(SPECS)))}.json")]
    argv = ["--system", "cf", f"--radius={draw(st.floats(-1.0, 4.0))}"]
    eps = draw(st.one_of(st.none(), st.floats(-1.0, 3.0), st.sampled_from([0.0, 1e-9])))
    return argv + ([] if eps is None else [f"--epsilon={eps}"])


@st.composite
def argvs(draw, spec_dir):
    command = draw(st.sampled_from(["limitset", "pressure", "dim"]))
    argv = [command] + draw(systems(spec_dir))
    budget = st.one_of(st.integers(-5, 3000), st.just(0))
    if command == "limitset":
        opts = [flag("depth", st.integers(-3, 12)),
                flag("mode", st.sampled_from(["deterministic", "chaos"])),
                flag("samples", sizes), flag("seed", sizes), flag("budget", budget)]
    elif command == "pressure":
        grid = st.one_of(texts, st.tuples(floats, floats, floats).map(
            lambda g: ":".join(map(repr, g))))
        opts = [flag("t", floats), flag("t-grid", grid), flag("budget", st.integers(-5, 200)),
                flag("format", st.sampled_from(["json", "csv"]))]
    else:
        opts = [flag("tol", floats), flag("budget", budget)]
    return argv + [f for f in (draw(o) for o in opts) if f is not None]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_flags_keep_the_exit_code_contract(data, spec_dir):
    argv = data.draw(argvs(spec_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc:
        record = json.loads(err.getvalue().splitlines()[-1])
        assert set(record) == {"error", "message"} and out.getvalue() == ""
