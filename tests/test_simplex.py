"""bipartite._simplex against scipy's own method="Nelder-Mead", compared with ==.

The in-repo simplex replaces scipy's Nelder-Mead on the two-party
measurement search, so it has to take scipy's path exactly: the same
vertices, the same tie order on equal values, the same counts. Starts at
the poles force ties, because moving phi at theta = 0 changes no objective
value. A failure here names the scipy version it was compared against.
"""

import contextlib
import io
import math
import pickle
import subprocess
import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from qcorr import DensityMatrix, correlation_report, random_mixed_state
from qcorr import bipartite, matrix_to_json, tripartite, verify
from qcorr.cli import main

OPTIONS = {"maxiter": bipartite.REFINE_ITERS_DEFAULT,
           "xatol": bipartite.REFINE_TOL_DEFAULT,
           "fatol": bipartite.REFINE_TOL_DEFAULT}
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
# (theta, phi) at a pole or on the equator, or anywhere
ANGLES = st.one_of(
    st.tuples(st.sampled_from([0.0, math.pi / 2, math.pi]),
              st.sampled_from([0.0, math.pi])),
    st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi,
                                                 exclude_max=True)))


def assert_same_as_scipy(fun, x0):
    """(fun, x, nit, nfev, success) of the port from x0, once it equals scipy's."""
    port, ref = [
        (r.fun, [float(v) for v in r.x], int(r.nit), int(r.nfev), bool(r.success))
        for r in (bipartite._simplex(fun, list(x0), **OPTIONS),
                  minimize(fun, np.array(x0), method="Nelder-Mead", options=OPTIONS))]
    assert port == ref, f"scipy {scipy.__version__}, x0 {x0}"
    return port


NAN = float("nan")


def two_angle(rho, kept):
    return tripartite._two_angle_objective(tripartite._measured_tensor(rho, kept, "test"))


@SETTINGS
@given(seed=st.integers(0, 47), kept=st.sampled_from("abc"), u=ANGLES, v=ANGLES)
def test_two_angle_runs_equal_scipy(seed, kept, u, v):
    assert_same_as_scipy(two_angle(random_mixed_state(3, seed), kept), u + v)


@pytest.fixture
def runs(monkeypatch):
    """(objective, x0, result) of every _nelder_mead run in the test."""
    recorded = []
    real = tripartite._nelder_mead

    def record(fun, x0):
        res = real(fun, x0)
        recorded.append((fun, tuple(x0), res))
        return res

    monkeypatch.setattr(tripartite, "_nelder_mead", record)
    return recorded


def test_run_stopped_at_maxiter_equals_scipy(runs):
    # the two-angle search that keeps party b of input 100 runs out of
    # iterations; its start is the grid point the report's search picks
    tripartite.min_double_conditional_entropy(random_mixed_state(3, 100), "b")
    (fun, x0, _), = runs
    _, _, nit, _, success = assert_same_as_scipy(fun, x0)
    assert (nit, success) == (200, False)


def test_mixed_report_runs_equal_scipy(runs):
    # every production run on the benchmark's mixed_report warm-up input,
    # one of them stopped at maxiter, from the grid point the search picked
    correlation_report(random_mixed_state(3, 100))
    assert runs
    for fun, x0, _ in runs:
        assert_same_as_scipy(fun, x0)


def test_oracle_runs_equal_scipy(runs):
    # the oracle's searches measure one party and run no simplex, so this
    # takes the three two-angle runs of the mixed_report warm-up input, one
    # per kept party, each called on its own
    verify.oracle_crosscheck(1, 256)
    assert runs == []
    for kept in "abc":
        tripartite.min_double_conditional_entropy(random_mixed_state(3, 100), kept)
    assert len(runs) == 3
    for fun, x0, _ in runs:
        assert_same_as_scipy(fun, x0)


# the same three results in a fresh interpreter where importing scipy fails,
# so every search calls its method directly
ROUTE_SCRIPT = """
import contextlib, io, pickle, sys
sys.modules["scipy"] = None
from qcorr import correlation_report, random_mixed_state, verify
from qcorr.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["discord2q", sys.argv[1], "--format", "json"])
sys.stdout.buffer.write(pickle.dumps((
    correlation_report(random_mixed_state(3, 100)).to_dict(),
    verify.oracle_crosscheck(1, 256).to_dict(), code, out.getvalue())))
"""


def test_route_without_scipy_gives_the_same_results(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(matrix_to_json(random_mixed_state(2, 5)))
    proc = subprocess.run([sys.executable, "-c", ROUTE_SCRIPT, str(path)],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert "scipy.optimize" in sys.modules  # here the searches go through minimize
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["discord2q", str(path), "--format", "json"])
    here = (correlation_report(random_mixed_state(3, 100)).to_dict(),
            verify.oracle_crosscheck(1, 256).to_dict(), code, out.getvalue())
    assert pickle.loads(proc.stdout) == here


@pytest.mark.parametrize("bad", [NAN, math.inf], ids=["two-angle-nan", "two-angle-inf"])
def test_runs_into_nan_or_inf_regions_equal_scipy(monkeypatch, bad):
    # the objective reads bad beyond a plane near the start, so reflections
    # land on it; each new vertex is either placed in the sorted rest or,
    # on a tie or NaN, the whole list is reordered by _argsort, and both
    # must happen
    placed = []
    place = bipartite._place_last

    def recorded(sim, fsim):
        placed.append(place(sim, fsim))
        return placed[-1]

    monkeypatch.setattr(bipartite, "_place_last", recorded)
    hits = 0
    for seed in range(6):
        f, x0 = two_angle(random_mixed_state(3, seed), "a"), (1.0, 2.0, 0.5, 3.0)
        normal = np.random.default_rng(seed).normal(size=len(x0))

        def masked(x):
            nonlocal hits
            if float(np.dot(np.subtract(x, x0), normal)) > 0.05:
                hits += 1
                return bad
            return f(x)

        assert_same_as_scipy(masked, x0)
    assert hits > 0 and True in placed and False in placed


@pytest.mark.parametrize("x0", [(0.0, 0.0), (math.pi / 2, math.pi), (1.0, 2.0)])
def test_constant_objective_equals_scipy(x0):
    # every vertex ties on I/8, so the reorder alone decides the path
    flat = two_angle(DensityMatrix(np.eye(8, dtype=complex) / 8.0, ("a", "b", "c")), "c")
    assert_same_as_scipy(flat, x0 + x0)


def test_pole_start_equals_scipy():
    assert_same_as_scipy(two_angle(random_mixed_state(3, 0), "a"), (0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("fsim", [
    [0.3, 0.1, 0.2],
    [0.3, 0.1, 0.2, 0.5, 0.05],
    [0.5, 0.5, 0.5],
    # np.argsort orders these ties 0, 4, 2, 1, 3, unlike a stable sort
    [0.0, 1.0, 1.0, 1.0, 0.0],
    [-0.0, 0.0, 1.0],
    [0.0, 1.0, 2.0, 1.0, -0.0],
    [0.3, float("nan"), 0.1],
    [float("nan"), 0.2, 0.1, float("nan"), 0.4],
])
def test_reorder_equals_np_argsort(fsim):
    assert bipartite._argsort(fsim) == np.argsort(fsim).tolist()


def test_reorder_guards_each_nan():
    # the same NaN object twice: list equality checks identity first, so
    # fsim == fsim holds although neither NaN equals itself
    fsim = [NAN, 0.2, NAN]
    assert fsim == fsim
    assert bipartite._argsort(fsim) == np.argsort(fsim).tolist()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, NAN]), st.floats()),
                min_size=1, max_size=6))
def test_reorder_equals_np_argsort_on_any_list(fsim):
    assert bipartite._argsort(fsim) == np.argsort(fsim).tolist()


@SETTINGS
@given(seed=st.integers(0, 47), kept=st.sampled_from("abc"), u=ANGLES, v=ANGLES)
def test_quantized_two_angle_runs_equal_scipy(seed, kept, u, v):
    # five vertices, where np.argsort's tie order and a stable sort's differ
    f = two_angle(random_mixed_state(3, seed), kept)
    assert_same_as_scipy(lambda x: round(f(x), 2), u + v)
