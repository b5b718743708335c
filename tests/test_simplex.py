"""bipartite._simplex against scipy's own method="Nelder-Mead", compared with ==.

The in-repo simplex replaces scipy's Nelder-Mead on every measurement
search, so it has to take scipy's path exactly: the same vertices, the same
tie order on equal values, the same counts. Starts at the poles force ties,
because moving phi at theta = 0 changes no objective value. A failure here
names the scipy version it was compared against.
"""

import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from qcorr import DensityMatrix, partial_trace, random_mixed_state
from qcorr import bipartite, tripartite

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


def one_angle(rho, measured):
    slot = rho.parties.index(measured)
    return bipartite._one_angle_objective(
        bipartite._pauli_tensor(rho.matrix, [slot, 1 - slot]))


def two_angle(rho, kept):
    return tripartite._two_angle_objective(tripartite._measured_tensor(rho, kept, "test"))


@SETTINGS
@given(seed=st.integers(0, 47), measured=st.sampled_from("ab"), x0=ANGLES)
def test_one_angle_runs_equal_scipy(seed, measured, x0):
    assert_same_as_scipy(one_angle(random_mixed_state(2, seed), measured), x0)


@SETTINGS
@given(seed=st.integers(0, 47), kept=st.sampled_from("abc"), u=ANGLES, v=ANGLES)
def test_two_angle_runs_equal_scipy(seed, kept, u, v):
    assert_same_as_scipy(two_angle(random_mixed_state(3, seed), kept), u + v)


def test_run_stopped_at_maxiter_equals_scipy(monkeypatch):
    # the two-angle search that keeps party b of input 100 runs out of
    # iterations; its start is the grid point the report's search picks
    runs = []
    real = bipartite._nelder_mead

    def recorded(fun, x0):
        runs.append((fun, x0))
        return real(fun, x0)

    monkeypatch.setattr(bipartite, "_nelder_mead", recorded)
    tripartite.min_double_conditional_entropy(random_mixed_state(3, 100), "b")
    (fun, x0), = runs
    _, _, nit, _, success = assert_same_as_scipy(fun, x0)
    assert (nit, success) == (200, False)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (math.pi / 2, math.pi), (1.0, 2.0)])
def test_constant_objective_equals_scipy(x0):
    # every vertex ties on I/4, so the reorder alone decides the path
    flat = one_angle(DensityMatrix(np.eye(4, dtype=complex) / 4.0), "a")
    assert_same_as_scipy(flat, x0)


def test_pole_start_equals_scipy():
    rho = random_mixed_state(3, 0)
    assert_same_as_scipy(two_angle(rho, "a"), (0.0, 0.0, 0.0, 0.0))
    assert_same_as_scipy(one_angle(partial_trace(rho, ["a", "b"]), "a"), (0.0, 0.0))


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
@given(seed=st.integers(0, 47), measured=st.sampled_from("ab"), x0=ANGLES)
def test_quantized_one_angle_runs_equal_scipy(seed, measured, x0):
    # rounded to 2 places, some vertices tie and others do not, so one run
    # reorders both by sorted() and by np.argsort
    f = one_angle(random_mixed_state(2, seed), measured)
    assert_same_as_scipy(lambda x: round(f(x), 2), x0)


@SETTINGS
@given(seed=st.integers(0, 47), kept=st.sampled_from("abc"), u=ANGLES, v=ANGLES)
def test_quantized_two_angle_runs_equal_scipy(seed, kept, u, v):
    # five vertices, where np.argsort's tie order and a stable sort's differ
    f = two_angle(random_mixed_state(3, seed), kept)
    assert_same_as_scipy(lambda x: round(f(x), 2), u + v)
