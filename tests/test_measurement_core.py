"""The real Pauli-tensor measurement core against routes that share no code with it.

conditional_entropy_measured and double_conditional_entropy evaluate
sum_i p_i S(rho_k|i) from the Pauli tensor R of the state. The reference
route here applies the projectors of MeasurementBasis to the density
matrix, traces out the measured parties with partial_trace and sums
p * von_neumann_entropy, as the definition reads. The one-party search
descends the sphere on the analytic derivatives of that sum, which are
checked against central differences, and its minima against those of the
grid and Nelder-Mead search it replaced.
"""

import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr import (
    AcinForm,
    DensityMatrix,
    MeasurementBasis,
    ValidationError,
    acin_state,
    binary_entropy,
    conditional_entropy_measured,
    density_of,
    double_conditional_entropy,
    haar_random_pure,
    partial_trace,
    random_mixed_state,
    von_neumann_entropy,
)
from qcorr import bipartite, tripartite

# theta at the poles and the equator as well as anywhere in [0, pi]
THETA = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                  st.floats(0.0, math.pi))
PHI = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
BASIS = st.builds(MeasurementBasis, THETA, PHI)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def projector_route(rho, measured, kept):
    """sum p S(rho_kept | outcomes) with measured = {party: MeasurementBasis}."""
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=len(measured)):
        op = np.eye(1)
        chosen = dict(zip(measured, outcome))
        for party in rho.parties:
            if party in measured:
                factor = measured[party].projectors()[chosen[party]]
            else:
                factor = np.eye(2)
            op = np.kron(op, factor)
        m = op @ rho.matrix @ op
        p = float(np.trace(m).real)
        if p > 1e-12:
            state = DensityMatrix(m / p, rho.parties)
            total += p * von_neumann_entropy(partial_trace(state, [kept]))
    return total


@SETTINGS
@given(seed=st.integers(0, 47), basis=BASIS, measured=st.sampled_from("ab"))
def test_one_party_measurement_matches_projector_route(seed, basis, measured):
    rho = random_mixed_state(2, seed)
    kept = "b" if measured == "a" else "a"
    got = conditional_entropy_measured(rho, basis, measured)
    assert abs(got - projector_route(rho, {measured: basis}, kept)) < 1e-12


@SETTINGS
@given(seed=st.integers(0, 47), u=BASIS, v=BASIS, kept=st.sampled_from("abc"))
def test_two_party_measurement_matches_projector_route(seed, u, v, kept):
    rho = random_mixed_state(3, seed)
    i, j = [x for x in rho.parties if x != kept]
    got = double_conditional_entropy(rho, kept, (u, v))
    assert abs(got - projector_route(rho, {i: u, j: v}, kept)) < 1e-12


def test_scalar_and_grid_evaluators_agree_on_the_hemisphere():
    grid = tripartite.DOUBLE_GRID_DEFAULT
    th, ph, rows = bipartite._hemisphere(grid, grid)
    partner = np.random.default_rng(0).permutation(len(th))
    for seed, kept in ((5, "a"), (17, "b"), (100, "c")):
        rho = random_mixed_state(3, seed)
        r = tripartite._measured_tensor(rho, kept, "test")
        grid = tripartite._two_angle_values(r, rows)
        scalar = tripartite._two_angle_objective(r)
        # every point once as u and once as v
        worst = max(abs(scalar((th[i], ph[i], th[k], ph[k])) - grid[i, k])
                    for i, k in enumerate(partner))
        assert worst < 1e-14, (seed, worst)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(w=st.tuples(*[st.one_of(st.sampled_from([0.0, 1e-13, 0.5, 1.0]),
                               st.floats(-2.0, 2.0))] * 4),
       weight=st.sampled_from([0.5, 0.25]))
def test_scalar_outcome_entropy_is_the_binary_entropy_expression(w, weight):
    # the inlined scalar evaluator against binary_entropy, bit for bit
    w0, w1, w2, w3 = w
    p = weight * w0
    want = 0.0
    if p > 1e-12:
        lam = (1.0 + math.sqrt(w1 * w1 + w2 * w2 + w3 * w3) / w0) * 0.5
        want = p * binary_entropy(min(lam, 1.0))
    assert repr(bipartite._outcome_entropy(w0, w1, w2, w3, weight)) == repr(want)


def test_scalar_outcome_entropy_rejects_nan():
    with pytest.raises(ValidationError, match="binary entropy argument nan"):
        bipartite._outcome_entropy(1.0, math.nan, 0.0, 0.0, 0.5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(w=st.tuples(*[st.one_of(st.sampled_from([0.0, 1e-13, 0.5, 1.0]),
                               st.floats(-2.0, 2.0))] * 4))
def test_outcome_slope_value_is_the_scalar_outcome_entropy(w):
    assert repr(bipartite._outcome_slope(*w)[0]) == repr(bipartite._outcome_entropy(*w, 0.5))


def one_angle(rho, measured):
    """The one-party evaluator of rho measured on the party measured."""
    slot = rho.parties.index(measured)
    return bipartite._one_angle_objective(
        bipartite._pauli_tensor(rho.matrix, [slot, 1 - slot]))


def test_one_angle_derivatives_match_central_differences():
    # inside the ball, where every outcome is mixed: central differences with
    # step 1e-5 err by about 1e-10 here (truncation h^2 times the third
    # derivative, rounding 1e-16 / h), so 1e-8 is far from either
    h = 1e-5
    worst = 0.0
    for seed in range(24):
        fun = one_angle(random_mixed_state(2, seed), "ab"[seed % 2])
        rng = np.random.default_rng(seed)
        u = rng.normal(size=3)
        u *= rng.uniform(0.2, 0.95) / np.linalg.norm(u)
        _, grad, hess = fun(u.tolist(), True)
        assert fun(u.tolist())[1] == grad
        for k, e in enumerate(np.eye(3)):
            up, down = fun((u + h * e).tolist()), fun((u - h * e).tolist())
            worst = max(worst, abs((up[0] - down[0]) / (2 * h) - grad[k]),
                        *np.abs(np.subtract(up[1], down[1]) / (2 * h) - hess[k]))
    assert worst < 1e-8, worst


@SETTINGS
@given(seed=st.integers(0, 47), measured=st.sampled_from("ab"), theta=THETA, phi=PHI)
def test_fixed_point_step_never_raises_f(seed, measured, theta, phi):
    # concavity gives f(-grad / |grad|) <= f(u) exactly; 1e-14 allows for the
    # rounding of two evaluations of a sum of order 1
    fun = one_angle(random_mixed_state(2, seed), measured)
    f, grad = fun(bipartite._bloch_xyz(theta, phi))
    norm = math.sqrt(sum(g * g for g in grad))
    assert fun([-g / norm for g in grad])[0] <= f + 1e-14


@SETTINGS
@given(seed=st.integers(0, 47), measured=st.sampled_from("ab"), theta=THETA, phi=PHI)
def test_descent_moves_only_downhill(seed, measured, theta, phi):
    # every point the run moves to lowers f by more than tol = 1e-15, and the
    # run ends at the last of them: no higher than its start, and at most tol
    # above any point it tried
    fun = one_angle(random_mixed_state(2, seed), measured)
    tried = []

    def recorded(u, hessian=False):
        out = fun(u, hessian)
        tried.append((tuple(u), out[0]))
        return out

    res = bipartite._sphere_descent(recorded, bipartite._bloch_xyz(theta, phi),
                                    **bipartite._DESCENT_OPTIONS)
    path = [tried[0]]
    for u, f in tried[1:]:
        if f < path[-1][1] - 1e-15:
            path.append((u, f))
    assert (tuple(res.x), res.fun) == path[-1]
    assert res.success and res.fun <= min(f for _, f in tried) + 1e-15


# the one-party minima of the grid and Nelder-Mead search this one replaced
# (the 60 x 120 hemisphere grid, then Nelder-Mead with tolerances 1e-10) in
# the six directions of one_angle_minima.json: the 48 mixed_report pool
# states and its warm-up input 100, reductions of Haar states of seeds
# 20000-20039, and Acin forms with random lambdas, seeds 300-399 of the W
# class (lambda4 = 0)
MINIMA = json.loads((pathlib.Path(__file__).parent / "one_angle_minima.json").read_text())


def acin_form(seed):
    rng = np.random.default_rng(seed)
    lam = rng.random(5)
    if seed >= 300:
        lam[4] = 0.0
    lam /= np.linalg.norm(lam)
    return AcinForm(*lam.tolist(), theta=float(rng.uniform(0.0, 2.0 * math.pi)))


@pytest.mark.parametrize("family, state", [
    ("mixed", lambda seed: random_mixed_state(3, seed)),
    ("haar", lambda seed: density_of(haar_random_pure(3, seed))),
    ("acin", lambda seed: density_of(acin_state(acin_form(seed)))),
], ids=["mixed", "haar", "acin"])
def test_search_never_ends_above_the_replaced_search(family, state):
    # at most 1e-12 above the recorded minimum, with the value reported at the
    # reported basis; the fixed-point step alone ended up to 2.7e-4 above it
    # on the Acin forms, where f is flat along the sphere
    above = {}
    for seed, want in MINIMA[family].items():
        rho = state(int(seed))
        for (measured, other), old in zip(MINIMA["directions"], want):
            red = partial_trace(rho, sorted([measured, other]))
            got, basis = bipartite._min_conditional_entropy(red, red.parties.index(measured))
            assert got == conditional_entropy_measured(red, basis, measured)
            if got > old + 1e-12:
                above[seed, measured + other] = got - old
    assert above == {}
